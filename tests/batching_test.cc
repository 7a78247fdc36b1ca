#include <gtest/gtest.h>

#include <algorithm>

#include "core/batching.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace traceweaver {
namespace {

using ::traceweaver::testing::MakeSpan;

std::vector<Span> OwnedSpans(const std::vector<std::pair<TimeNs, TimeNs>>& w) {
  std::vector<Span> spans;
  SpanId id = 1;
  for (auto [recv, send] : w) {
    spans.push_back(MakeSpan(id++, "x", "S", "/s", recv, send));
  }
  std::sort(spans.begin(), spans.end(), SpanStartOrder{});
  return spans;
}

std::vector<const Span*> Ptrs(const std::vector<Span>& spans) {
  std::vector<const Span*> out;
  for (const Span& s : spans) out.push_back(&s);
  return out;
}

TEST(Batching, EmptyInput) {
  EXPECT_TRUE(MakeBatches({}, 30).empty());
}

TEST(Batching, SingleSpanSingleBatch) {
  auto spans = OwnedSpans({{0, 100}});
  auto batches = MakeBatches(Ptrs(spans), 30);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].size(), 1u);
  EXPECT_TRUE(batches[0].perfect);
}

TEST(Batching, DisjointWindowsCutBetweenEverySpan) {
  auto spans = OwnedSpans({{0, 100}, {200, 300}, {400, 500}});
  auto batches = MakeBatches(Ptrs(spans), 30);
  ASSERT_EQ(batches.size(), 3u);
  for (const Batch& b : batches) EXPECT_TRUE(b.perfect);
}

TEST(Batching, OverlappingWindowsStayTogether) {
  auto spans = OwnedSpans({{0, 300}, {100, 400}, {200, 500}});
  auto batches = MakeBatches(Ptrs(spans), 30);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].size(), 3u);
}

TEST(Batching, SizeCapForcesImperfectCut) {
  // One long span overlapping everything: no perfect cut exists.
  std::vector<std::pair<TimeNs, TimeNs>> w{{0, 10'000}};
  for (int i = 1; i < 10; ++i) {
    w.push_back({i * 100, i * 100 + 50});
  }
  auto spans = OwnedSpans(w);
  auto batches = MakeBatches(Ptrs(spans), 4);
  ASSERT_GT(batches.size(), 1u);
  for (std::size_t i = 0; i + 1 < batches.size(); ++i) {
    EXPECT_LE(batches[i].size(), 4u);
    EXPECT_FALSE(batches[i].perfect);
  }
}

TEST(Batching, LatestEndSurvivesForcedCuts) {
  // A long span early on must prevent "perfect" labels after a forced cut,
  // because its window still overlaps later spans.
  std::vector<std::pair<TimeNs, TimeNs>> w{{0, 10'000}};
  for (int i = 1; i <= 6; ++i) w.push_back({i * 100, i * 100 + 50});
  auto spans = OwnedSpans(w);
  auto batches = MakeBatches(Ptrs(spans), 3);
  // All boundaries before the long span's end are imperfect.
  for (const Batch& b : batches) {
    if (b.end < spans.size()) {
      EXPECT_FALSE(b.perfect);
    }
  }
}

TEST(Batching, BatchesPartitionTheInput) {
  auto spans = OwnedSpans({{0, 50}, {10, 60}, {100, 150}, {120, 160},
                           {300, 350}});
  auto batches = MakeBatches(Ptrs(spans), 30);
  std::size_t covered = 0;
  std::size_t expected_begin = 0;
  for (const Batch& b : batches) {
    EXPECT_EQ(b.begin, expected_begin);
    EXPECT_GT(b.end, b.begin);
    covered += b.size();
    expected_begin = b.end;
  }
  EXPECT_EQ(covered, spans.size());
}

// Property test (Theorem A.1): at every boundary labeled perfect, no span
// before the cut overlaps any span after the cut -- hence no shared
// candidates are possible.
class BatchingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatchingProperty, PerfectCutsSeparateWindows) {
  Rng rng(GetParam());
  std::vector<std::pair<TimeNs, TimeNs>> w;
  TimeNs t = 0;
  for (int i = 0; i < 300; ++i) {
    t += rng.UniformInt(0, 2000);
    const TimeNs dur = rng.UniformInt(1, 5000);
    w.push_back({t, t + dur});
  }
  auto spans = OwnedSpans(w);
  auto ptrs = Ptrs(spans);
  auto batches = MakeBatches(ptrs, 25);

  for (const Batch& b : batches) {
    if (!b.perfect || b.end >= ptrs.size()) continue;
    // max end over the whole prefix [0, b.end) vs the first span after.
    TimeNs latest_end = 0;
    for (std::size_t i = 0; i < b.end; ++i) {
      latest_end = std::max(latest_end, ptrs[i]->server_send);
    }
    for (std::size_t j = b.end; j < ptrs.size(); ++j) {
      EXPECT_LE(latest_end, ptrs[j]->server_recv)
          << "perfect cut at " << b.end << " violated by span " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchingProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace traceweaver
