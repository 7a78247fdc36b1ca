// Confidence-driven tail sampler (src/store/tail_sampler.h): keep-policy
// ordering, full accounting, hash-coin determinism, state round-trip,
// committer integration, and the kill -9 resume identical-store
// guarantee.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/provenance.h"
#include "store/committer.h"
#include "store/store.h"
#include "store/tail_sampler.h"
#include "test_helpers.h"
#include "trace/checkpoint.h"
#include "trace/trace_record.h"

namespace traceweaver::store {
namespace {

namespace fs = std::filesystem;
using ::traceweaver::testing::MakeSpan;

/// A confident, boring, fast trace: 'A' grade, high confidence, sub-ms
/// duration -- only the rule-5 coin decides its fate.
TraceRecord BoringRecord(SpanId id) {
  const TimeNs base = static_cast<TimeNs>(id) * Millis(10);
  TraceRecord r;
  r.trace_id = id;
  r.root_service = "A";
  r.root_endpoint = "/a";
  r.grade = 'A';
  r.confidence = 0.95;
  r.min_confidence = 0.9;
  r.spans = {
      MakeSpan(id, kClientCaller, "A", "/a", base + 100, base + 900),
      MakeSpan(id + 1000000, "A", "B", "/b", base + 200, base + 700),
  };
  r.parents = {{id + 1000000, id}};
  r.start = r.spans[0].client_send;
  r.end = r.spans[0].client_recv;
  return r;
}

TEST(TailSamplerTest, KeepPolicyOrderFirstMatchWins) {
  TailSamplerOptions opts;
  opts.keep_rate = 0.0;  // The coin always sheds: only rules 1-4 keep.
  TailSampler sampler(opts);

  TraceRecord orphan = BoringRecord(1);
  orphan.orphan = true;
  EXPECT_TRUE(sampler.Decide(orphan).keep);
  EXPECT_STREQ(sampler.Decide(orphan).reason, "orphan");

  TraceRecord suspect = BoringRecord(2);
  suspect.suspect = true;
  EXPECT_STREQ(sampler.Decide(suspect).reason, "orphan");

  TraceRecord graded = BoringRecord(3);
  graded.grade = 'C';  // Worse than the 'B' boring floor.
  EXPECT_STREQ(sampler.Decide(graded).reason, "low_grade");

  TraceRecord shaky = BoringRecord(4);
  shaky.confidence = 0.3;  // Below the 0.5 boring floor.
  EXPECT_STREQ(sampler.Decide(shaky).reason, "low_grade");

  TraceRecord slow = BoringRecord(5);
  slow.end = slow.start + Millis(60);  // Past the 50 ms latency keep.
  EXPECT_STREQ(sampler.Decide(slow).reason, "high_latency");

  // An orphan that is also slow reports the earlier rule: the order is
  // part of the contract.
  TraceRecord both = BoringRecord(6);
  both.orphan = true;
  both.end = both.start + Millis(60);
  EXPECT_STREQ(sampler.Decide(both).reason, "orphan");

  const auto boring = sampler.Decide(BoringRecord(7));
  EXPECT_FALSE(boring.keep);
  EXPECT_STREQ(boring.reason, "boring");
}

TEST(TailSamplerTest, ShedAdjacencyKeepsTracesNearOverload) {
  TailSamplerOptions opts;
  opts.keep_rate = 0.0;
  opts.window = Millis(100);
  TailSampler sampler(opts);

  // Before any shed, a boring trace sheds.
  TraceRecord early = BoringRecord(1);
  EXPECT_FALSE(sampler.Decide(early).keep);

  sampler.NoteShed(Millis(500));

  // record.end + 2 windows reaches the shed horizon -> kept. Durations
  // stay below the 50 ms latency keep so only the adjacency rule can keep
  // them.
  TraceRecord near = BoringRecord(2);
  near.start = Millis(300);
  near.end = Millis(320);  // 320 + 200 >= 500.
  EXPECT_TRUE(sampler.Decide(near).keep);
  EXPECT_STREQ(sampler.Decide(near).reason, "shed_adjacent");

  TraceRecord far = BoringRecord(3);
  far.start = Millis(180);
  far.end = Millis(200);  // 200 + 200 < 500.
  EXPECT_FALSE(sampler.Decide(far).keep);

  // The horizon is a high-water mark: an older shed cannot move it back.
  sampler.NoteShed(Millis(100));
  EXPECT_TRUE(sampler.Decide(near).keep);
}

TEST(TailSamplerTest, EveryConsideredTraceIsAccounted) {
  obs::MetricsRegistry registry;
  TailSamplerOptions opts;
  opts.keep_rate = 0.3;
  TailSampler sampler(opts, &registry);

  std::size_t spans_shed = 0;
  for (SpanId id = 1; id <= 200; ++id) {
    TraceRecord r = BoringRecord(id);
    if (id % 17 == 0) r.grade = 'D';  // A few interesting ones.
    if (!sampler.Decide(r).keep) spans_shed += r.spans.size();
  }
  EXPECT_EQ(sampler.considered(), 200u);
  EXPECT_EQ(sampler.shed() + sampler.kept_interesting() +
                sampler.kept_random(),
            sampler.considered());
  EXPECT_GT(sampler.shed(), 0u);
  EXPECT_GT(sampler.kept_interesting(), 0u);
  EXPECT_GT(sampler.kept_random(), 0u);

  const auto s = registry.Snapshot();
  EXPECT_EQ(s.Value("tw_sample_considered_total"), 200);
  EXPECT_EQ(s.Value("tw_sample_shed_total"),
            static_cast<std::int64_t>(sampler.shed()));
  EXPECT_EQ(s.Value("tw_sample_shed_spans_total"),
            static_cast<std::int64_t>(spans_shed));
  EXPECT_EQ(s.Value("tw_sample_kept_interesting_total"),
            static_cast<std::int64_t>(sampler.kept_interesting()));
  EXPECT_EQ(s.Value("tw_sample_kept_random_total"),
            static_cast<std::int64_t>(sampler.kept_random()));
}

TEST(TailSamplerTest, CoinIsDeterministicAndRateFaithful) {
  TailSamplerOptions opts;
  opts.keep_rate = 0.25;
  TailSampler a(opts);
  TailSampler b(opts);

  std::size_t kept = 0;
  for (SpanId id = 1; id <= 2000; ++id) {
    const bool ka = a.Decide(BoringRecord(id)).keep;
    const bool kb = b.Decide(BoringRecord(id)).keep;
    EXPECT_EQ(ka, kb) << "decision for trace " << id
                      << " depends on sampler instance";
    if (ka) ++kept;
  }
  // ~25% +- a generous tolerance for 2000 hash coins.
  EXPECT_GT(kept, 400u);
  EXPECT_LT(kept, 600u);
}

TEST(TailSamplerTest, StateRoundtripRestoresCountersAndHorizon) {
  TailSamplerOptions opts;
  opts.keep_rate = 0.2;
  opts.window = Millis(100);
  TailSampler sampler(opts);
  sampler.NoteShed(Millis(700));
  for (SpanId id = 1; id <= 50; ++id) sampler.Decide(BoringRecord(id));

  std::stringstream state;
  sampler.SaveState(state);

  TailSampler restored(opts);
  std::string err;
  ASSERT_TRUE(restored.LoadState(state, &err)) << err;
  EXPECT_EQ(restored.considered(), sampler.considered());
  EXPECT_EQ(restored.shed(), sampler.shed());
  EXPECT_EQ(restored.kept_interesting(), sampler.kept_interesting());
  EXPECT_EQ(restored.kept_random(), sampler.kept_random());

  // The shed horizon survived: a trace near Millis(700) is still kept.
  // (Short duration, so the latency rule stays out of the way.)
  TraceRecord near = BoringRecord(99);
  near.start = Millis(580);
  near.end = Millis(600);
  EXPECT_STREQ(restored.Decide(near).reason, "shed_adjacent");

  // Round-trip of the no-shed sentinel.
  TailSampler fresh(opts);
  std::stringstream virgin;
  fresh.SaveState(virgin);
  TailSampler fresh2(opts);
  ASSERT_TRUE(fresh2.LoadState(virgin, &err)) << err;
  EXPECT_FALSE(fresh2.Decide(near).keep);

  // Corrupted state is rejected, never half-loaded.
  std::stringstream bad("garbage\n");
  TailSampler reject(opts);
  EXPECT_FALSE(reject.LoadState(bad, &err));
  EXPECT_EQ(reject.considered(), 0u);
}

TEST(TailSamplerTest, StateFormatGoldenReSavesByteForByte) {
  // Hand-written state, with a shed horizon and with the no-shed
  // sentinel: loading and re-saving must reproduce every byte.
  const char* headers[] = {
      R"({"schema":"traceweaver.sampler.v1","considered":7,"shed":3,)"
      R"("kept_interesting":2,"kept_random":2,"last_shed_end":200000000})",
      R"({"schema":"traceweaver.sampler.v1","considered":0,"shed":0,)"
      R"("kept_interesting":0,"kept_random":0,"last_shed_end":-1})",
  };
  for (const char* header : headers) {
    std::stringstream framed;
    ChecksummedWriter w(framed, TailSampler::kStateSchema);
    w.WriteLine(header);
    w.Finish();
    const std::string golden = framed.str();
    TailSampler sampler{TailSamplerOptions{}};
    std::string err;
    ASSERT_TRUE(sampler.LoadState(framed, &err)) << err;
    std::stringstream out;
    sampler.SaveState(out);
    EXPECT_EQ(out.str(), golden);
  }
}

/// Per-test store directory helper (mirrors store_test.cc).
class TailSamplerStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tw_sampler_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()) +
            "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  std::string Dir(const char* tag) const {
    return (dir_ / tag).string();
  }

 private:
  fs::path dir_;
};

WindowResult Window(TimeNs start, TimeNs end,
                    std::vector<std::pair<SpanId, SpanId>> edges = {}) {
  WindowResult r;
  r.window_start = start;
  r.window_end = end;
  for (const auto& [child, parent] : edges) r.assignment[child] = parent;
  return r;
}

TEST_F(TailSamplerStoreTest, CommitterShedsBoringAndStampsProvenance) {
  TraceStore store(Dir("s"));
  ASSERT_TRUE(store.Open().has_value());
  obs::MetricsRegistry registry;
  obs::ProvenanceLedger ledger({}, &registry);
  TailSamplerOptions topts;
  topts.keep_rate = 0.0;  // Every boring trace sheds.
  TailSampler sampler(topts, &registry);
  CommitterOptions copts;
  copts.window = Millis(100);
  copts.margin = Millis(10);
  copts.provenance = &ledger;
  copts.sampler = &sampler;
  TraceCommitter committer(copts, &store);

  // Trace 1: boring (fast, will carry grade 'A'). Trace 11: slow root,
  // kept by the latency rule.
  committer.OnSpan(MakeSpan(1, kClientCaller, "A", "/a", Millis(1), Millis(9)));
  committer.OnSpan(MakeSpan(2, "A", "B", "/b", Millis(3), Millis(7)));
  committer.OnSpan(
      MakeSpan(11, kClientCaller, "A", "/a", Millis(1), Millis(80)));
  WindowResult w = Window(0, Millis(100), {{2, 1}});
  obs::TraceQuality tq;
  tq.root = 1;
  tq.grade = 'A';
  tq.confidence = 0.95;
  tq.min_confidence = 0.9;
  w.trace_quality.push_back(tq);
  obs::TraceQuality tq2 = tq;
  tq2.root = 11;
  w.trace_quality.push_back(tq2);
  committer.OnResults({w});
  committer.OnResults({Window(Millis(100), Millis(300))});

  EXPECT_FALSE(store.Contains(1)) << "boring trace must be shed";
  EXPECT_TRUE(store.Contains(11)) << "slow trace must be kept";
  EXPECT_EQ(sampler.considered(), 2u);
  EXPECT_EQ(sampler.shed(), 1u);
  EXPECT_EQ(sampler.kept_interesting(), 1u);

  // The shed is accounted even though no stored record carries it: the
  // ledger counted a sampled_out emission and drained the members'
  // pending events.
  const auto s = registry.Snapshot();
  EXPECT_EQ(s.Value("tw_prov_events_total", "type=\"sampled_out\""), 1);
  EXPECT_EQ(s.Value("tw_sample_shed_total"), 1);
  EXPECT_EQ(s.Value("tw_sample_shed_spans_total"), 2);
  EXPECT_EQ(ledger.pending_spans(), 0u);
}

TEST_F(TailSamplerStoreTest, KillNineResumeReproducesIdenticalStore) {
  // Reference run: one sampler + committer sees the whole stream.
  TailSamplerOptions topts;
  topts.keep_rate = 0.3;
  topts.window = Millis(100);
  CommitterOptions copts;
  copts.window = Millis(100);
  copts.margin = Millis(10);

  const auto feed = [](TraceCommitter& committer, SpanId id) {
    const TimeNs base = static_cast<TimeNs>(id) * Millis(1);
    committer.OnSpan(
        MakeSpan(id, kClientCaller, "A", "/a", base + 100, base + 900));
    committer.OnSpan(
        MakeSpan(id + 1000000, "A", "B", "/b", base + 200, base + 700));
    WindowResult w =
        Window(base, base + Millis(100), {{id + 1000000, id}});
    // Confident 'A'-grade quality so only the rule-5 coin decides;
    // without a row the record defaults to grade 'D' and every trace
    // would be kept as low_grade.
    obs::TraceQuality tq;
    tq.root = id;
    tq.grade = 'A';
    tq.confidence = 0.95;
    tq.min_confidence = 0.9;
    w.trace_quality.push_back(tq);
    committer.OnResults({w});
  };

  std::map<SpanId, std::string> reference;
  {
    TraceStore store(Dir("ref"));
    ASSERT_TRUE(store.Open().has_value());
    TailSampler sampler(topts);
    CommitterOptions opts = copts;
    opts.sampler = &sampler;
    TraceCommitter committer(opts, &store);
    for (SpanId id = 1; id <= 120; ++id) feed(committer, id);
    committer.Finalize();
    store.Query({}, [&](const TraceSummary& s, const RecordLine& line) {
      if (line != nullptr) reference[s.trace_id] = *line;
      return true;
    });
    ASSERT_GT(reference.size(), 0u);
    ASSERT_LT(reference.size(), 120u) << "some traces must be shed";
  }

  // Crash run: kill -9 after trace 60 -- everything not saved is lost;
  // the resume replays a stream tail (overlap included, commits are
  // idempotent) with a fresh sampler restored from the saved state.
  std::map<SpanId, std::string> resumed;
  {
    TraceStore store(Dir("crash"));
    ASSERT_TRUE(store.Open().has_value());
    std::stringstream sampler_state;
    std::stringstream committer_state;
    {
      TailSampler sampler(topts);
      CommitterOptions opts = copts;
      opts.sampler = &sampler;
      TraceCommitter committer(opts, &store);
      for (SpanId id = 1; id <= 60; ++id) feed(committer, id);
      // Checkpoint order as in serve: seal, committer state, sampler
      // state -- then the kill.
      ASSERT_TRUE(store.Seal());
      committer.SaveState(committer_state);
      sampler.SaveState(sampler_state);
    }
    TraceStore reopened(Dir("crash"));
    ASSERT_TRUE(reopened.Open().has_value());
    TailSampler sampler(topts);
    std::string err;
    ASSERT_TRUE(sampler.LoadState(sampler_state, &err)) << err;
    CommitterOptions opts = copts;
    opts.sampler = &sampler;
    TraceCommitter committer(opts, &reopened);
    ASSERT_TRUE(committer.LoadState(committer_state, &err)) << err;
    // Replay from trace 50: the overlap re-decides and re-commits
    // idempotently, then the tail continues.
    for (SpanId id = 50; id <= 120; ++id) feed(committer, id);
    committer.Finalize();
    reopened.Query({}, [&](const TraceSummary& s, const RecordLine& line) {
      if (line != nullptr) resumed[s.trace_id] = *line;
      return true;
    });
  }

  EXPECT_EQ(resumed.size(), reference.size());
  for (const auto& [id, json] : reference) {
    const auto it = resumed.find(id);
    ASSERT_NE(it, resumed.end()) << "trace " << id << " missing after resume";
    EXPECT_EQ(it->second, json) << "trace " << id << " differs after resume";
  }
}

}  // namespace
}  // namespace traceweaver::store
