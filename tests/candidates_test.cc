#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/candidates.h"
#include "test_helpers.h"

namespace traceweaver {
namespace {

using ::traceweaver::testing::MakeSpan;

/// Fixture: parent at A [1000, 9000] with children pools to B and C.
class CandidatesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    parent_ = MakeSpan(1, kClientCaller, "A", "/a", 1000, 9000);
  }

  InvocationPlan SequentialPlan() {
    InvocationPlan plan;
    plan.stages.push_back(Stage{{{"B", "/b", false}}});
    plan.stages.push_back(Stage{{{"C", "/c", false}}});
    return plan;
  }

  InvocationPlan ParallelPlan() {
    InvocationPlan plan;
    plan.stages.push_back(Stage{{{"B", "/b", false}, {"C", "/c", false}}});
    return plan;
  }

  /// Creates a child span observed at A with caller-side window
  /// [send, recv].
  Span Child(SpanId id, const std::string& callee, TimeNs send, TimeNs recv) {
    Span s;
    s.id = id;
    s.caller = "A";
    s.callee = callee;
    s.endpoint = "/" + std::string(1, static_cast<char>(
                                          std::tolower(callee[0])));
    s.client_send = send;
    s.server_recv = send + 10;
    s.server_send = recv - 10;
    s.client_recv = recv;
    return s;
  }

  Span parent_;
};

TEST_F(CandidatesTest, SingleFeasibleMapping) {
  std::vector<Span> owned{Child(10, "B", 2000, 3000),
                          Child(11, "C", 4000, 5000)};
  std::vector<const Span*> pool_b{&owned[0]}, pool_c{&owned[1]};
  auto plan = SequentialPlan();
  auto mappings =
      EnumerateCandidates(parent_, plan, {&pool_b, &pool_c}, {});
  ASSERT_EQ(mappings.size(), 1u);
  EXPECT_EQ(mappings[0].children, (std::vector<SpanId>{10, 11}));
  EXPECT_EQ(mappings[0].skips, 0u);
}

TEST_F(CandidatesTest, ChildOutsideParentWindowIsInfeasible) {
  std::vector<Span> owned{
      Child(10, "B", 500, 3000),    // Sent before parent arrived.
      Child(11, "B", 2000, 9500),   // Returned after parent responded.
      Child(12, "C", 4000, 5000),
  };
  std::vector<const Span*> pool_b{&owned[0], &owned[1]};
  std::vector<const Span*> pool_c{&owned[2]};
  auto plan = SequentialPlan();
  auto mappings =
      EnumerateCandidates(parent_, plan, {&pool_b, &pool_c}, {});
  EXPECT_TRUE(mappings.empty());
}

TEST_F(CandidatesTest, OrderConstraintRejectsOverlappingStages) {
  // C's request departs before B's response returns: infeasible for a
  // sequential plan, feasible if order constraints are disabled.
  std::vector<Span> owned{Child(10, "B", 2000, 5000),
                          Child(11, "C", 4000, 6000)};
  std::vector<const Span*> pool_b{&owned[0]}, pool_c{&owned[1]};
  auto plan = SequentialPlan();

  auto strict = EnumerateCandidates(parent_, plan, {&pool_b, &pool_c}, {});
  EXPECT_TRUE(strict.empty());

  EnumerationOptions loose;
  loose.use_order_constraints = false;
  auto relaxed =
      EnumerateCandidates(parent_, plan, {&pool_b, &pool_c}, loose);
  ASSERT_EQ(relaxed.size(), 1u);
}

TEST_F(CandidatesTest, ParallelPlanAllowsOverlap) {
  std::vector<Span> owned{Child(10, "B", 2000, 5000),
                          Child(11, "C", 2500, 4500)};
  std::vector<const Span*> pool_b{&owned[0]}, pool_c{&owned[1]};
  auto plan = ParallelPlan();
  auto mappings =
      EnumerateCandidates(parent_, plan, {&pool_b, &pool_c}, {});
  ASSERT_EQ(mappings.size(), 1u);
}

TEST_F(CandidatesTest, MultipleCandidatesEnumerated) {
  std::vector<Span> owned{
      Child(10, "B", 2000, 3000), Child(11, "B", 2100, 3100),
      Child(12, "C", 4000, 5000), Child(13, "C", 4100, 5100)};
  std::vector<const Span*> pool_b{&owned[0], &owned[1]};
  std::vector<const Span*> pool_c{&owned[2], &owned[3]};
  auto plan = SequentialPlan();
  auto mappings =
      EnumerateCandidates(parent_, plan, {&pool_b, &pool_c}, {});
  EXPECT_EQ(mappings.size(), 4u);  // 2 x 2 combinations.
}

TEST_F(CandidatesTest, SharedPoolNeverReusesASpan) {
  // Plan calls B twice in one stage; only one B span exists.
  InvocationPlan plan;
  plan.stages.push_back(Stage{{{"B", "/b", false}, {"B", "/b", false}}});
  std::vector<Span> owned{Child(10, "B", 2000, 3000)};
  std::vector<const Span*> pool_b{&owned[0]};
  auto mappings = EnumerateCandidates(parent_, plan, {&pool_b, &pool_b}, {});
  EXPECT_TRUE(mappings.empty());

  std::vector<Span> owned2{Child(10, "B", 2000, 3000),
                           Child(11, "B", 2100, 3100)};
  std::vector<const Span*> pool2{&owned2[0], &owned2[1]};
  auto mappings2 = EnumerateCandidates(parent_, plan, {&pool2, &pool2}, {});
  ASSERT_EQ(mappings2.size(), 2u);
  for (const auto& m : mappings2) {
    EXPECT_NE(m.children[0], m.children[1]);
  }
}

TEST_F(CandidatesTest, OptionalCallCanBeSkipped) {
  InvocationPlan plan;
  plan.stages.push_back(Stage{{{"B", "/b", true}}});  // Optional.
  std::vector<const Span*> empty_pool;
  auto mappings = EnumerateCandidates(parent_, plan, {&empty_pool}, {});
  ASSERT_EQ(mappings.size(), 1u);
  EXPECT_EQ(mappings[0].children[0], kSkippedChild);
  EXPECT_EQ(mappings[0].skips, 1u);
}

TEST_F(CandidatesTest, AllowAllSkipsGeneratesSkipVariants) {
  std::vector<Span> owned{Child(10, "B", 2000, 3000),
                          Child(11, "C", 4000, 5000)};
  std::vector<const Span*> pool_b{&owned[0]}, pool_c{&owned[1]};
  auto plan = SequentialPlan();
  EnumerationOptions opts;
  opts.allow_all_skips = true;
  auto mappings =
      EnumerateCandidates(parent_, plan, {&pool_b, &pool_c}, opts);
  // (B, C), (B, skip), (skip, C), (skip, skip).
  EXPECT_EQ(mappings.size(), 4u);
  // The complete mapping is explored first.
  EXPECT_EQ(mappings[0].skips, 0u);
}

TEST_F(CandidatesTest, TotalCapBoundsEnumeration) {
  std::vector<Span> owned;
  for (SpanId i = 0; i < 30; ++i) {
    owned.push_back(Child(100 + i, "B", 2000 + static_cast<TimeNs>(i),
                          3000 + static_cast<TimeNs>(i)));
  }
  std::vector<const Span*> pool_b;
  for (const Span& s : owned) pool_b.push_back(&s);
  InvocationPlan plan;
  plan.stages.push_back(Stage{{{"B", "/b", false}}});
  EnumerationOptions opts;
  opts.branch_cap = 100;
  opts.total_cap = 7;
  auto mappings = EnumerateCandidates(parent_, plan, {&pool_b}, opts);
  EXPECT_EQ(mappings.size(), 7u);
}

TEST_F(CandidatesTest, BranchCapPrefersNearestInTime) {
  std::vector<Span> owned;
  for (SpanId i = 0; i < 10; ++i) {
    owned.push_back(Child(100 + i, "B", 2000 + 100 * static_cast<TimeNs>(i),
                          8000));
  }
  std::vector<const Span*> pool_b;
  for (const Span& s : owned) pool_b.push_back(&s);
  InvocationPlan plan;
  plan.stages.push_back(Stage{{{"B", "/b", false}}});
  EnumerationOptions opts;
  opts.branch_cap = 3;
  auto mappings = EnumerateCandidates(parent_, plan, {&pool_b}, opts);
  ASSERT_EQ(mappings.size(), 3u);
  // The three earliest feasible sends win.
  std::vector<SpanId> got;
  for (const auto& m : mappings) got.push_back(m.children[0]);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<SpanId>{100, 101, 102}));
}

/// Scoring context for a one-position plan at A:/a, as the optimizer
/// builds it: the position's delay view and discrete terms from a skip
/// `rate` (log rate / log(1 - rate)), plus the response-gap view.
struct OnePositionScoring {
  std::vector<InvocationPlan::Position> positions{{0, 0}};
  std::vector<ScoringContext::PositionScore> table{1};
  ScoringContext ctx;

  OnePositionScoring(const DelayModel& model, double rate) {
    const DelayModel::DistView view = model.View(DelayKey{"A", "/a", 0, 0});
    table[0].skip_lp = std::log(rate);
    table[0].keep_lp = std::log(1.0 - rate);
    table[0].dist = view.mixture;
    table[0].max_log_pdf = view.max_log_pdf;
    ctx.positions = &positions;
    ctx.position_scores = &table;
    ctx.response = model.View(DelayKey::ResponseGap("A", "/a"));
  }
};

TEST_F(CandidatesTest, ScoringPrefersTypicalGaps) {
  DelayModel model;
  // B is called ~1000ns after the parent arrives.
  model.SetSeed(DelayKey{"A", "/a", 0, 0}, Gaussian{1000.0, 100.0});
  model.SetSeed(DelayKey::ResponseGap("A", "/a"), Gaussian{4000.0, 2000.0});
  const OnePositionScoring scoring(model, 0.01);

  std::vector<Span> owned{Child(10, "B", 2000, 3000),   // Gap 1000: typical.
                          Child(11, "B", 5000, 6000)};  // Gap 4000: unusual.
  const Span* typical = &owned[0];
  const Span* unusual = &owned[1];
  const double good = ScoreMapping(parent_, &typical, scoring.ctx);
  const double bad = ScoreMapping(parent_, &unusual, scoring.ctx);
  EXPECT_GT(good, bad);
}

TEST_F(CandidatesTest, SkipRateShapesSkipPenalty) {
  DelayModel model;
  const OnePositionScoring high_rate(model, 0.5);
  const OnePositionScoring low_rate(model, 0.01);

  const Span* skipped = nullptr;
  const double cheap_skip = ScoreMapping(parent_, &skipped, high_rate.ctx);
  const double dear_skip = ScoreMapping(parent_, &skipped, low_rate.ctx);
  EXPECT_GT(cheap_skip, dear_skip);
}

TEST_F(CandidatesTest, ExtractGapsMatchesScoringTriggers) {
  std::vector<Span> owned{Child(10, "B", 2000, 3000),
                          Child(11, "C", 4000, 5000)};
  auto plan = SequentialPlan();
  auto gaps = ExtractGaps(parent_, plan, {&owned[0], &owned[1]}, true);
  ASSERT_EQ(gaps.size(), 3u);  // B gap, C gap, response gap.
  EXPECT_DOUBLE_EQ(gaps[0].gap, 1000.0);  // 2000 - 1000 (parent recv).
  EXPECT_DOUBLE_EQ(gaps[1].gap, 1000.0);  // 4000 - 3000 (B's completion).
  EXPECT_DOUBLE_EQ(gaps[2].gap, 4000.0);  // 9000 - 5000.
  EXPECT_EQ(gaps[2].key.stage, -1);
}

TEST_F(CandidatesTest, ExtractGapsSkipsSkippedPositions) {
  auto plan = SequentialPlan();
  std::vector<Span> owned{Child(10, "B", 2000, 3000)};
  auto gaps = ExtractGaps(parent_, plan, {&owned[0], nullptr}, true);
  ASSERT_EQ(gaps.size(), 2u);  // B gap + response gap only.
}

}  // namespace
}  // namespace traceweaver
