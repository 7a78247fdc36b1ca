// Unit tests for the online per-vantage clock-skew estimator (DESIGN.md
// §4i): offset gating, the frame solve over vantage pairs, span
// correction, per-edge slack derivation, and checkpoint round-tripping.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/skew_estimator.h"
#include "trace/span.h"

namespace traceweaver {
namespace {

const VantageKey kA{"frontend", 0};
const VantageKey kB{"search", 0};
const VantageKey kC{"geo", 1};

/// Feeds `n` observations of one RPC shape: request gap (callee clock
/// minus caller clock) and response gap (caller minus callee).
void Feed(SkewEstimator& est, const VantageKey& caller,
          const VantageKey& callee, std::int64_t req_gap,
          std::int64_t resp_gap, int n = 16) {
  for (int i = 0; i < n; ++i) est.ObserveGaps(caller, callee, req_gap, resp_gap);
}

TEST(PairSkewStats, OffsetZeroWhenClocksCouldBeSynchronized) {
  PairSkewStats stats;
  // Both gaps positive: a zero offset is feasible (delays explain both).
  for (int i = 0; i < 16; ++i) stats.Observe(Micros(80), Micros(120));
  EXPECT_EQ(stats.OffsetNs(), 0);
  EXPECT_EQ(stats.inversions, 0u);
}

TEST(PairSkewStats, OffsetMidpointWhenSkewForced) {
  PairSkewStats stats;
  // Callee clock +100us: request gap inflated, response gap inverted.
  // Feasible offsets are [60us, 140us]; the midpoint recovers 100us.
  for (int i = 0; i < 16; ++i) stats.Observe(Micros(140), -Micros(60));
  EXPECT_EQ(stats.OffsetNs(), Micros(100));
  EXPECT_GT(stats.inversions, 0u);
}

TEST(PairSkewStats, BelowMinSamplesReportsNoOffset) {
  PairSkewStats stats;
  for (std::uint64_t i = 0; i + 1 < PairSkewStats::kMinSamples; ++i) {
    stats.Observe(Micros(140), -Micros(60));
  }
  EXPECT_EQ(stats.OffsetNs(), 0);
  stats.Observe(Micros(140), -Micros(60));
  EXPECT_EQ(stats.OffsetNs(), Micros(100));
}

TEST(PairSkewStats, QuantileFloorSkipsOutliersOnLargePopulations) {
  PairSkewStats stats;
  // One garbled record with a wildly negative response gap, then many
  // clean samples: past kSamplesPerSkip observations the floor steps past
  // the outlier, so the estimate is not held hostage by a single record.
  stats.Observe(Micros(100), -Micros(900));
  for (int i = 0; i < 300; ++i) stats.Observe(Micros(100), Micros(100));
  EXPECT_EQ(stats.OffsetNs(), 0);
}

TEST(SkewEstimator, FrameSolveChainsAcrossPairs) {
  SkewEstimator est;
  // B runs +100us ahead of A; C runs +50us ahead of B (so +150us vs A).
  Feed(est, kA, kB, Micros(140), -Micros(60));
  Feed(est, kB, kC, Micros(90), -Micros(10));
  const std::int64_t fa = est.FrameOffsetNs(kA);
  EXPECT_EQ(est.FrameOffsetNs(kB) - fa, Micros(100));
  EXPECT_EQ(est.FrameOffsetNs(kC) - fa, Micros(150));
  EXPECT_EQ(est.MaxFrameOffsetNs(), Micros(150));
}

TEST(SkewEstimator, CorrectSpanRestoresCrossVantageConsistency) {
  SkewEstimator est;
  Feed(est, kA, kB, Micros(140), -Micros(60));

  Span s;
  s.caller = kA.first;
  s.caller_replica = kA.second;
  s.callee = kB.first;
  s.callee_replica = kB.second;
  // True gaps 40us each side, callee stamps shifted +100us by its clock.
  s.client_send = Micros(1000);
  s.server_recv = Micros(1040) + Micros(100);
  s.server_send = Micros(1060) + Micros(100);
  s.client_recv = Micros(1100);
  ASSERT_TRUE(est.CorrectSpan(s));
  EXPECT_EQ(s.server_recv - s.client_send, Micros(40));
  EXPECT_EQ(s.client_recv - s.server_send, Micros(40));
  // Intra-vantage durations are untouched by a frame shift.
  EXPECT_EQ(s.server_send - s.server_recv, Micros(20));
}

TEST(SkewEstimator, CleanPairsAreNotCorrected) {
  SkewEstimator est;
  Feed(est, kA, kB, Micros(80), Micros(120));
  Span s;
  s.caller = kA.first;
  s.caller_replica = kA.second;
  s.callee = kB.first;
  s.callee_replica = kB.second;
  s.client_send = Micros(1000);
  s.server_recv = Micros(1080);
  s.server_send = Micros(1100);
  s.client_recv = Micros(1220);
  const Span before = s;
  EXPECT_FALSE(est.CorrectSpan(s));
  EXPECT_EQ(s.client_send, before.client_send);
  EXPECT_EQ(s.server_recv, before.server_recv);
}

TEST(SkewEstimator, EdgeSlackOnlyForPairsWithInversions) {
  SkewEstimator est;
  Feed(est, kA, kB, Micros(140), -Micros(60));  // Inverted: needs slack.
  Feed(est, kA, kC, Micros(80), Micros(120));   // Clean: no slack.
  const auto slacks = est.EdgeSlacks();
  ASSERT_EQ(slacks.size(), 1u);
  const auto it = slacks.find({kA.first, kB.first});
  ASSERT_NE(it, slacks.end());
  // Constant gaps have zero spread, so the slack floor applies.
  EXPECT_EQ(it->second, SkewEstimator::kMinEdgeSlackNs);
}

TEST(SkewEstimator, CheckpointRoundTripIsExact) {
  SkewEstimator est;
  Feed(est, kA, kB, Micros(140), -Micros(60), 20);
  Feed(est, kB, kC, Micros(90), -Micros(10), 9);

  SkewEstimator restored;
  for (const std::string& line : est.CheckpointLines()) {
    ASSERT_TRUE(restored.LoadCheckpointLine(line)) << line;
  }
  EXPECT_EQ(restored.observations(), est.observations());
  EXPECT_EQ(restored.CheckpointLines(), est.CheckpointLines());
  EXPECT_EQ(restored.FrameOffsetNs(kB), est.FrameOffsetNs(kB));
  EXPECT_EQ(restored.FrameOffsetNs(kC), est.FrameOffsetNs(kC));
  EXPECT_EQ(restored.EdgeSlacks(), est.EdgeSlacks());
}

TEST(SkewEstimator, RejectsMalformedCheckpointLines) {
  SkewEstimator est;
  EXPECT_FALSE(est.LoadCheckpointLine("{\"ckpt\":\"skew\"}"));
  EXPECT_FALSE(est.LoadCheckpointLine(
      "{\"ckpt\":\"skew\",\"caller\":\"a\",\"caller_replica\":0,"
      "\"callee\":\"b\",\"callee_replica\":0,\"samples\":1,"
      "\"inversions\":0,\"offset_mean\":0,\"offset_m2\":0,"
      "\"req_gaps\":\"5,3\",\"resp_gaps\":\"\"}"));  // Unsorted gaps.
  EXPECT_EQ(est.observations(), 0u);
}

}  // namespace
}  // namespace traceweaver
