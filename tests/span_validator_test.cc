// Tests for the span ingestion validation / sanitization layer
// (trace/span_validator.h): strict vs. lenient repair semantics,
// duplicate-id handling, skew observation with suggested-slack
// derivation, and the tw_ingest_* metrics flush.
#include "trace/span_validator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "obs/metrics.h"
#include "trace/span.h"

namespace traceweaver {
namespace {

Span MakeSpan(SpanId id, TimeNs cs = 100, TimeNs sr = 110, TimeNs ss = 120,
              TimeNs cr = 130) {
  Span s;
  s.id = id;
  s.caller = "frontend";
  s.callee = "search";
  s.endpoint = "/query";
  s.client_send = cs;
  s.server_recv = sr;
  s.server_send = ss;
  s.client_recv = cr;
  return s;
}

TEST(SpanValidator, CleanSpansPassThroughUntouched) {
  SpanValidator v;
  std::vector<Span> spans = {MakeSpan(1), MakeSpan(2), MakeSpan(3)};
  const std::vector<Span> before = spans;
  std::vector<Span> out = v.Sanitize(std::move(spans));

  ASSERT_EQ(out.size(), 3u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].id, before[i].id);
    EXPECT_EQ(out[i].client_send, before[i].client_send);
    EXPECT_EQ(out[i].client_recv, before[i].client_recv);
  }
  const IngestStats& st = v.Finish();
  EXPECT_EQ(st.input, 3u);
  EXPECT_EQ(st.accepted, 3u);
  EXPECT_EQ(st.repaired, 0u);
  EXPECT_EQ(st.quarantined, 0u);
  EXPECT_EQ(st.suggested_slack_ns, 0);
}

TEST(SpanValidator, OffModeCountsInputOnly) {
  SpanValidator v({.mode = IngestMode::kOff});
  // Broken in every way: duplicate id, inverted timestamps, empty name.
  Span broken = MakeSpan(7, 200, 150, 140, 100);
  broken.callee.clear();
  std::vector<Span> spans = {MakeSpan(7), broken};
  std::vector<Span> out = v.Sanitize(std::move(spans));

  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].server_recv, 150);  // Untouched.
  EXPECT_TRUE(out[1].callee.empty());
  const IngestStats& st = v.Finish();
  EXPECT_EQ(st.input, 2u);
  EXPECT_EQ(st.accepted, 2u);
  EXPECT_EQ(st.quarantined, 0u);
}

// --- Timestamp monotonicity. ---

TEST(SpanValidator, LenientClampsSameClockInversion) {
  // server_send < server_recv is a same-clock (callee-local) inversion:
  // corruption, not skew. Lenient clamps it monotone.
  SpanValidator v;
  Span s = MakeSpan(1, 100, 110, 105, 130);
  EXPECT_EQ(v.Admit(s), SpanVerdict::kRepaired);
  EXPECT_TRUE(TimestampsConsistent(s));
  EXPECT_EQ(s.server_recv, 110);
  EXPECT_EQ(s.server_send, 110);  // Clamped up to server_recv.
  EXPECT_EQ(v.stats().timestamps_clamped, 1u);
  // Same-clock corruption must not feed the skew estimator.
  EXPECT_EQ(v.stats().skew_samples, 0u);
}

TEST(SpanValidator, StrictQuarantinesInvertedTimestamps) {
  SpanValidator v({.mode = IngestMode::kStrict});
  Span s = MakeSpan(1, 100, 110, 105, 130);
  EXPECT_EQ(v.Admit(s), SpanVerdict::kQuarantined);
  EXPECT_EQ(v.stats().timestamps_rejected, 1u);
  ASSERT_EQ(v.quarantine().size(), 1u);
  EXPECT_EQ(v.quarantine()[0].id, 1u);
}

TEST(SpanValidator, CrossVantageInversionIsSkewEvidenceNotCorruption) {
  // server_recv < client_send crosses capture vantage points: the callee
  // clock runs behind the caller clock. Lenient records the magnitude as
  // a skew sample but passes the timestamps through unmodified --
  // rewriting them would destroy the real delay distributions; the skew
  // is absorbed by the suggested constraint slack instead.
  SpanValidator v;
  Span s = MakeSpan(1, 100, 60, 120, 130);  // 40ns behind.
  EXPECT_EQ(v.Admit(s), SpanVerdict::kAccepted);
  EXPECT_EQ(s.server_recv, 60);  // Untouched.
  EXPECT_EQ(v.stats().timestamps_clamped, 0u);
  EXPECT_EQ(v.stats().skew_samples, 1u);
  EXPECT_EQ(v.stats().max_skew_ns, 40);
}

TEST(SpanValidator, SuggestedSlackIsTwiceP99SkewMagnitude) {
  SpanValidator v;
  // 100 spans, skew magnitudes 1..100 (server_recv behind client_send).
  for (int i = 1; i <= 100; ++i) {
    Span s = MakeSpan(static_cast<SpanId>(i), 1000, 1000 - i, 2000, 2100);
    v.Admit(s);
  }
  const IngestStats& st = v.Finish();
  EXPECT_EQ(st.skew_samples, 100u);
  EXPECT_EQ(st.max_skew_ns, 100);
  // p99 by index over magnitudes {1..100} is 99; suggestion is 2x that.
  EXPECT_EQ(st.suggested_slack_ns, 2 * 99);
}

// --- Duplicate span ids. ---

TEST(SpanValidator, LenientDropsExactDuplicateRecords) {
  // An identical record under the same id is the same RPC captured twice
  // (retransmission / double capture); a second copy under any id would
  // fabricate a request that never happened, so lenient keeps the first.
  SpanValidator v;
  std::vector<Span> spans = {MakeSpan(5), MakeSpan(5), MakeSpan(9)};
  std::vector<Span> out = v.Sanitize(std::move(spans));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 5u);
  EXPECT_EQ(out[1].id, 9u);
  EXPECT_EQ(v.stats().duplicate_ids, 1u);
  EXPECT_EQ(v.stats().duplicates_dropped, 1u);
  EXPECT_EQ(v.stats().duplicates_remapped, 0u);
  EXPECT_EQ(v.stats().quarantined, 1u);
}

TEST(SpanValidator, LenientRemapsCollidingDistinctSpansToFreshIds) {
  // Same id, different payload: a genuine id collision between two
  // distinct RPCs. Both are real, so the later one gets a fresh id.
  SpanValidator v;
  std::vector<Span> spans = {MakeSpan(5, 100, 110, 120, 130),
                             MakeSpan(5, 200, 210, 220, 230), MakeSpan(9)};
  std::vector<Span> out = v.Sanitize(std::move(spans));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].id, 5u);
  EXPECT_EQ(out[2].id, 9u);
  // The remapped id is fresh: above every genuine id in the batch.
  EXPECT_GT(out[1].id, 9u);
  EXPECT_EQ(out[1].client_send, 200);
  EXPECT_EQ(v.stats().duplicate_ids, 1u);
  EXPECT_EQ(v.stats().duplicates_remapped, 1u);
  EXPECT_EQ(v.stats().repaired, 1u);
}

TEST(SpanValidator, LenientRemapNeverCollidesWithLaterGenuineId) {
  // The collision appears *before* the batch's max id; remap must not
  // hand out an id a later span legitimately owns.
  SpanValidator v;
  std::vector<Span> spans = {MakeSpan(1, 100, 110, 120, 130),
                             MakeSpan(1, 200, 210, 220, 230), MakeSpan(2),
                             MakeSpan(3)};
  std::vector<Span> out = v.Sanitize(std::move(spans));
  ASSERT_EQ(out.size(), 4u);
  std::unordered_set<SpanId> ids;
  for (const Span& s : out) EXPECT_TRUE(ids.insert(s.id).second) << s.id;
}

TEST(SpanValidator, StrictKeepsFirstDropsLaterDuplicates) {
  SpanValidator v({.mode = IngestMode::kStrict});
  std::vector<Span> spans = {MakeSpan(5, 100, 110, 120, 130),
                             MakeSpan(5, 200, 210, 220, 230)};
  std::vector<Span> out = v.Sanitize(std::move(spans));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].client_send, 100);  // First occurrence wins.
  EXPECT_EQ(v.stats().duplicate_ids, 1u);
  EXPECT_EQ(v.stats().duplicates_dropped, 1u);
  EXPECT_EQ(v.stats().quarantined, 1u);
}

// --- Replicas and names. ---

TEST(SpanValidator, LenientClampsOutOfRangeReplicas) {
  SpanValidator v;
  Span s = MakeSpan(1);
  s.caller_replica = -3;
  s.callee_replica = kMaxReplica + 1;
  EXPECT_EQ(v.Admit(s), SpanVerdict::kRepaired);
  EXPECT_EQ(s.caller_replica, 0);
  EXPECT_EQ(s.callee_replica, kMaxReplica);
  // Counted per span, not per field.
  EXPECT_EQ(v.stats().replicas_clamped, 1u);
}

TEST(SpanValidator, StrictRejectsOutOfRangeReplica) {
  SpanValidator v({.mode = IngestMode::kStrict});
  Span s = MakeSpan(1);
  s.callee_replica = kMaxReplica + 1;
  EXPECT_EQ(v.Admit(s), SpanVerdict::kQuarantined);
  EXPECT_EQ(v.stats().replicas_rejected, 1u);
}

TEST(SpanValidator, EmptyNamesAreQuarantinedInBothModes) {
  for (IngestMode mode : {IngestMode::kLenient, IngestMode::kStrict}) {
    SpanValidator v({.mode = mode});
    Span s = MakeSpan(1);
    s.endpoint.clear();
    EXPECT_EQ(v.Admit(s), SpanVerdict::kQuarantined);
    EXPECT_EQ(v.stats().empty_names, 1u);
    EXPECT_EQ(v.stats().quarantined, 1u);
  }
}

// --- Metrics flush. ---

TEST(SpanValidator, FinishFlushesIngestMetricsOnce) {
  obs::MetricsRegistry registry;
  SpanValidator v({.metrics = &registry});
  std::vector<Span> spans = {MakeSpan(1), MakeSpan(1, 200, 210, 220, 230),
                             MakeSpan(2, 100, 110, 105, 130)};
  Span bad = MakeSpan(3);
  bad.caller.clear();
  spans.push_back(bad);
  v.Sanitize(std::move(spans));
  v.RecordParseErrors(5);
  v.Finish();
  v.Finish();  // Idempotent: must not double-count.

  const obs::RegistrySnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.Value("tw_ingest_spans_total"), 4);
  EXPECT_EQ(snap.Value("tw_ingest_accepted_total"), 1);
  EXPECT_EQ(snap.Value("tw_ingest_repaired_total"), 2);
  EXPECT_EQ(snap.Value("tw_ingest_quarantined_total"), 1);
  EXPECT_EQ(snap.Value("tw_ingest_parse_errors_total"), 5);
  EXPECT_EQ(snap.Value("tw_ingest_duplicate_ids_total"), 1);
  EXPECT_EQ(snap.Value("tw_ingest_timestamps_clamped_total"), 1);
  EXPECT_EQ(snap.Value("tw_ingest_empty_names_total"), 1);
}

}  // namespace
}  // namespace traceweaver
