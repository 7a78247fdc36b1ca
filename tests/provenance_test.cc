// Decision provenance (obs/provenance.h, DESIGN.md §4j): event wire
// format, ledger bookkeeping and bounds, checkpoint byte-determinism,
// the committer drain that gives every committed trace a non-empty
// provenance block, and the validator/online hooks feeding the ledger.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "callgraph/inference.h"
#include "core/online.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "sim/apps.h"
#include "sim/workload.h"
#include "store/committer.h"
#include "store/store.h"
#include "test_helpers.h"
#include "trace/span_validator.h"

namespace traceweaver {
namespace {

namespace fs = std::filesystem;
using obs::ProvEvent;
using obs::ProvEventType;
using obs::ProvenanceLedger;
using store::CommitterOptions;
using store::TraceCommitter;
using store::TraceStore;
using ::traceweaver::testing::HasRawControlByte;
using ::traceweaver::testing::MakeSpan;
using ::traceweaver::testing::RandomHostileString;

// ---------------------------------------------------------------------
// Wire vocabulary and event JSON.

TEST(ProvEventTypeTest, NamesRoundTripAndCoverEveryType) {
  for (std::size_t i = 0; i < obs::kProvEventTypeCount; ++i) {
    const auto type = static_cast<ProvEventType>(i);
    const std::string name = obs::ProvEventTypeName(type);
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "unknown") << i;
    const auto back = obs::ProvEventTypeFromName(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, type);
  }
  EXPECT_FALSE(obs::ProvEventTypeFromName("no_such_event").has_value());
  EXPECT_FALSE(obs::ProvEventTypeFromName("").has_value());
}

TEST(ProvEventJsonTest, GoldenLayout) {
  EXPECT_EQ(
      obs::ProvEventToJson({ProvEventType::kSkewCorrect, 7, -1500, "B@0"}),
      "{\"t\":\"skew_correct\",\"span\":7,\"v\":-1500,\"d\":\"B@0\"}");
  // Empty detail is omitted entirely, not rendered as "".
  EXPECT_EQ(obs::ProvEventToJson({ProvEventType::kSettled, 3, 2, ""}),
            "{\"t\":\"settled\",\"span\":3,\"v\":2}");
  // Quotes and backslashes in details are escaped.
  EXPECT_EQ(obs::ProvEventToJson(
                {ProvEventType::kValidatorQuarantine, 1, 0, "a\"b\\c"}),
            "{\"t\":\"validator_quarantine\",\"span\":1,\"v\":0,"
            "\"d\":\"a\\\"b\\\\c\"}");
}

TEST(ProvEventJsonTest, RoundTripsEveryTypeAndRejectsMalformed) {
  for (std::size_t i = 0; i < obs::kProvEventTypeCount; ++i) {
    const ProvEvent event{static_cast<ProvEventType>(i),
                          SpanId{1} << 62 | i, static_cast<std::int64_t>(i) -
                          3, i % 2 == 0 ? "svc@1" : ""};
    const auto back = obs::ProvEventFromJson(obs::ProvEventToJson(event));
    ASSERT_TRUE(back.has_value()) << i;
    EXPECT_EQ(*back, event) << i;
  }
  // Checkpoint-tagged lines parse with the same parser (extra fields are
  // ignored).
  const auto tagged = obs::ProvEventFromJson(
      "{\"ckpt\":\"prov\",\"t\":\"late_graft\",\"span\":9,\"v\":4}");
  ASSERT_TRUE(tagged.has_value());
  EXPECT_EQ(tagged->type, ProvEventType::kLateGraft);
  EXPECT_EQ(tagged->span, 9u);
  EXPECT_EQ(tagged->value, 4);

  EXPECT_FALSE(obs::ProvEventFromJson("").has_value());
  EXPECT_FALSE(obs::ProvEventFromJson("{}").has_value());
  EXPECT_FALSE(
      obs::ProvEventFromJson("{\"t\":\"bogus\",\"span\":1,\"v\":0}")
          .has_value());
  EXPECT_FALSE(
      obs::ProvEventFromJson("{\"t\":\"settled\",\"v\":0}").has_value());
  EXPECT_FALSE(
      obs::ProvEventFromJson("{\"t\":\"settled\",\"span\":-1,\"v\":0}")
          .has_value());
}

TEST(ProvEventJsonTest, HostileDetailsRoundTripOnOneLine) {
  // Details carry service names straight from capture; whatever bytes
  // they hold, the event must stay one JSON line and decode unchanged.
  Rng rng(8259);
  for (int trial = 0; trial < 2000; ++trial) {
    const ProvEvent event{ProvEventType::kSkewCorrect,
                          static_cast<SpanId>(trial), -trial,
                          RandomHostileString(rng)};
    const std::string json = obs::ProvEventToJson(event);
    ASSERT_FALSE(HasRawControlByte(json)) << json;
    const auto back = obs::ProvEventFromJson(json);
    ASSERT_TRUE(back.has_value()) << json;
    EXPECT_EQ(*back, event) << json;
  }
}

// ---------------------------------------------------------------------
// Ledger bookkeeping.

TEST(ProvenanceLedgerTest, RecordsAndDrainsPerSpanInOrder) {
  ProvenanceLedger ledger;
  ledger.Record(ProvEventType::kSkewCorrect, 1, 100);
  ledger.Record(ProvEventType::kLateGraft, 2, 1);
  ledger.Record(ProvEventType::kDegradedSolve, 1, 2);
  EXPECT_EQ(ledger.pending_events(), 3u);
  EXPECT_EQ(ledger.pending_spans(), 2u);
  EXPECT_TRUE(ledger.Has(1));
  EXPECT_FALSE(ledger.Has(99));

  const std::vector<ProvEvent> events = ledger.Take(1);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, ProvEventType::kSkewCorrect);
  EXPECT_EQ(events[1].type, ProvEventType::kDegradedSolve);
  EXPECT_EQ(ledger.pending_events(), 1u);
  EXPECT_FALSE(ledger.Has(1));
  EXPECT_TRUE(ledger.Take(1).empty());  // Drained; second take is empty.
  EXPECT_EQ(ledger.recorded(), 3u);
}

TEST(ProvenanceLedgerTest, FullLedgerDropsNewEventsAndCountsTheLoss) {
  obs::MetricsRegistry reg;
  ProvenanceLedger ledger({.max_events = 2}, &reg);
  ledger.Record(ProvEventType::kWindowShed, 1);
  ledger.Record(ProvEventType::kWindowShed, 2);
  ledger.Record(ProvEventType::kWindowShed, 3);  // Over the cap: dropped.
  EXPECT_EQ(ledger.pending_events(), 2u);
  EXPECT_EQ(ledger.recorded(), 2u);
  EXPECT_EQ(ledger.dropped(), 1u);
  EXPECT_FALSE(ledger.Has(3));

  const obs::RegistrySnapshot s = reg.Snapshot();
  EXPECT_EQ(s.Value("tw_prov_events_total", "type=\"window_shed\""), 2);
  EXPECT_EQ(s.Value("tw_prov_events_dropped_total"), 1);
  EXPECT_EQ(s.Value("tw_prov_pending_events"), 2);

  // Draining frees capacity for new events.
  ledger.Take(1);
  ledger.Record(ProvEventType::kWindowShed, 4);
  EXPECT_TRUE(ledger.Has(4));
}

TEST(ProvenanceLedgerTest, CheckpointLinesAreSortedDeterministicJson) {
  ProvenanceLedger a;
  a.Record(ProvEventType::kLateExpire, 30, 5);
  a.Record(ProvEventType::kSkewCorrect, 10, -7, "B@1");
  a.Record(ProvEventType::kDegradedSolve, 10, 1);

  const std::vector<std::string> lines = a.CheckpointLines();
  ASSERT_EQ(lines.size(), 3u);
  // Sorted by span id, recorded order within a span, each line tagged.
  EXPECT_EQ(lines[0],
            "{\"ckpt\":\"prov\",\"t\":\"skew_correct\",\"span\":10,"
            "\"v\":-7,\"d\":\"B@1\"}");
  EXPECT_EQ(lines[1],
            "{\"ckpt\":\"prov\",\"t\":\"degraded_solve\",\"span\":10,"
            "\"v\":1}");
  EXPECT_EQ(lines[2],
            "{\"ckpt\":\"prov\",\"t\":\"late_expire\",\"span\":30,\"v\":5}");

  // Restore into a fresh ledger reproduces the bytes exactly.
  std::vector<ProvEvent> parsed;
  for (const std::string& line : lines) {
    const auto event = obs::ProvEventFromJson(line);
    ASSERT_TRUE(event.has_value()) << line;
    parsed.push_back(*event);
  }
  ProvenanceLedger b;
  b.RestorePending(std::move(parsed));
  EXPECT_EQ(b.pending_events(), a.pending_events());
  EXPECT_EQ(b.CheckpointLines(), lines);
}

TEST(ProvRecorderTest, DisabledHandleIsInertAndSafe) {
  const obs::ProvRecorder off;
  EXPECT_FALSE(static_cast<bool>(off));
  off.Record(ProvEventType::kSettled, 1, 2, "ignored");  // Must not crash.

  ProvenanceLedger ledger;
  const obs::ProvRecorder on(&ledger);
  EXPECT_TRUE(static_cast<bool>(on));
  on.Record(ProvEventType::kSettled, 1);
  EXPECT_EQ(ledger.pending_events(), 1u);
}

// ---------------------------------------------------------------------
// Ingest hook: the validator reports repairs and rejections.

TEST(ProvenanceIngestTest, ValidatorRecordsRepairsAndQuarantines) {
  ProvenanceLedger ledger;
  SpanValidatorOptions vopts;
  vopts.provenance = &ledger;
  SpanValidator v(vopts);

  // An inverted same-clock timestamp pair is clamped under lenient mode.
  Span inverted = MakeSpan(1, kClientCaller, "A", "/a", Millis(10),
                           Millis(20));
  inverted.client_recv = Millis(5);
  // An empty callee is quarantined outright.
  Span nameless = MakeSpan(2, kClientCaller, "", "/a", Millis(1), Millis(2));
  v.Sanitize({inverted, nameless});

  const std::vector<ProvEvent> clamp = ledger.Take(1);
  ASSERT_FALSE(clamp.empty());
  EXPECT_EQ(clamp[0].type, ProvEventType::kValidatorClamp);
  const std::vector<ProvEvent> rejected = ledger.Take(2);
  ASSERT_FALSE(rejected.empty());
  EXPECT_EQ(rejected[0].type, ProvEventType::kValidatorQuarantine);
}

// ---------------------------------------------------------------------
// Commit drain: every committed trace explains itself.

class ProvenanceCommitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tw_prov_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()) +
            "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    store_ = std::make_unique<TraceStore>(dir_.string());
    ASSERT_TRUE(store_->Open().has_value());
  }
  void TearDown() override { fs::remove_all(dir_); }

  static WindowResult Window(TimeNs start, TimeNs end,
                             std::vector<std::pair<SpanId, SpanId>> edges = {},
                             std::vector<SpanId> orphans = {}) {
    WindowResult r;
    r.window_start = start;
    r.window_end = end;
    for (const auto& [child, parent] : edges) r.assignment[child] = parent;
    r.orphans = std::move(orphans);
    return r;
  }

  CommitterOptions Opts() {
    CommitterOptions copts;
    copts.window = Millis(100);
    copts.margin = Millis(10);
    copts.provenance = &ledger_;
    return copts;
  }

  fs::path dir_;
  std::unique_ptr<TraceStore> store_;
  ProvenanceLedger ledger_;
};

TEST_F(ProvenanceCommitTest, SettledTraceDrainsPendingAndStampsOutcome) {
  TraceCommitter committer(Opts(), store_.get());
  committer.OnSpan(MakeSpan(1, kClientCaller, "A", "/a", Millis(1), Millis(9)));
  committer.OnSpan(MakeSpan(2, "A", "B", "/b", Millis(3), Millis(7)));
  ledger_.Record(ProvEventType::kSkewCorrect, 2, 500, "B@0");
  ledger_.Record(ProvEventType::kLateGraft, 2, 1);

  committer.OnResults({Window(0, Millis(100), {{2, 1}})});
  committer.OnResults({Window(Millis(100), Millis(200))});
  const auto rec = store_->Get(1);
  ASSERT_NE(rec, nullptr);
  // Span 2's pending events in recorded order, settle stamp last.
  ASSERT_EQ(rec->provenance.size(), 3u);
  EXPECT_EQ(rec->provenance[0].type, ProvEventType::kSkewCorrect);
  EXPECT_EQ(rec->provenance[1].type, ProvEventType::kLateGraft);
  EXPECT_EQ(rec->provenance[2].type, ProvEventType::kSettled);
  EXPECT_EQ(rec->provenance[2].span, 1u);  // Stamped on the root.
  EXPECT_EQ(rec->provenance[2].value, 2);  // Span count.
  EXPECT_EQ(ledger_.pending_events(), 0u) << "drained at commit";
}

TEST_F(ProvenanceCommitTest, OrphanAndFinalizeOutcomesAreDistinct) {
  TraceCommitter committer(Opts(), store_.get());
  committer.OnSpan(MakeSpan(5, "A", "B", "/b", Millis(2), Millis(8)));
  committer.OnSpan(MakeSpan(6, kClientCaller, "A", "/a", Millis(1),
                            Millis(9)));

  // Span 5 is declared lost: committed immediately as an orphan.
  committer.OnResults({Window(0, Millis(100), {}, {5})});
  const auto orphan = store_->Get(5);
  ASSERT_NE(orphan, nullptr);
  ASSERT_FALSE(orphan->provenance.empty());
  EXPECT_EQ(orphan->provenance.back().type, ProvEventType::kOrphanCommit);

  // Span 6 is still pending at end of stream: finalized.
  committer.Finalize();
  const auto finalized = store_->Get(6);
  ASSERT_NE(finalized, nullptr);
  ASSERT_FALSE(finalized->provenance.empty());
  EXPECT_EQ(finalized->provenance.back().type, ProvEventType::kFinalized);

  // The invariant the endpoint relies on: no committed trace without at
  // least one event.
  store_->Query({}, [](const store::TraceSummary& s,
                       const store::RecordLine& line) {
    EXPECT_NE(line, nullptr);
    const auto rec = line ? TraceRecordFromJson(*line) : std::nullopt;
    EXPECT_TRUE(rec.has_value()) << s.trace_id;
    if (rec) {
      EXPECT_FALSE(rec->provenance.empty()) << s.trace_id;
    }
    return true;
  });
}

TEST_F(ProvenanceCommitTest, NullLedgerLeavesRecordsUntouched) {
  CommitterOptions copts = Opts();
  copts.provenance = nullptr;
  TraceCommitter committer(copts, store_.get());
  committer.OnSpan(MakeSpan(1, kClientCaller, "A", "/a", Millis(1),
                            Millis(9)));
  committer.Finalize();
  const auto rec = store_->Get(1);
  ASSERT_NE(rec, nullptr);
  EXPECT_TRUE(rec->provenance.empty());
}

// ---------------------------------------------------------------------
// Online weaver + committer: the late-graft retention horizon
// (kGraftRetentionWindows) and the settle horizon derived from it
// (kSettleWindows) agree, so a late child either joins its root's record
// or commits as a benign orphan fragment -- never strands.

/// One frontend handler whose single backend call is optional: a parent
/// committed before its child arrives keeps a graft slot open.
CallGraph OptionalCallGraph() {
  BackendCall call;
  call.service = "B";
  call.endpoint = "/b";
  call.optional = true;
  Stage stage;
  stage.calls.push_back(call);
  InvocationPlan plan;
  plan.stages.push_back(stage);
  CallGraph graph;
  graph.SetPlan({"A", "/a"}, plan);
  return graph;
}

/// Drives OnlineTraceWeaver and TraceCommitter the way the serve loop
/// does: Ingest + OnSpan per span, then Advance + OnResults.
struct LatePipeline {
  LatePipeline(const CommitterOptions& copts, TraceStore* store,
               ProvenanceLedger* ledger)
      : weaver(OptionalCallGraph(), WeaverOptions(copts, ledger)),
        committer(copts, store) {}

  static OnlineOptions WeaverOptions(const CommitterOptions& copts,
                                     ProvenanceLedger* ledger) {
    OnlineOptions o;
    o.window = copts.window;
    o.margin = copts.margin;
    o.provenance = ledger;
    return o;
  }

  /// Returns the number of traces committed by this step.
  std::size_t Step(const Span* span, TimeNs watermark) {
    if (span != nullptr) {
      weaver.Ingest(*span);
      committer.OnSpan(*span);
    }
    return committer.OnResults(weaver.Advance(watermark));
  }

  OnlineTraceWeaver weaver;
  TraceCommitter committer;
};

// The root spans [1 ms, 10 ms] and the child [3 ms, 6 ms]; windows are
// 100 ms from the first span (1 ms) with a 10 ms margin. The child's own
// window is [1, 101) ms, so its horizon ends at 1 + 2 windows = 201 ms:
// the close of [101, 201) ms (run at watermark 211 ms) is the last that
// may graft it, and it is also the close that settles the root (root
// completion 10 ms + kSettleWindows windows + margin = 120 ms <= 201 ms).
Span LateRoot() {
  return MakeSpan(1, kClientCaller, "A", "/a", Millis(1), Millis(10), 0);
}
Span LateChild() { return MakeSpan(2, "A", "B", "/b", Millis(3), Millis(6)); }

TEST_F(ProvenanceCommitTest, LateChildGraftedAtRetentionHorizonJoinsRoot) {
  LatePipeline p(Opts(), store_.get(), &ledger_);
  const Span root = LateRoot();
  const Span child = LateChild();
  EXPECT_EQ(p.Step(&root, Millis(210)), 0u);  // Root's window closed.
  ASSERT_EQ(store_->Get(1), nullptr);
  // The child arrives after its own window closed, just before the last
  // close its retention allows -- the close that settles the root.
  EXPECT_EQ(p.Step(&child, Millis(210)), 0u);
  EXPECT_EQ(p.weaver.stats().late_spans, 1u);
  EXPECT_EQ(p.Step(nullptr, Millis(211)), 1u);
  EXPECT_EQ(p.weaver.stats().late_grafted, 1u);

  const auto rec = store_->Get(1);
  ASSERT_NE(rec, nullptr);
  ASSERT_EQ(rec->spans.size(), 2u);
  EXPECT_EQ(rec->spans[1].id, 2u);
  ASSERT_EQ(rec->parents.size(), 1u);
  EXPECT_EQ(rec->parents[0], (std::pair<SpanId, SpanId>{2, 1}));
  EXPECT_TRUE(std::any_of(
      rec->provenance.begin(), rec->provenance.end(),
      [](const ProvEvent& e) {
        return e.type == ProvEventType::kLateGraft && e.span == 2;
      }));
  EXPECT_EQ(store_->Get(2), nullptr) << "split off as a fragment";
  EXPECT_EQ(p.committer.pending_spans(), 0u);
}

TEST_F(ProvenanceCommitTest, LateChildPastRetentionHorizonIsBenignOrphan) {
  LatePipeline p(Opts(), store_.get(), &ledger_);
  const Span root = LateRoot();
  const Span child = LateChild();
  p.Step(&root, Millis(211));  // Root settled alone.
  ASSERT_NE(store_->Get(1), nullptr);
  // One close later than above: past the horizon, so no close may graft
  // it any more and the weaver expires it on arrival.
  p.Step(&child, Millis(211));
  EXPECT_EQ(p.weaver.stats().late_orphans, 1u);
  p.Step(nullptr, Millis(311));

  const auto frag = store_->Get(2);
  ASSERT_NE(frag, nullptr);
  EXPECT_TRUE(frag->orphan);
  EXPECT_FALSE(frag->suspect);
  ASSERT_EQ(frag->spans.size(), 1u);
  ASSERT_EQ(frag->provenance.size(), 2u);
  EXPECT_EQ(frag->provenance[0].type, ProvEventType::kLateExpire);
  EXPECT_EQ(frag->provenance[0].value, Millis(201));  // The horizon.
  EXPECT_EQ(frag->provenance[1].type, ProvEventType::kOrphanCommit);
  EXPECT_EQ(store_->Get(1)->spans.size(), 1u);
  EXPECT_EQ(p.committer.pending_spans(), 0u);
  EXPECT_EQ(ledger_.pending_events(), 0u);
}

TEST_F(ProvenanceCommitTest, LateChildNeverStrandsAtAnyArrivalTime) {
  for (TimeNs arrive = Millis(111); arrive <= Millis(611);
       arrive += Millis(10)) {
    SCOPED_TRACE(::testing::Message() << "arrival watermark " << arrive);
    TraceStore store((dir_ / std::to_string(arrive)).string());
    ASSERT_TRUE(store.Open().has_value());
    ProvenanceLedger ledger;
    CommitterOptions copts = Opts();
    copts.provenance = &ledger;
    LatePipeline p(copts, &store, &ledger);
    const Span root = LateRoot();
    const Span child = LateChild();
    p.Step(&root, arrive);
    p.Step(&child, arrive);
    for (TimeNs w = arrive; w <= Millis(1000); w += Millis(10)) {
      p.Step(nullptr, w);
    }
    // Everything settled before end of stream, every event drained.
    EXPECT_EQ(p.committer.pending_spans(), 0u);
    EXPECT_EQ(ledger.pending_events(), 0u);
    const auto rec = store.Get(1);
    ASSERT_NE(rec, nullptr);
    const auto frag = store.Get(2);
    if (arrive < Millis(211)) {
      EXPECT_EQ(rec->spans.size(), 2u);
      EXPECT_EQ(frag, nullptr);
    } else {
      EXPECT_EQ(rec->spans.size(), 1u);
      ASSERT_NE(frag, nullptr);
      EXPECT_EQ(frag->provenance.front().type, ProvEventType::kLateExpire);
    }
  }
}

// ---------------------------------------------------------------------
// Online checkpoint: pending events survive a kill -9 byte-identically.

TEST(ProvenanceCheckpointTest, PendingEventsRideTheWeaverCheckpoint) {
  const sim::AppSpec app = sim::MakeHotelReservationApp();
  sim::IsolatedReplayOptions iso;
  iso.requests_per_root = 15;
  const CallGraph graph =
      InferCallGraph(sim::RunIsolatedReplay(app, iso).spans);
  sim::OpenLoopOptions load;
  load.requests_per_sec = 80;
  load.duration = Seconds(1);
  load.seed = 11;
  std::vector<Span> spans = sim::RunOpenLoop(app, load).spans;
  std::sort(spans.begin(), spans.end(), [](const Span& x, const Span& y) {
    return x.client_recv < y.client_recv;
  });

  OnlineOptions oopts;
  oopts.window = Millis(500);

  obs::MetricsRegistry reg_a;
  ProvenanceLedger ledger_a({}, &reg_a);
  oopts.provenance = &ledger_a;
  OnlineTraceWeaver a(graph, oopts);
  TimeNs watermark = 0;
  for (std::size_t i = 0; i < spans.size() / 2; ++i) {
    a.Ingest(spans[i]);
    watermark = std::max(watermark, spans[i].client_send);
    a.Advance(watermark);
  }
  // Seed some pending provenance regardless of what the stream produced.
  ledger_a.Record(ProvEventType::kSkewCorrect, 123456, -42, "B@2");
  ledger_a.Record(ProvEventType::kDegradedSolve, 123457, 1);

  std::stringstream ck;
  a.SaveCheckpoint(ck, {{"source_offset", 99u}});

  ProvenanceLedger ledger_b;
  OnlineOptions bopts = oopts;
  bopts.provenance = &ledger_b;
  OnlineTraceWeaver b(graph, bopts);
  std::string error;
  ASSERT_TRUE(b.LoadCheckpoint(ck, &error)) << error;

  EXPECT_EQ(ledger_b.pending_events(), ledger_a.pending_events());
  EXPECT_EQ(ledger_b.CheckpointLines(), ledger_a.CheckpointLines());

  // Re-saving from the restored state reproduces the bytes exactly.
  std::stringstream ra, rb;
  a.SaveCheckpoint(ra, {{"source_offset", 99u}});
  b.SaveCheckpoint(rb, {{"source_offset", 99u}});
  EXPECT_EQ(ra.str(), rb.str());
}

}  // namespace
}  // namespace traceweaver
