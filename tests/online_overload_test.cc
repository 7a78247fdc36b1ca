// Streaming-resilience tests (DESIGN.md §4f): bounded-memory load
// shedding, the overload degradation ladder, and late-span grafting.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "callgraph/inference.h"
#include "core/online.h"
#include "core/parameters.h"
#include "obs/metrics.h"
#include "sim/apps.h"
#include "sim/workload.h"
#include "trace/checkpoint.h"

namespace traceweaver {
namespace {

struct Stream {
  std::vector<Span> spans;  ///< Sorted by completion time (arrival order).
  CallGraph graph;
};

Stream MakeStream(double rps, double seconds) {
  Stream s;
  sim::AppSpec app = sim::MakeHotelReservationApp();
  sim::IsolatedReplayOptions iso;
  iso.requests_per_root = 15;
  s.graph = InferCallGraph(sim::RunIsolatedReplay(app, iso).spans);
  sim::OpenLoopOptions load;
  load.requests_per_sec = rps;
  load.duration = Seconds(seconds);
  load.seed = 21;
  s.spans = sim::RunOpenLoop(app, load).spans;
  std::sort(s.spans.begin(), s.spans.end(),
            [](const Span& a, const Span& b) {
              return a.client_recv < b.client_recv;
            });
  return s;
}

TEST(OnlineOverload, BufferBudgetShedsWholeWindowsOldestFirst) {
  Stream s = MakeStream(100, 2);
  OnlineOptions opts;
  opts.window = Millis(400);
  opts.max_buffer_spans = 400;
  OnlineTraceWeaver online(s.graph, opts);

  std::vector<WindowResult> all;
  for (const Span& span : s.spans) {
    online.Ingest(span);
    // The budget is a hard cap: never exceeded, not even transiently
    // between Ingest calls.
    EXPECT_LE(online.buffered(), opts.max_buffer_spans);
    for (auto& w : online.Advance(span.client_recv)) {
      all.push_back(std::move(w));
    }
  }
  for (auto& w : online.Flush()) all.push_back(std::move(w));

  const auto& st = online.stats();
  EXPECT_GT(st.windows_shed, 0u);
  EXPECT_GT(st.spans_shed, 0u);

  // Shed windows are explicit results with their orphan lists; windows
  // stay contiguous through the shed/closed interleaving.
  std::size_t shed_windows = 0, shed_orphans = 0, committed_after_shed = 0;
  bool seen_shed = false;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (i > 0 && all[i].window_start != all[i - 1].window_end) {
      // Flush's synthetic tail window may restate the boundary.
      EXPECT_GE(all[i].window_start, all[i - 1].window_end);
    }
    if (all[i].shed) {
      seen_shed = true;
      ++shed_windows;
      shed_orphans += all[i].orphans.size();
      EXPECT_EQ(all[i].parents_committed, 0u);
    } else if (seen_shed) {
      committed_after_shed += all[i].parents_committed;
    }
  }
  EXPECT_EQ(shed_windows, st.windows_shed);
  EXPECT_GE(shed_orphans, st.spans_shed);
  // Shedding a window never corrupts later windows: reconstruction keeps
  // committing after pressure.
  EXPECT_GT(committed_after_shed, 0u);

  // A shed span's links are definitively lost, never half-committed.
  for (const WindowResult& w : all) {
    if (!w.shed) continue;
    for (SpanId id : w.orphans) {
      EXPECT_EQ(online.assignment().count(id), 0u);
    }
  }
}

TEST(OnlineOverload, HardShedCanReportZeroDegradationLevel) {
  // Whole-window admission shedding bypasses the degradation ladder: a
  // run can shed windows while its degradation level never leaves 0.
  // bench_online_overload marks such rows with "hard_shed=1" precisely
  // because max_level alone would read as "unpressured"; this pins the
  // accounting gap so the marker can't silently rot.
  Stream s = MakeStream(250, 2);
  OnlineOptions opts;
  opts.window = Millis(400);
  opts.max_buffer_spans = 300;  // Tight enough to shed whole windows.
  OnlineTraceWeaver online(s.graph, opts);
  int max_level = 0;
  for (const Span& span : s.spans) {
    online.Ingest(span);
    online.Advance(span.client_recv);
    max_level = std::max(max_level, online.degradation_level());
  }
  online.Flush();
  max_level = std::max(max_level, online.degradation_level());

  const auto& st = online.stats();
  ASSERT_GT(st.windows_shed, 0u) << "config no longer sheds; retune";
  // No deadline is set, so the ladder has no signal to escalate on:
  // shedding happened entirely at admission with the ladder at rest.
  EXPECT_EQ(max_level, 0);
  EXPECT_EQ(st.degrade_up_steps, 0u);
  EXPECT_EQ(st.deadline_misses, 0u);
}

TEST(OnlineOverload, SingleWindowBacklogDropsAtAdmission) {
  Stream s = MakeStream(200, 1);
  OnlineOptions opts;
  opts.window = Seconds(60);  // One window covers the whole stream.
  opts.max_buffer_spans = 50;
  OnlineTraceWeaver online(s.graph, opts);
  for (const Span& span : s.spans) {
    online.Ingest(span);
    EXPECT_LE(online.buffered(), opts.max_buffer_spans);
  }
  const auto& st = online.stats();
  EXPECT_EQ(st.windows_shed, 0u);  // Nothing older than the open window.
  EXPECT_EQ(st.admission_drops, s.spans.size() - opts.max_buffer_spans);

  // Every admission-dropped span surfaces as an orphan by the flush.
  std::size_t orphans = 0;
  for (const auto& w : online.Flush()) orphans += w.orphans.size();
  EXPECT_GE(orphans, st.admission_drops);
}

TEST(OnlineOverload, ByteBudgetAlsoSheds) {
  Stream s = MakeStream(250, 2);
  OnlineOptions opts;
  opts.window = Millis(400);
  opts.max_buffer_bytes = 32 * 1024;
  OnlineTraceWeaver online(s.graph, opts);
  for (const Span& span : s.spans) {
    online.Ingest(span);
    EXPECT_LE(online.buffered_bytes(), opts.max_buffer_bytes);
    online.Advance(span.client_recv);
  }
  online.Flush();
  EXPECT_EQ(online.buffered_bytes(), 0u);
  EXPECT_GT(online.stats().windows_shed + online.stats().admission_drops,
            0u);
}

TEST(OnlineOverload, LadderEscalatesOnDeadlineMissesAndClamps) {
  Stream s = MakeStream(250, 3);
  obs::MetricsRegistry registry;
  OnlineOptions opts;
  opts.window = Millis(400);
  opts.window_close_deadline = 1;  // 1 ns: every close misses.
  opts.metrics = &registry;
  OnlineTraceWeaver online(s.graph, opts);

  std::vector<WindowResult> all;
  for (const Span& span : s.spans) {
    online.Ingest(span);
    for (auto& w : online.Advance(span.client_recv)) {
      all.push_back(std::move(w));
    }
  }
  const auto& st = online.stats();
  EXPECT_EQ(online.degradation_level(), kMaxOverloadLevel);
  EXPECT_EQ(st.degrade_up_steps, static_cast<std::uint64_t>(kMaxOverloadLevel));
  EXPECT_GE(st.deadline_misses, st.degrade_up_steps);
  EXPECT_EQ(st.degrade_down_steps, 0u);

  // Each window records the rung it was optimized at; the level is
  // monotone here (pure escalation) and clamps at the deepest rung.
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_GE(all[i].degradation_level, all[i - 1].degradation_level);
    EXPECT_LE(all[i].degradation_level, kMaxOverloadLevel);
  }

  // The ladder state lands in the metric family.
  const auto snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.Value("tw_online_degradation_level"),
            static_cast<std::int64_t>(kMaxOverloadLevel));
  EXPECT_EQ(snapshot.Value("tw_online_degrade_steps_total",
                           "direction=\"up\""),
            static_cast<std::int64_t>(kMaxOverloadLevel));
  EXPECT_GT(snapshot.Value("tw_online_deadline_misses_total"), 0);
}

TEST(OnlineOverload, LadderRecoversWhenPressureSubsides) {
  // Escalate under an impossible deadline, checkpoint the ladder state,
  // restore into a weaver with a generous deadline: the next closes step
  // back down toward full fidelity.
  Stream s = MakeStream(200, 2);
  OnlineOptions tight;
  tight.window = Millis(400);
  tight.window_close_deadline = 1;
  OnlineTraceWeaver stressed(s.graph, tight);
  for (const Span& span : s.spans) {
    stressed.Ingest(span);
    stressed.Advance(span.client_recv);
  }
  ASSERT_GT(stressed.degradation_level(), 0);
  std::stringstream ck;
  stressed.SaveCheckpoint(ck);

  OnlineOptions calm = tight;
  calm.window_close_deadline = Seconds(10);  // Every close is fast enough.
  OnlineTraceWeaver recovered(s.graph, calm);
  std::string error;
  ASSERT_TRUE(recovered.LoadCheckpoint(ck, &error)) << error;
  EXPECT_EQ(recovered.degradation_level(), stressed.degradation_level());

  const int before = recovered.degradation_level();
  recovered.Flush();  // Closes the remaining windows under no pressure.
  EXPECT_LT(recovered.degradation_level(), before);
  EXPECT_GT(recovered.stats().degrade_down_steps, 0u);
}

// --- Late-span grafting on a hand-built app: one handler with a single
// optional backend call, so a committed parent keeps a free slot.

CallGraph GraftGraph() {
  CallGraph graph;
  InvocationPlan plan;
  Stage stage;
  BackendCall call;
  call.service = "backend";
  call.endpoint = "/b";
  call.optional = true;
  stage.calls.push_back(call);
  plan.stages.push_back(stage);
  graph.SetPlan({"frontend", "/f"}, plan);
  return graph;
}

Span MakeParent(SpanId id, TimeNs base) {
  Span p;
  p.id = id;
  p.caller = "client";
  p.callee = "frontend";
  p.endpoint = "/f";
  p.client_send = base;
  p.server_recv = base + 100;
  p.server_send = base + 800;
  p.client_recv = base + 900;
  return p;
}

Span MakeChild(SpanId id, TimeNs base) {
  Span c;
  c.id = id;
  c.caller = "frontend";
  c.callee = "backend";
  c.endpoint = "/b";
  c.client_send = base + 200;
  c.server_recv = base + 250;
  c.server_send = base + 400;
  c.client_recv = base + 450;
  return c;
}

TEST(OnlineOverload, LateSpanGraftsIntoCommittedParentsFreeSlot) {
  OnlineOptions opts;
  opts.window = 1000;
  opts.margin = 100;
  OnlineTraceWeaver online(GraftGraph(), opts);

  online.Ingest(MakeParent(1, 100));
  // Close the parent's window before its child ever arrives: the parent
  // commits with the optional position skipped, leaving a graft slot.
  auto closed = online.Advance(1500);
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].parents_committed, 1u);

  // The child is now late; it parks in the late pool and grafts at the
  // next window close.
  online.Ingest(MakeChild(2, 100));
  EXPECT_EQ(online.stats().late_spans, 1u);
  EXPECT_EQ(online.late_pool_size(), 1u);

  auto next = online.Advance(2400);
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0].late_grafted, 1u);
  ASSERT_EQ(next[0].assignment.count(2), 1u);
  EXPECT_EQ(next[0].assignment.at(2), 1u);
  EXPECT_EQ(online.assignment().at(2), 1u);
  EXPECT_EQ(online.stats().late_grafted, 1u);
  EXPECT_EQ(online.late_pool_size(), 0u);
}

TEST(OnlineOverload, ExpiredLateSpansBecomeBenignOrphans) {
  OnlineOptions opts;
  opts.window = 1000;
  opts.margin = 100;
  OnlineTraceWeaver online(GraftGraph(), opts);

  online.Ingest(MakeParent(1, 100));
  online.Advance(1500);
  // A late child that matches no slot (wrong replica) can never graft.
  Span lost = MakeChild(2, 100);
  lost.caller_replica = 7;
  online.Ingest(lost);

  // Retention counts from its own window, [100, 1100): every close
  // starting before the horizon keeps it in the pool...
  const TimeNs horizon = 100 + kGraftRetentionWindows * opts.window;
  // ...and the close starting at the horizon, run at this watermark,
  // expires it as an orphan.
  const TimeNs horizon_close = horizon + opts.window + opts.margin;
  std::vector<SpanId> orphans;
  for (const auto& w : online.Advance(horizon_close - 1)) {
    orphans.insert(orphans.end(), w.orphans.begin(), w.orphans.end());
  }
  EXPECT_EQ(online.late_pool_size(), 1u);
  EXPECT_TRUE(orphans.empty());

  for (const auto& w : online.Advance(horizon_close)) {
    orphans.insert(orphans.end(), w.orphans.begin(), w.orphans.end());
  }
  EXPECT_EQ(online.late_pool_size(), 0u);
  EXPECT_EQ(online.stats().late_orphans, 1u);
  EXPECT_EQ(std::count(orphans.begin(), orphans.end(), SpanId{2}), 1);
}

TEST(OnlineOverload, LatePoolIsBounded) {
  OnlineOptions opts;
  opts.window = 1000;
  opts.margin = 100;
  OnlineTraceWeaver online(GraftGraph(), opts);

  online.Ingest(MakeParent(1, 100));
  online.Advance(1500);
  for (SpanId id = 10; id < 10 + kMaxLateSpans + 4; ++id) {
    Span late = MakeChild(id, 100);
    late.caller_replica = 9;  // Never graftable.
    online.Ingest(late);
    ASSERT_LE(online.late_pool_size(), kMaxLateSpans);
  }
  EXPECT_EQ(online.late_pool_size(), kMaxLateSpans);
  EXPECT_EQ(online.stats().late_dropped, 4u);
  // Dropped entries surface as orphans with the next result.
  std::size_t orphans = 0;
  for (const auto& w : online.Flush()) orphans += w.orphans.size();
  EXPECT_GE(orphans, 4u);
}

TEST(OnlineOverload, CommittedIdNeverGraftsFromALaterWindow) {
  // A second record of a committed child whose server_recv falls one
  // window later than the first (a re-corrected or re-stamped copy):
  // it is late for its own window, tried at the next close and left in
  // the pool for the final drain, and a free slot fits it throughout. It
  // must be refused at both, as it was when every committed id was kept.
  OnlineOptions opts;
  opts.window = 1000;
  opts.margin = 100;
  OnlineTraceWeaver online(GraftGraph(), opts);

  online.Ingest(MakeChild(2, 100));      // server_recv 350.
  online.Ingest(MakeParent(1, 100));     // Grid: 100, 1100, 2100, ...
  auto closed = online.Advance(1200);    // Closes [100, 1100).
  ASSERT_EQ(closed.size(), 1u);
  ASSERT_EQ(closed[0].assignment.count(2), 1u);

  online.Ingest(MakeParent(3, 1100));    // Commits with its slot free.
  closed = online.Advance(2200);         // Closes [1100, 2100).
  ASSERT_EQ(closed.size(), 1u);
  ASSERT_EQ(closed[0].parents_committed, 1u);

  online.Ingest(MakeChild(2, 1100));     // server_recv 1350: fits slot 3.
  ASSERT_EQ(online.late_pool_size(), 1u);
  closed = online.Advance(3200);         // Closes [2100, 3100): tried.
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_TRUE(closed[0].assignment.empty());
  EXPECT_EQ(online.late_pool_size(), 1u);

  closed = online.Flush();               // Buffer empty: the drain alone.
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_TRUE(closed[0].assignment.empty());
  EXPECT_EQ(closed[0].orphans, std::vector<SpanId>{2});
  EXPECT_EQ(online.stats().late_grafted, 0u);
}

// --- The bounded graft-reject set against an unbounded reference.

/// The weaver as it was when it kept every committed edge: a late copy of
/// any id it ever committed is refused a graft, however old. Built on the
/// real weaver rather than a second implementation: after every call that
/// closes a window, its checkpoint is reloaded with a legacy `commit`
/// record for each id committed so far, which loads as a reject that never
/// expires. That makes it a legacy-checkpoint resume at every close as
/// well. No prune may run between two reloads, so every Advance must close
/// at most one window and the final Flush may only drain the late pool.
class UnboundedRejectWeaver {
 public:
  UnboundedRejectWeaver(const CallGraph& graph, const OnlineOptions& options)
      : weaver_(graph, options) {}

  void Ingest(const Span& span) { weaver_.Ingest(span); }
  std::vector<WindowResult> Advance(TimeNs watermark) {
    return Reload(weaver_.Advance(watermark));
  }
  std::vector<WindowResult> Flush() { return Reload(weaver_.Flush()); }
  std::size_t committed_ids() const { return ever_.size(); }

 private:
  std::vector<WindowResult> Reload(std::vector<WindowResult> results) {
    for (const WindowResult& r : results) {
      for (const auto& [child, parent] : r.assignment) ever_[child] = parent;
    }
    if (results.empty()) return results;
    constexpr const char* kSchema = OnlineTraceWeaver::kCheckpointSchema;
    std::stringstream saved;
    weaver_.SaveCheckpoint(saved);
    std::string error;
    const auto lines = ReadChecksummedLines(saved, kSchema, &error);
    EXPECT_TRUE(lines.has_value()) << error;
    std::stringstream legacy;
    ChecksummedWriter w(legacy, kSchema);
    for (std::size_t i = 0; lines && i < lines->size(); ++i) {
      w.WriteLine((*lines)[i]);
      if (i > 0) continue;
      for (const auto& [child, parent] : ever_) {
        w.WriteLine("{\"ckpt\":\"commit\",\"child\":" + std::to_string(child) +
                    ",\"parent\":" + std::to_string(parent) + "}");
      }
    }
    w.Finish();
    EXPECT_TRUE(weaver_.LoadCheckpoint(legacy, &error)) << error;
    return results;
  }

  OnlineTraceWeaver weaver_;
  std::map<SpanId, SpanId> ever_;
};

void ExpectSameResults(const std::vector<WindowResult>& got,
                       const std::vector<WindowResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "window " << want[i].window_start);
    EXPECT_EQ(got[i].window_start, want[i].window_start);
    EXPECT_EQ(got[i].window_end, want[i].window_end);
    EXPECT_EQ(got[i].assignment, want[i].assignment);
    EXPECT_EQ(got[i].parents_committed, want[i].parents_committed);
    EXPECT_EQ(got[i].degradation_level, want[i].degradation_level);
    EXPECT_EQ(got[i].shed, want[i].shed);
    EXPECT_EQ(got[i].orphans, want[i].orphans);
    EXPECT_EQ(got[i].late_grafted, want[i].late_grafted);
  }
}

struct Delivery {
  TimeNs at = 0;
  Span span;
};

/// Random parents on GraftGraph, ~70% with a child, arriving in
/// completion order. A quarter of the children are held back by up to
/// four windows (some graft, some expire), and half of all spans are
/// delivered again at a random lag from zero to five windows (some inside
/// the graft horizon, most past it), including copies of grafted children.
/// Half of those copies are exact; the rest are moved in time by up to one
/// window either way, the most by which the bounded set tolerates a later
/// record of a committed id to differ (DESIGN.md §4f). With `skewed`,
/// server-side timestamps carry a per-vantage clock offset of up to 40 ns
/// against ~50 ns request/response gaps, so the estimator sees inversions
/// and a copy is corrected by a different offset than its first delivery.
std::vector<Delivery> RandomGraftStream(std::mt19937& rng, bool skewed,
                                        TimeNs window) {
  std::uniform_int_distribution<TimeNs> spacing(50, 400);
  std::uniform_int_distribution<TimeNs> jitter(0, 30);
  std::uniform_int_distribution<TimeNs> offset(-40, 40);
  std::uniform_int_distribution<TimeNs> lag(0, 5 * window);
  std::uniform_int_distribution<TimeNs> shift(-window, window);
  std::bernoulli_distribution has_child(0.7);
  std::bernoulli_distribution held(0.25);
  std::bernoulli_distribution again(0.5);
  std::bernoulli_distribution exact(0.5);
  std::bernoulli_distribution mismatched(0.1);
  std::uniform_int_distribution<int> replica(0, 1);
  std::map<std::pair<std::string, int>, TimeNs> clock;
  for (const char* service : {"frontend", "backend"}) {
    for (int r = 0; r < 2; ++r) clock[{service, r}] = skewed ? offset(rng) : 0;
  }

  std::vector<Delivery> out;
  const auto deliver = [&](const Span& span, TimeNs delay) {
    out.push_back({span.client_recv + delay, span});
    if (!again(rng)) return;
    Span copy = span;
    if (!exact(rng)) {
      const TimeNs by = shift(rng);
      copy.client_send += by;
      copy.server_recv += by;
      copy.server_send += by;
      copy.client_recv += by;
    }
    out.push_back({std::max(span.client_recv, copy.client_recv) + lag(rng),
                   copy});
  };
  TimeNs base = 1000;
  SpanId next_id = 1;
  for (int k = 0; k < 120; ++k) {
    base += spacing(rng);
    Span parent = MakeParent(next_id++, base);
    parent.callee_replica = replica(rng);
    parent.server_recv += jitter(rng);
    parent.server_send -= jitter(rng);
    const TimeNs parent_clock = clock[{"frontend", parent.callee_replica}];
    parent.server_recv += parent_clock;
    parent.server_send += parent_clock;
    if (has_child(rng)) {
      Span child = MakeChild(next_id++, base);
      child.caller_replica = mismatched(rng) ? 1 - parent.callee_replica
                                             : parent.callee_replica;
      child.callee_replica = replica(rng);
      child.server_recv += jitter(rng);
      child.server_send -= jitter(rng);
      child.client_send += parent_clock;
      child.client_recv += parent_clock;
      const TimeNs child_clock = clock[{"backend", child.callee_replica}];
      child.server_recv += child_clock;
      child.server_send += child_clock;
      deliver(child, held(rng) ? lag(rng) * 4 / 5 : 0);
    }
    deliver(parent, 0);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Delivery& a, const Delivery& b) {
                     return a.at < b.at;
                   });
  return out;
}

TEST(OnlineOverload, BoundedGraftRejectsMatchUnboundedReference) {
  const TimeNs window = 1000;
  std::size_t grafted = 0;
  std::size_t late_orphans = 0;
  std::size_t max_retained = 0;
  std::size_t max_committed = 0;
  std::int64_t max_correction = 0;
  for (const bool skewed : {false, true}) {
    for (int stream_no = 0; stream_no < 24; ++stream_no) {
      SCOPED_TRACE(::testing::Message()
                   << "skewed=" << skewed << " stream=" << stream_no);
      std::mt19937 rng(20261019 + stream_no);
      const std::vector<Delivery> stream =
          RandomGraftStream(rng, skewed, window);
      OnlineOptions opts;
      opts.window = window;
      opts.margin = 100;
      opts.skew_correct = skewed;
      OnlineTraceWeaver bounded(GraftGraph(), opts);
      UnboundedRejectWeaver reference(GraftGraph(), opts);

      TimeNs watermark = 0;
      const auto advance_to = [&](TimeNs to) {
        // Steps of at most one window close at most one window each.
        while (watermark < to) {
          watermark = std::min(to, watermark + window);
          const auto want = reference.Advance(watermark);
          ASSERT_LE(want.size(), 1u);
          ExpectSameResults(bounded.Advance(watermark), want);
        }
      };
      for (const Delivery& d : stream) {
        advance_to(d.at);
        bounded.Ingest(d.span);
        reference.Ingest(d.span);
      }
      // Close what is still buffered window by window, so the final Flush
      // only drains the late copies the last close left in the pool.
      while (bounded.buffered() > 0) advance_to(watermark + window);
      ExpectSameResults(bounded.Flush(), reference.Flush());
      if (HasFatalFailure() || HasFailure()) return;

      max_correction = std::max(max_correction,
                                bounded.skew_estimator().MaxFrameOffsetNs());
      grafted += bounded.stats().late_grafted;
      late_orphans += bounded.stats().late_orphans;
      std::stringstream ck;
      bounded.SaveCheckpoint(ck);
      const std::string bytes = ck.str();
      std::size_t retained = 0;
      for (std::size_t at = bytes.find("\"ckpt\":\"recent\""); at != bytes.npos;
           at = bytes.find("\"ckpt\":\"recent\"", at + 1)) {
        ++retained;
      }
      max_retained = std::max(max_retained, retained);
      max_committed = std::max(max_committed, reference.committed_ids());
    }
  }
  // The streams exercise both outcomes of the late path, and the bounded
  // set really forgets: it ends holding a small part of what was committed.
  EXPECT_GT(grafted, 0u);
  EXPECT_GT(late_orphans, 0u);
  EXPECT_GT(max_correction, 0);  // Skew correction really moved spans.
  EXPECT_LT(4 * max_retained, max_committed);
}

}  // namespace
}  // namespace traceweaver
