// Streaming-resilience tests (DESIGN.md §4f): bounded-memory load
// shedding, the overload degradation ladder, and late-span grafting.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "callgraph/inference.h"
#include "core/online.h"
#include "core/parameters.h"
#include "obs/metrics.h"
#include "sim/apps.h"
#include "sim/workload.h"

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

}  // namespace
}  // namespace traceweaver
