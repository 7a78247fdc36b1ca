#include <gtest/gtest.h>

#include <algorithm>

#include "callgraph/inference.h"
#include "core/accuracy.h"
#include "core/online.h"
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

TEST(Online, NoWindowsBeforeWatermark) {
  Stream s = MakeStream(100, 1);
  OnlineTraceWeaver online(s.graph);
  online.Ingest(s.spans[0]);
  EXPECT_TRUE(online.Advance(s.spans[0].client_send + Millis(1)).empty());
  EXPECT_EQ(online.buffered(), 1u);
}

TEST(Online, StreamingMatchesOfflineAccuracy) {
  Stream s = MakeStream(250, 4);

  OnlineOptions opts;
  opts.window = Seconds(1);
  opts.margin = Millis(500);
  OnlineTraceWeaver online(s.graph, opts);
  for (const Span& span : s.spans) {
    online.Ingest(span);
    online.Advance(span.client_recv);
  }
  online.Flush();

  auto online_report = Evaluate(s.spans, online.assignment());

  TraceWeaver offline(s.graph);
  auto offline_report =
      Evaluate(s.spans, offline.Reconstruct(s.spans).assignment);

  EXPECT_GT(online_report.SpanAccuracy(), 0.9);
  // Online must be within a few points of offline.
  EXPECT_GT(online_report.SpanAccuracy(),
            offline_report.SpanAccuracy() - 0.05);
}

TEST(Online, EveryParentCommittedExactlyOnce) {
  Stream s = MakeStream(150, 3);
  OnlineOptions opts;
  opts.window = Millis(800);
  OnlineTraceWeaver online(s.graph, opts);

  std::size_t commits = 0;
  for (const Span& span : s.spans) {
    online.Ingest(span);
    for (const auto& w : online.Advance(span.client_recv)) {
      commits += w.parents_committed;
    }
  }
  for (const auto& w : online.Flush()) commits += w.parents_committed;

  // Number of spans with a non-empty plan (parents): those at frontend and
  // mid-tier services. Count spans whose callee actually issues calls.
  std::size_t expected = 0;
  for (const Span& span : s.spans) {
    const InvocationPlan* plan =
        s.graph.PlanFor({span.callee, span.endpoint});
    if (plan != nullptr && !plan->Empty()) ++expected;
  }
  // Every parent is committed at most once, and nearly all get committed.
  EXPECT_LE(commits, expected);
  EXPECT_GT(static_cast<double>(commits),
            0.95 * static_cast<double>(expected));
}

TEST(Online, WindowsAreContiguous) {
  Stream s = MakeStream(200, 2);
  OnlineOptions opts;
  opts.window = Millis(500);
  OnlineTraceWeaver online(s.graph, opts);
  std::vector<WindowResult> all;
  for (const Span& span : s.spans) {
    online.Ingest(span);
    for (auto& w : online.Advance(span.client_recv)) {
      all.push_back(std::move(w));
    }
  }
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_EQ(all[i].window_start, all[i - 1].window_end);
  }
}

TEST(Online, FlushOnEmptyIsNoop) {
  Stream s = MakeStream(100, 1);
  OnlineTraceWeaver online(s.graph);
  EXPECT_TRUE(online.Flush().empty());
  EXPECT_TRUE(online.Advance(Seconds(100)).empty());
}

TEST(Online, TailSamplingSelectsCompleteTraces) {
  // The headline use case: keep only traces above a latency threshold.
  Stream s = MakeStream(200, 3);
  OnlineOptions opts;
  opts.window = Seconds(1);
  OnlineTraceWeaver online(s.graph, opts);
  for (const Span& span : s.spans) {
    online.Ingest(span);
    online.Advance(span.client_recv);
  }
  online.Flush();

  TraceForest forest(s.spans, online.assignment());
  // Pick the slowest 5% of traces; each sampled trace must be a proper
  // multi-span tree (root + descendants), not an isolated span.
  std::vector<std::pair<DurationNs, std::size_t>> latencies;
  for (std::size_t r : forest.roots()) {
    const Span& root = forest.span_of(forest.nodes()[r]);
    if (!root.IsRoot()) continue;  // Unmapped fragments.
    latencies.push_back({forest.EndToEndLatency(r), r});
  }
  std::sort(latencies.rbegin(), latencies.rend());
  const std::size_t keep = std::max<std::size_t>(1, latencies.size() / 20);
  for (std::size_t i = 0; i < keep; ++i) {
    EXPECT_GT(forest.SubtreeSize(latencies[i].second), 1u);
  }
}

TEST(Online, WatermarkRegressionClampsAndCounts) {
  Stream s = MakeStream(150, 2);
  OnlineOptions opts;
  opts.window = Millis(500);
  OnlineTraceWeaver online(s.graph, opts);
  for (const Span& span : s.spans) online.Ingest(span);

  const TimeNs high = Seconds(1);
  online.Advance(high);
  EXPECT_EQ(online.high_watermark(), high);
  EXPECT_EQ(online.stats().watermark_regressions, 0u);

  // A regressing watermark is clamped: the grid never rolls back, the
  // regression is counted, and already-closed windows stay closed.
  const std::size_t closed_before = online.stats().windows_closed;
  online.Advance(Millis(200));
  EXPECT_EQ(online.high_watermark(), high);
  EXPECT_EQ(online.stats().watermark_regressions, 1u);
  EXPECT_EQ(online.stats().windows_closed, closed_before);

  // Advancing past the old high-water mark resumes normal progress.
  const auto results = online.Advance(Seconds(100));
  EXPECT_EQ(online.stats().watermark_regressions, 1u);
  EXPECT_GT(results.size(), 0u);
}

TEST(Online, SingleCoveringWindowFlushMatchesBatchBitIdentical) {
  // A clean in-order stream with no pressure, closed as one covering
  // window, must reproduce the batch reconstruction exactly.
  Stream s = MakeStream(200, 2);
  OnlineOptions opts;
  opts.window = Seconds(60);  // Covers the whole stream.
  OnlineTraceWeaver online(s.graph, opts);
  for (const Span& span : s.spans) online.Ingest(span);
  online.Flush();

  // Batch assignments carry an explicit kInvalidSpanId entry for every
  // unmapped span; the online map holds only real commitments. Compare
  // the mapped links, which must match exactly.
  TraceWeaver batch(s.graph);
  ParentAssignment expected;
  for (const auto& [id, parent] : batch.Reconstruct(s.spans).assignment) {
    if (parent != kInvalidSpanId) expected[id] = parent;
  }
  EXPECT_EQ(online.assignment(), expected);
}

TEST(Online, MultiWindowBitIdenticalAcrossThreadCounts) {
  // The online pipeline inherits the batch engine's determinism: the
  // committed map is bit-identical for any worker-thread count (run
  // under TSan in the verify suite).
  Stream s = MakeStream(200, 3);
  const auto run = [&](std::size_t threads) {
    OnlineOptions opts;
    opts.window = Millis(800);
    opts.weaver.num_threads = threads;
    OnlineTraceWeaver online(s.graph, opts);
    for (const Span& span : s.spans) {
      online.Ingest(span);
      online.Advance(span.client_recv);
    }
    online.Flush();
    return online.assignment();
  };
  const ParentAssignment serial = run(1);
  const ParentAssignment parallel = run(4);
  EXPECT_EQ(serial, parallel);
  EXPECT_GT(serial.size(), 0u);
}

TEST(Online, ShiftedHandlerDelayGoesBackToEm) {
  // A steady HotelReservation stream whose frontend /hotels response gap
  // grows by 300 us halfway through (the handler's AnomalySpec switched
  // on for every request). Before the shift the carried model keeps
  // passing the fit check; after it the key fails the check and is refit
  // by EM, so the carried mixture follows the new delay instead of the
  // stale one.
  sim::AppSpec app = sim::MakeHotelReservationApp();
  sim::IsolatedReplayOptions iso;
  iso.requests_per_root = 15;
  const CallGraph graph =
      InferCallGraph(sim::RunIsolatedReplay(app, iso).spans);
  sim::AppSpec shifted_app = app;
  sim::HandlerSpec& hotels =
      shifted_app.services.at("frontend").handlers.at("/hotels");
  hotels.anomaly.probability = 1.0;
  hotels.anomaly.extra = Micros(300);

  sim::OpenLoopOptions load;
  load.requests_per_sec = 200;
  load.duration = Seconds(3);
  load.seed = 21;
  std::vector<Span> before = sim::RunOpenLoop(app, load).spans;
  load.seed = 22;
  std::vector<Span> after = sim::RunOpenLoop(shifted_app, load).spans;
  // The second half starts after the first ends, with fresh ids.
  SpanId id_offset = 0;
  TraceId trace_offset = 0;
  TimeNs end = 0;
  for (const Span& span : before) {
    id_offset = std::max(id_offset, span.id);
    trace_offset = std::max(trace_offset, span.true_trace);
    end = std::max(end, span.client_recv);
  }
  const TimeNs time_offset = end + Millis(50);
  for (Span& span : after) {
    span.id += id_offset;
    if (span.true_parent != kInvalidSpanId) span.true_parent += id_offset;
    span.true_trace += trace_offset;
    span.client_send += time_offset;
    span.server_recv += time_offset;
    span.server_send += time_offset;
    span.client_recv += time_offset;
  }
  std::vector<Span> stream = before;
  stream.insert(stream.end(), after.begin(), after.end());
  std::sort(stream.begin(), stream.end(), [](const Span& a, const Span& b) {
    return a.client_recv < b.client_recv;
  });

  obs::MetricsRegistry reg;
  OnlineOptions opts;
  opts.window = Millis(500);
  opts.weaver.metrics = &reg;
  OnlineTraceWeaver online(graph, opts);
  const ServiceInstance frontend{"frontend", 0};
  const DelayKey gap = DelayKey::ResponseGap("frontend", "/hotels");
  const auto carried_mean = [&]() {
    const GaussianMixture* g = online.delay_models().at(frontend).Find(gap);
    if (g == nullptr) {
      ADD_FAILURE() << "no carried response-gap distribution";
      return -1.0;
    }
    double mean = 0.0;
    for (const GmmComponent& c : g->components()) mean += c.weight * c.mean;
    return mean;
  };
  double mean_before_shift = -1.0;
  for (const Span& span : stream) {
    online.Ingest(span);
    online.Advance(span.client_recv);
    // Last look at the carried model before a post-shift window closes.
    if (span.client_recv < time_offset &&
        online.delay_models().count(frontend) > 0) {
      mean_before_shift = carried_mean();
    }
  }
  ASSERT_GT(reg.Snapshot().Value("tw_gmm_fits_reused_total"), 0);
  online.Flush();

  // Response gap ~LogNormal(200 us) before, +300 us after.
  EXPECT_GT(mean_before_shift, 0.0);
  EXPECT_LT(mean_before_shift, static_cast<double>(Micros(300)));
  EXPECT_GT(carried_mean(), static_cast<double>(Micros(400)));

  // Accuracy after the shift stays above a floor (measured: ~0.97 on the
  // steady half, ~0.96 on the shifted half).
  const double acc_before =
      Evaluate(before, online.assignment()).TraceAccuracy();
  const double acc_after = Evaluate(after, online.assignment()).TraceAccuracy();
  EXPECT_GE(acc_after, 0.9) << "before shift " << acc_before;
}

}  // namespace
}  // namespace traceweaver
