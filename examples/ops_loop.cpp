// The operations lifecycle around TraceWeaver: reconstruct continuously,
// watch the learned delay model for drift (the app was redeployed), relearn
// when drift fires, and localize what changed with regression analysis.
//
//   day 1:  learn call graph + reconstruct; delay model fits traffic.
//   day 2:  a deployment makes svc-b 3 ms slower. The KS drift detector
//           flags the model as stale; the operator re-learns and the
//           regression report pins the shift on svc-b's self time.
//
// The loop also keeps a metrics registry plugged into the weaver and,
// when --metrics-out=FILE is given, dumps a Prometheus text snapshot to
// FILE after every reconstruction pass -- the file a node_exporter
// textfile collector (or any scraper) would pick up in a real
// deployment. Without the flag nothing is written (so the example never
// litters the working tree with runtime dumps).
//
// The final act replays day-2 traffic through the resilient streaming mode
// (core/online.h): bounded span buffer, overload degradation ladder and a
// checkpoint/restore round trip, all sharing the same registry.
//
// Knobs (see examples/README.md):
//   --monitor-window=N     traces per quality-monitor window (default 256)
//   --min-reference=N      reference traces before drift checks (512)
//   --online-window-ms=N   streaming tumbling-window width (default 500)
//   --deadline-ms=N        per-window close deadline; drives the overload
//                          ladder (default 0 = off)
//   --max-buffer-spans=N   streaming span-buffer budget (default 0 = off)
//   --checkpoint=FILE      save/restore the streaming state through FILE
//   --metrics-out=FILE     write Prometheus text snapshots to FILE
//                          (default: no file output)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "analysis/regression.h"
#include "analysis/trace_query.h"
#include "callgraph/inference.h"
#include "core/accuracy.h"
#include "core/drift.h"
#include "core/online.h"
#include "core/trace_weaver.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/quality.h"
#include "sim/apps.h"
#include "sim/workload.h"

using namespace traceweaver;

namespace {

std::vector<Span> Capture(const sim::AppSpec& app, std::uint64_t seed) {
  sim::OpenLoopOptions load;
  load.requests_per_sec = 250;
  load.duration = Seconds(4);
  load.seed = seed;
  return sim::RunOpenLoop(app, load).spans;
}

/// Extracts per-key gap samples from a reconstruction, for drift checks.
std::map<DelayKey, std::vector<double>> GapsFrom(
    const CallGraph& graph, const std::vector<Span>& spans,
    const ParentAssignment& assignment) {
  std::map<DelayKey, std::vector<double>> gaps;
  std::map<SpanId, const Span*> by_id;
  for (const Span& s : spans) by_id[s.id] = &s;

  // Group children by (predicted) parent, ordered by send time.
  std::map<SpanId, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    auto it = assignment.find(s.id);
    if (it != assignment.end() && it->second != kInvalidSpanId) {
      children[it->second].push_back(&s);
    }
  }
  for (auto& [parent_id, kids] : children) {
    auto pit = by_id.find(parent_id);
    if (pit == by_id.end()) continue;
    const Span& p = *pit->second;
    const InvocationPlan* plan = graph.PlanFor({p.callee, p.endpoint});
    if (plan == nullptr || plan->Empty()) continue;
    std::sort(kids.begin(), kids.end(), [](const Span* a, const Span* b) {
      return a->client_send < b->client_send;
    });
    // First-call gap only (enough for a drift signal on this app).
    gaps[DelayKey{p.callee, p.endpoint, 0, 0}].push_back(
        static_cast<double>(kids.front()->client_send - p.server_recv));
  }
  return gaps;
}

/// Dumps the registry as Prometheus text exposition to `path`,
/// overwriting the previous snapshot (textfile-collector style). No-op
/// when no --metrics-out path was given.
void DumpMetrics(const obs::MetricsRegistry& registry,
                 const std::string& path) {
  if (path.empty()) return;
  const std::string text = obs::PrometheusText(registry.Snapshot());
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::printf("  [metrics snapshot -> %s, %zu bytes]\n", path.c_str(),
                text.size());
  }
}

struct OpsFlags {
  std::size_t monitor_window = 256;
  std::size_t min_reference = 512;
  long long online_window_ms = 500;
  long long deadline_ms = 0;
  std::size_t max_buffer_spans = 0;
  std::string checkpoint_file;
  std::string metrics_out;  ///< "" = no Prometheus file output.
};

OpsFlags ParseOpsFlags(int argc, char** argv) {
  OpsFlags flags;
  const auto num = [](const std::string& arg, std::size_t prefix) {
    return std::strtoull(arg.c_str() + prefix, nullptr, 10);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--monitor-window=", 0) == 0) {
      flags.monitor_window = static_cast<std::size_t>(num(arg, 17));
      if (flags.monitor_window == 0) flags.monitor_window = 1;
    } else if (arg.rfind("--min-reference=", 0) == 0) {
      flags.min_reference = static_cast<std::size_t>(num(arg, 16));
    } else if (arg.rfind("--online-window-ms=", 0) == 0) {
      flags.online_window_ms = static_cast<long long>(num(arg, 19));
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      flags.deadline_ms = static_cast<long long>(num(arg, 14));
    } else if (arg.rfind("--max-buffer-spans=", 0) == 0) {
      flags.max_buffer_spans = static_cast<std::size_t>(num(arg, 19));
    } else if (arg.rfind("--checkpoint=", 0) == 0) {
      flags.checkpoint_file = arg.substr(13);
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      flags.metrics_out = arg.substr(14);
    } else {
      std::fprintf(stderr, "ops_loop: unknown flag %s (ignored)\n",
                   arg.c_str());
    }
  }
  return flags;
}

}  // namespace

int main(int argc, char** argv) {
  const OpsFlags flags = ParseOpsFlags(argc, argv);
  sim::AppSpec v1 = sim::MakeLinearChainApp();

  // --- Day 1: learn everything from the current deployment. ---
  sim::IsolatedReplayOptions iso;
  iso.requests_per_root = 20;
  CallGraph graph = InferCallGraph(sim::RunIsolatedReplay(v1, iso).spans);
  // Use every hardware thread; the parallel pipeline reproduces the serial
  // reconstruction bit-for-bit, so ops tooling can scale freely. Metrics
  // accumulate across passes in one registry that outlives the weaver.
  obs::MetricsRegistry metrics;
  TraceWeaverOptions weaver_opts;
  weaver_opts.num_threads =
      std::max(1u, std::thread::hardware_concurrency());
  weaver_opts.metrics = &metrics;
  // Trace-quality watchdog: every reconstruction also grades its traces,
  // and a rolling confidence monitor KS-tests each window against the
  // day-1 reference -- tw_quality_monitor_* lands in the same registry, so
  // the drift alarm rides the normal Prometheus scrape.
  weaver_opts.compute_quality = true;
  TraceWeaver weaver(graph, weaver_opts);
  obs::QualityMetrics quality_metrics(metrics);  // Same (idempotent) slots.
  obs::QualityMonitor::Options monitor_opts;
  monitor_opts.window = flags.monitor_window;
  monitor_opts.min_reference = flags.min_reference;
  obs::QualityMonitor quality_monitor(monitor_opts, &quality_metrics);

  const auto day1 = Capture(v1, 501);
  const auto rec1 = weaver.Reconstruct(day1);
  quality_monitor.RecordReport(rec1.quality);
  std::printf("day 1: %.1f%% of traces reconstructed end-to-end\n",
              Evaluate(day1, rec1.assignment).TraceAccuracy() * 100.0);
  std::printf("       mean trace confidence %.3f over %zu traces "
              "(reference %s)\n",
              rec1.quality.MeanTraceConfidence(), rec1.quality.traces.size(),
              quality_monitor.ReferenceReady() ? "ready" : "warming up");
  DumpMetrics(metrics, flags.metrics_out);

  // Fit a reference delay model from day-1 gaps.
  DelayModel model;
  for (const auto& [key, samples] : GapsFrom(graph, day1, rec1.assignment)) {
    model.Refit(key, samples, {});
  }

  // --- Day 2: svc-a's handler got 3 ms slower before calling svc-b. ---
  sim::AppSpec v2 = v1;
  v2.services["svc-a"].handlers["/a"].stages[0].pre_delay =
      sim::DelaySpec::Normal(Millis(3), Micros(300));

  const auto day2 = Capture(v2, 502);
  const auto rec2 = weaver.Reconstruct(day2);
  quality_monitor.RecordReport(rec2.quality);
  std::printf("day 2: mean trace confidence %.3f; quality windows: %zu "
              "closed, drift %s\n",
              rec2.quality.MeanTraceConfidence(),
              quality_monitor.results().size(),
              quality_monitor.AnyDrift() ? "DETECTED" : "none");
  for (const auto& w : quality_monitor.results()) {
    if (!w.drifted) continue;
    std::printf("       confidence window drifted: KS=%.3f p=%.4f "
                "mean=%.3f over %zu traces\n",
                w.statistic, w.p_value, w.mean_confidence, w.n);
  }
  DumpMetrics(metrics, flags.metrics_out);

  const auto findings =
      DetectDrift(model, GapsFrom(graph, day2, rec2.assignment));
  std::printf("day 2: drift check over %zu delay keys:\n", findings.size());
  for (const auto& f : findings) {
    std::printf("  %s[%s] stage %d: KS=%.3f p=%.4f %s\n",
                f.key.service.c_str(), f.key.endpoint.c_str(), f.key.stage,
                f.ks.statistic, f.ks.p_value,
                f.drifted ? "DRIFTED -> relearn" : "stable");
  }

  if (AnyDrift(findings)) {
    // --- Localize what changed. ---
    TraceQuery before(day1, rec1.assignment);
    TraceQuery after(day2, rec2.assignment);
    const auto report = CompareServiceLatencies(before, before.traces(),
                                                after, after.traces());
    std::printf("regression report (self time, most significant first):\n");
    for (const auto& s : report.shifts) {
      std::printf("  %-8s %+6.2fms (p=%.4f, d=%.2f)\n", s.service.c_str(),
                  s.delta_ms, s.p_value, s.effect_size);
    }
    std::printf("=> the deployment added processing time at the top "
                "regression; the delay model should be re-learned before "
                "further reconstruction.\n");
  }

  // --- Streaming: day-2 traffic replayed through the resilient online
  // mode. Completion-ordered ingest, bounded buffer, overload ladder; the
  // tw_online_* family lands in the same registry as everything above.
  OnlineOptions online;
  online.window = Millis(flags.online_window_ms);
  online.margin = Millis(100);
  online.window_close_deadline = Millis(flags.deadline_ms);
  online.max_buffer_spans = flags.max_buffer_spans;
  online.weaver = weaver_opts;
  online.weaver.compute_quality = false;
  online.metrics = &metrics;
  OnlineTraceWeaver online_weaver(graph, online);

  std::vector<Span> stream = day2;
  std::sort(stream.begin(), stream.end(), [](const Span& a, const Span& b) {
    return a.client_recv != b.client_recv ? a.client_recv < b.client_recv
                                          : a.id < b.id;
  });
  TimeNs watermark = 0;
  for (const Span& s : stream) {
    online_weaver.Ingest(s);
    watermark = std::max(watermark, s.client_send);
    online_weaver.Advance(watermark);
  }
  online_weaver.Flush();
  const OnlineTraceWeaver::Stats& st = online_weaver.stats();
  std::printf(
      "streaming: %llu spans -> %llu windows, %llu parents committed "
      "(shed %llu windows, ladder peak level %d, %llu late / %llu "
      "grafted); %.1f%% of traces end-to-end\n",
      static_cast<unsigned long long>(st.ingested),
      static_cast<unsigned long long>(st.windows_closed),
      static_cast<unsigned long long>(st.parents_committed),
      static_cast<unsigned long long>(st.windows_shed),
      online_weaver.degradation_level(),
      static_cast<unsigned long long>(st.late_spans),
      static_cast<unsigned long long>(st.late_grafted),
      Evaluate(day2, online_weaver.assignment()).TraceAccuracy() * 100.0);

  if (!flags.checkpoint_file.empty()) {
    // Checkpoint/restore round trip: a fresh weaver restored from the file
    // holds the same live state, so it saves the same bytes. (Committed
    // edges are not carried over: they already left in WindowResults.)
    std::ostringstream saved;
    online_weaver.SaveCheckpoint(saved);
    {
      std::ofstream out(flags.checkpoint_file,
                        std::ios::binary | std::ios::trunc);
      out << saved.str();
    }
    OnlineTraceWeaver restored(graph, online);
    std::ifstream in(flags.checkpoint_file, std::ios::binary);
    std::string error;
    if (restored.LoadCheckpoint(in, &error)) {
      std::ostringstream resaved;
      restored.SaveCheckpoint(resaved);
      std::printf("checkpoint: %s round-tripped, %zu bytes of live state "
                  "(%s)\n",
                  flags.checkpoint_file.c_str(), saved.str().size(),
                  resaved.str() == saved.str() ? "identical" : "MISMATCH");
    } else {
      std::printf("checkpoint: restore failed: %s\n", error.c_str());
    }
  }
  DumpMetrics(metrics, flags.metrics_out);
  return 0;
}
