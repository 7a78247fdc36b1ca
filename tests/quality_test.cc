// Trace-quality subsystem tests: calibration regression against simulator
// ground truth, determinism of the quality layer (bit-identical output
// with the subsystem on or off and across thread counts), the windowed
// drift monitor, the explain drill-down, and the §6.3.2 confidence edge
// cases.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "callgraph/inference.h"
#include "collector/capture.h"
#include "core/explain.h"
#include "core/trace_weaver.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/quality.h"
#include "sim/apps.h"
#include "sim/workload.h"
#include "test_helpers.h"

namespace traceweaver {
namespace {

using testing::MakeSpan;
using testing::SimpleGraph;

struct Pipeline {
  std::vector<Span> spans;
  CallGraph graph;
};

Pipeline HotelPipeline(double rps, double seconds,
                       collector::CaptureFaults faults = {},
                       std::uint64_t seed = 31) {
  Pipeline p;
  const sim::AppSpec app = sim::MakeHotelReservationApp();
  sim::IsolatedReplayOptions iso;
  iso.requests_per_root = 20;
  p.graph = InferCallGraph(
      collector::CaptureRoundTrip(sim::RunIsolatedReplay(app, iso).spans));
  sim::OpenLoopOptions load;
  load.requests_per_sec = rps;
  load.duration = Seconds(seconds);
  load.seed = seed;
  p.spans = collector::CaptureRoundTrip(sim::RunOpenLoop(app, load).spans,
                                        faults);
  return p;
}

/// Clock jitter plus event drops: the regime where reconstruction makes
/// real mistakes, so confidence has something to predict.
collector::CaptureFaults MildFaults() {
  collector::CaptureFaults faults;
  faults.jitter_stddev = Micros(100);
  faults.drop_probability = 0.005;
  return faults;
}

TraceWeaverOutput Reconstruct(const Pipeline& p, bool quality,
                              std::size_t threads = 1) {
  TraceWeaverOptions opts;
  opts.compute_quality = quality;
  opts.num_threads = threads;
  TraceWeaver weaver(p.graph, opts);
  return weaver.Reconstruct(p.spans);
}

// ---------------------------------------------------------------------------
// Calibration regression (ISSUE acceptance: Pearson >= 0.5, ECE <= 0.15 on
// the seeded workload). The faulted run measures pearson ~0.80 / ece
// ~0.06; the bounds leave slack so a real regression trips the test but
// benign score-model tweaks do not. Everything is seeded, so the numbers
// are reproducible.

TEST(QualityCalibration, TraceConfidencePredictsCorrectness) {
  const Pipeline p = HotelPipeline(200, 3, MildFaults());
  const TraceWeaverOutput out = Reconstruct(p, /*quality=*/true);
  ASSERT_FALSE(out.quality.traces.empty());

  const obs::CalibrationResult cal =
      obs::CalibrateTraces(p.spans, out.quality, out.assignment);
  EXPECT_GT(cal.samples, 500u);
  // The faulted regime has real error mass on both series, so the
  // correlation must be defined (the clean-run guard must not fire here).
  EXPECT_TRUE(cal.pearson_defined);
  EXPECT_GE(cal.pearson, 0.5);
  EXPECT_LE(cal.ece, 0.15);
  EXPECT_LE(cal.brier, 0.15);

  // The reliability diagram renders every non-empty bin plus the footer.
  const std::string diagram = cal.ReliabilityDiagram();
  EXPECT_NE(diagram.find("pearson"), std::string::npos);
  EXPECT_NE(diagram.find("ece"), std::string::npos);
}

// On the clean workload reconstruction is near-perfect, so per-assignment
// confidence must sit near 1 and match the realized accuracy (ECE);
// correlation is not informative without error mass, so it is not pinned
// here -- the trace-level test above covers the faulted regime.
TEST(QualityCalibration, AssignmentConfidenceMatchesCleanAccuracy) {
  const Pipeline p = HotelPipeline(200, 3);
  const TraceWeaverOutput out = Reconstruct(p, /*quality=*/true);
  const obs::CalibrationResult cal =
      obs::CalibrateAssignments(p.spans, out.containers, out.quality);
  EXPECT_GT(cal.samples, 1000u);
  EXPECT_LE(cal.ece, 0.05);
  EXPECT_GT(out.quality.MeanAssignmentConfidence(), 0.9);
}

// Near-constant correctness (clean run) makes Pearson sampling noise; the
// harness must mark it undefined instead of reporting a misleading value,
// and the reliability diagram must say so.
TEST(QualityCalibration, PearsonUndefinedOnDegenerateCleanRun) {
  const Pipeline p = HotelPipeline(200, 3);
  const TraceWeaverOutput out = Reconstruct(p, /*quality=*/true);
  const obs::CalibrationResult cal =
      obs::CalibrateTraces(p.spans, out.quality, out.assignment);
  ASSERT_GT(cal.samples, 0u);
  // The clean run reconstructs nearly everything correctly with uniformly
  // high confidence: one of the two series is near-constant.
  EXPECT_FALSE(cal.pearson_defined);
  EXPECT_EQ(cal.pearson, 0.0);
  EXPECT_NE(cal.ReliabilityDiagram().find("pearson n/a"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Determinism: quality is observation-only and single-threaded post-hoc.

TEST(QualityDeterminism, AssignmentsBitIdenticalWithQualityOnOrOff) {
  const Pipeline p = HotelPipeline(150, 2);
  const TraceWeaverOutput off = Reconstruct(p, /*quality=*/false);
  const TraceWeaverOutput on = Reconstruct(p, /*quality=*/true);
  EXPECT_EQ(off.assignment, on.assignment);
  EXPECT_TRUE(off.quality.assignments.empty());
  EXPECT_FALSE(on.quality.assignments.empty());
}

TEST(QualityDeterminism, QualityReportIdenticalAcrossThreadCounts) {
  const Pipeline p = HotelPipeline(150, 2);
  const TraceWeaverOutput serial = Reconstruct(p, /*quality=*/true, 1);
  const TraceWeaverOutput parallel = Reconstruct(p, /*quality=*/true, 8);
  ASSERT_EQ(serial.assignment, parallel.assignment);
  ASSERT_EQ(serial.quality.assignments.size(),
            parallel.quality.assignments.size());
  for (std::size_t i = 0; i < serial.quality.assignments.size(); ++i) {
    const obs::AssignmentQuality& a = serial.quality.assignments[i];
    const obs::AssignmentQuality& b = parallel.quality.assignments[i];
    EXPECT_EQ(a.parent, b.parent);
    // Bitwise equality: the quality pass must not depend on scheduling.
    EXPECT_EQ(a.confidence, b.confidence);
    EXPECT_EQ(a.posterior, b.posterior);
    EXPECT_EQ(a.entropy, b.entropy);
  }
  ASSERT_EQ(serial.quality.traces.size(), parallel.quality.traces.size());
  for (std::size_t i = 0; i < serial.quality.traces.size(); ++i) {
    EXPECT_EQ(serial.quality.traces[i].root, parallel.quality.traces[i].root);
    EXPECT_EQ(serial.quality.traces[i].confidence,
              parallel.quality.traces[i].confidence);
    EXPECT_EQ(serial.quality.traces[i].grade, parallel.quality.traces[i].grade);
  }
}

// ---------------------------------------------------------------------------
// Report aggregates and §6.3.2 edge cases.

TEST(QualityReport, ConfidenceByServiceOmitsServicesWithoutAssignments) {
  // One A:/a parent with one B child: A has an assignment; B's spans are
  // leaves (no plan), so B must be absent from the map -- not a vacuous 1.
  Pipeline p;
  p.graph = SimpleGraph();
  p.spans = {
      MakeSpan(1, "client", "A", "/a", Millis(0), Millis(10), Micros(100), 0, 1),
      MakeSpan(2, "A", "B", "/b", Millis(2), Millis(8), Micros(100), 1, 1),
  };
  const TraceWeaverOutput out = Reconstruct(p, /*quality=*/true);
  const std::map<std::string, double> by_service = out.ConfidenceByService();
  EXPECT_EQ(by_service.count("A"), 1u);
  EXPECT_EQ(by_service.count("B"), 0u);

  const std::map<std::string, double> mean =
      out.quality.MeanConfidenceByService();
  EXPECT_EQ(mean.count("A"), 1u);
  EXPECT_EQ(mean.count("B"), 0u);
}

TEST(QualityReport, MeansAndWorstServices) {
  obs::QualityReport report;
  obs::AssignmentQuality a;
  a.service = "fast";
  a.confidence = 0.9;
  report.assignments.push_back(a);
  a.service = "slow";
  a.confidence = 0.1;
  report.assignments.push_back(a);
  EXPECT_NEAR(report.MeanAssignmentConfidence(), 0.5, 1e-12);

  const auto worst = report.WorstServices(1);
  ASSERT_EQ(worst.size(), 1u);
  EXPECT_EQ(worst[0].first, "slow");
  EXPECT_NEAR(worst[0].second, 0.1, 1e-12);
}

TEST(QualityReport, GradesFollowConfidenceCuts) {
  const Pipeline p = HotelPipeline(150, 2);
  const TraceWeaverOutput out = Reconstruct(p, /*quality=*/true);
  for (const obs::TraceQuality& t : out.quality.traces) {
    char expect = 'D';
    if (t.confidence >= obs::kGradeA) {
      expect = 'A';
    } else if (t.confidence >= obs::kGradeB) {
      expect = 'B';
    } else if (t.confidence >= obs::kGradeC) {
      expect = 'C';
    }
    EXPECT_EQ(t.grade, expect);
    EXPECT_LE(t.min_confidence, t.confidence + 1e-12);
  }
}

TEST(QualityMetricsExport, RecordsIntoRegistry) {
  const Pipeline p = HotelPipeline(150, 2);
  obs::MetricsRegistry registry;
  TraceWeaverOptions opts;
  opts.compute_quality = true;
  opts.metrics = &registry;
  TraceWeaver weaver(p.graph, opts);
  const TraceWeaverOutput out = weaver.Reconstruct(p.spans);

  const std::string prom = obs::PrometheusText(registry.Snapshot());
  EXPECT_NE(prom.find("tw_quality_assignments_total"), std::string::npos);
  EXPECT_NE(prom.find("tw_quality_confidence_milli"), std::string::npos);
  EXPECT_NE(prom.find("tw_quality_trace_confidence_milli"),
            std::string::npos);
  EXPECT_NE(prom.find("tw_quality_grade_total"), std::string::npos);
  EXPECT_FALSE(out.quality.traces.empty());
}

// ---------------------------------------------------------------------------
// Windowed drift monitor.

TEST(QualityMonitor, NoDriftOnStableDistribution) {
  obs::QualityMonitor::Options opts;
  opts.window = 64;
  opts.min_reference = 64;
  opts.alpha = 0.01;
  obs::QualityMonitor monitor(opts);
  // Reference: an even grid over [0, 1); the next window repeats it.
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 64; ++i) monitor.Record((i + 0.5) / 64.0);
  }
  ASSERT_TRUE(monitor.ReferenceReady());
  ASSERT_EQ(monitor.results().size(), 1u);
  EXPECT_FALSE(monitor.results()[0].drifted);
  EXPECT_FALSE(monitor.AnyDrift());
  EXPECT_GT(monitor.results()[0].p_value, 0.5);
}

TEST(QualityMonitor, DetectsConfidenceCollapse) {
  obs::QualityMonitor::Options opts;
  opts.window = 64;
  opts.min_reference = 64;
  opts.alpha = 0.01;
  obs::QualityMonitor monitor(opts);
  for (int i = 0; i < 64; ++i) monitor.Record(0.7 + 0.3 * (i + 0.5) / 64.0);
  // Confidence collapses: the next window sits far below the reference.
  for (int i = 0; i < 64; ++i) monitor.Record(0.2 * (i + 0.5) / 64.0);
  ASSERT_EQ(monitor.results().size(), 1u);
  EXPECT_TRUE(monitor.results()[0].drifted);
  EXPECT_TRUE(monitor.AnyDrift());
  EXPECT_LT(monitor.results()[0].p_value, 0.01);
  EXPECT_NEAR(monitor.results()[0].mean_confidence, 0.1, 0.01);
}

TEST(QualityMonitor, RecordsMonitorMetrics) {
  obs::MetricsRegistry registry;
  obs::QualityMetrics metrics(registry);
  obs::QualityMonitor::Options opts;
  opts.window = 16;
  opts.min_reference = 16;
  obs::QualityMonitor monitor(opts, &metrics);
  for (int i = 0; i < 48; ++i) monitor.Record((i % 16 + 0.5) / 16.0);
  EXPECT_EQ(monitor.results().size(), 2u);
  const std::string prom = obs::PrometheusText(registry.Snapshot());
  EXPECT_NE(prom.find("tw_quality_monitor_windows_total 2"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Explain drill-down.

TEST(Explain, RoundTripsOnIntegrationFixture) {
  const Pipeline p = HotelPipeline(150, 2);
  const TraceWeaverOutput base = Reconstruct(p, /*quality=*/false);

  // Pick the first mapped parent and re-run with the drill-down armed.
  SpanId target = kInvalidSpanId;
  const CandidateMapping* chosen = nullptr;
  for (const ContainerResult& c : base.containers) {
    for (const ParentResult& r : c.parents) {
      if (r.Mapped()) {
        target = r.parent;
        chosen = &r.ranked[r.chosen];
        break;
      }
    }
    if (target != kInvalidSpanId) break;
  }
  ASSERT_NE(target, kInvalidSpanId);

  ExplainCapture capture;
  TraceWeaverOptions opts;
  opts.optimizer.explain_parent = target;
  opts.optimizer.explain_out = &capture;
  TraceWeaver weaver(p.graph, opts);
  weaver.Reconstruct(p.spans);

  ASSERT_TRUE(capture.found);
  EXPECT_EQ(capture.parent, target);
  ASSERT_GE(capture.chosen_rank, 0);
  ASSERT_LT(static_cast<std::size_t>(capture.chosen_rank),
            capture.candidates.size());
  const ExplainCandidate& winner =
      capture.candidates[static_cast<std::size_t>(capture.chosen_rank)];
  EXPECT_TRUE(winner.chosen);
  // The drill-down reproduces the chosen mapping of the normal run.
  EXPECT_EQ(winner.children, chosen->children);
  // The per-position decomposition re-adds to the candidate score exactly.
  for (const ExplainCandidate& c : capture.candidates) {
    EXPECT_EQ(c.breakdown.total, c.score);
  }
}

TEST(Explain, ScoresMatchRankingUnderSamplingWithPinnedPools) {
  // Pinning every frontend -> search link empties that candidate pool, so
  // it gets no water-filled skip rate and its discrete terms fall back to
  // the sampling-adjusted defaults. The drill-down must score them with
  // the same adjustment the ranking used.
  const Pipeline p = HotelPipeline(300, 1);
  ParentAssignment pinned;
  for (const Span& s : p.spans) {
    if (s.caller == "frontend" && s.callee == "search" &&
        s.true_parent != kInvalidSpanId) {
      pinned[s.id] = s.true_parent;
    }
  }
  ASSERT_FALSE(pinned.empty());
  OptimizerOptions opts;
  opts.params.sampling_rate = 0.5;
  opts.pinned = &pinned;

  const SpanStore store(p.spans);
  std::size_t explained = 0;
  for (const ContainerView& view : store.AllViews()) {
    if (view.instance.service != "frontend") continue;
    const ContainerResult base = OptimizeContainer(view, p.graph, opts);
    for (const ParentResult& r : base.parents) {
      if (explained == 40) break;
      if (r.ranked.empty()) continue;
      ++explained;
      testing::ExpectExplainMatchesRanking(view, p.graph, opts, r.parent);
    }
  }
  EXPECT_EQ(explained, 40u);
}

TEST(Explain, JsonSchemaIsStable) {
  Pipeline p;
  p.graph = SimpleGraph();
  p.spans = {
      MakeSpan(1, "client", "A", "/a", Millis(0), Millis(10), Micros(100), 0, 1),
      MakeSpan(2, "A", "B", "/b", Millis(2), Millis(8), Micros(100), 1, 1),
  };
  ExplainCapture capture;
  TraceWeaverOptions opts;
  opts.optimizer.explain_parent = 1;
  opts.optimizer.explain_out = &capture;
  TraceWeaver weaver(p.graph, opts);
  weaver.Reconstruct(p.spans);
  ASSERT_TRUE(capture.found);

  const std::string json = ExplainJson(capture);
  EXPECT_EQ(json.find("{\"schema\":\"traceweaver.explain.v1\""), 0u);
  for (const char* key :
       {"\"parent\":", "\"service\":", "\"endpoint\":",
        "\"candidates_enumerated\":", "\"chosen_rank\":", "\"candidates\":[",
        "\"conflicts\":[", "\"rank\":", "\"score\":", "\"children\":[",
        "\"breakdown\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing key " << key;
  }
  // Balanced braces/brackets -- cheap structural sanity for the renderer.
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);

  const std::string table = ExplainTable(capture);
  EXPECT_NE(table.find("A"), std::string::npos);
  EXPECT_NE(table.find("/a"), std::string::npos);
}

TEST(Explain, UnknownParentReportsNotFound) {
  Pipeline p;
  p.graph = SimpleGraph();
  p.spans = {
      MakeSpan(1, "client", "A", "/a", Millis(0), Millis(10), Micros(100), 0, 1),
      MakeSpan(2, "A", "B", "/b", Millis(2), Millis(8), Micros(100), 1, 1),
  };
  ExplainCapture capture;
  TraceWeaverOptions opts;
  opts.optimizer.explain_parent = 999;
  opts.optimizer.explain_out = &capture;
  TraceWeaver weaver(p.graph, opts);
  weaver.Reconstruct(p.spans);
  EXPECT_FALSE(capture.found);
}

}  // namespace
}  // namespace traceweaver
