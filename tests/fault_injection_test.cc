// Fault-injection robustness tests: the sim::InjectFaults harness is
// deterministic, the full pipeline (validate -> reconstruct -> evaluate)
// survives heavily corrupted input without crashing, accuracy degrades
// monotonically (within tolerance) as corruption grows, and the run
// report carries the sanitized/quarantined counts.
#include "sim/fault_injector.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "callgraph/inference.h"
#include "collector/capture.h"
#include "core/accuracy.h"
#include "core/trace_weaver.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "sim/apps.h"
#include "sim/workload.h"
#include "trace/span_validator.h"

namespace traceweaver {
namespace {

struct Pipeline {
  std::vector<Span> spans;
  CallGraph graph;
};

Pipeline BuildPipeline(double rps = 150, double seconds = 2) {
  Pipeline p;
  sim::IsolatedReplayOptions iso;
  iso.requests_per_root = 20;
  p.graph = InferCallGraph(
      collector::CaptureRoundTrip(sim::RunIsolatedReplay(
          sim::MakeHotelReservationApp(), iso).spans));
  sim::OpenLoopOptions load;
  load.requests_per_sec = rps;
  load.duration = Seconds(seconds);
  load.seed = 31;
  p.spans = collector::CaptureRoundTrip(
      sim::RunOpenLoop(sim::MakeHotelReservationApp(), load).spans);
  return p;
}

double AccuracyUnderFaults(const Pipeline& p, const sim::FaultSpec& spec,
                           obs::MetricsRegistry* registry = nullptr) {
  std::vector<Span> corrupted = sim::InjectFaults(p.spans, spec);
  SpanValidator validator({.metrics = registry});
  std::vector<Span> clean = validator.Sanitize(std::move(corrupted));
  validator.Finish();
  TraceWeaver weaver(p.graph);
  return Evaluate(clean, weaver.Reconstruct(clean).assignment)
      .TraceAccuracy();
}

TEST(FaultInjector, IsDeterministicForSameSeed) {
  const Pipeline p = BuildPipeline();
  sim::FaultSpec spec;
  spec.drop_rate = 0.1;
  spec.duplicate_rate = 0.1;
  spec.skew_stddev_ns = 1'000'000;
  spec.garble_rate = 0.05;
  spec.seed = 7;

  sim::FaultStats a_stats, b_stats;
  const std::vector<Span> a = sim::InjectFaults(p.spans, spec, &a_stats);
  const std::vector<Span> b = sim::InjectFaults(p.spans, spec, &b_stats);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a_stats.dropped, b_stats.dropped);
  EXPECT_EQ(a_stats.garbled, b_stats.garbled);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].client_send, b[i].client_send);
    EXPECT_EQ(a[i].caller, b[i].caller);
  }

  // A different seed must actually change the stream.
  spec.seed = 8;
  const std::vector<Span> c = sim::InjectFaults(p.spans, spec);
  bool differs = a.size() != c.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].id != c[i].id || a[i].client_send != c[i].client_send;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultInjector, StatsAccountForEveryRecord) {
  const Pipeline p = BuildPipeline();
  sim::FaultSpec spec;
  spec.drop_rate = 0.2;
  spec.duplicate_rate = 0.1;
  sim::FaultStats stats;
  const std::vector<Span> out = sim::InjectFaults(p.spans, spec, &stats);
  EXPECT_EQ(stats.input, p.spans.size());
  EXPECT_EQ(stats.output, out.size());
  EXPECT_EQ(stats.output, stats.input - stats.dropped + stats.duplicated);
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_GT(stats.duplicated, 0u);
}

TEST(FaultInjector, InactiveSpecIsIdentity) {
  const Pipeline p = BuildPipeline();
  const sim::FaultSpec spec;  // All rates zero.
  EXPECT_FALSE(spec.Active());
  const std::vector<Span> out = sim::InjectFaults(p.spans, spec);
  ASSERT_EQ(out.size(), p.spans.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].id, p.spans[i].id);
    EXPECT_EQ(out[i].client_send, p.spans[i].client_send);
  }
}

TEST(FaultInjection, PipelineSurvivesHeavyCorruption) {
  // Acceptance scenario: 10% drops + 10% duplicates + 1ms cross-vantage
  // clock skew + garbling. The pipeline must complete and report the
  // sanitized/quarantined counts in the run report.
  const Pipeline p = BuildPipeline();
  sim::FaultSpec spec;
  spec.drop_rate = 0.10;
  spec.duplicate_rate = 0.10;
  spec.skew_stddev_ns = 1'000'000;  // 1ms.
  spec.garble_rate = 0.05;

  obs::MetricsRegistry registry;
  const double accuracy = AccuracyUnderFaults(p, spec, &registry);
  EXPECT_GE(accuracy, 0.0);  // Completing without a crash is the point.
  EXPECT_LE(accuracy, 1.0);

  const obs::RunReport report = obs::BuildRunReport(registry.Snapshot());
  EXPECT_GT(report.Get("ingest.input"), 0);
  EXPECT_GT(report.Get("ingest.repaired") + report.Get("ingest.quarantined"),
            0);
  EXPECT_EQ(report.Get("ingest.input"),
            report.Get("ingest.accepted") + report.Get("ingest.repaired") +
                report.Get("ingest.quarantined"));
  // 1ms skew across vantage points must surface a slack suggestion.
  EXPECT_GT(report.Get("ingest.suggested_slack_ns"), 0);

  const std::string json = obs::RunReportJson(report);
  EXPECT_NE(json.find("\"ingest\":"), std::string::npos);
  EXPECT_NE(json.find("\"quarantined\":"), std::string::npos);
}

TEST(FaultInjection, AccuracyDegradesRoughlyMonotonically) {
  // Fig. 10-style check: more corruption should never *help* much. Allow
  // a small tolerance since dropping spans can remove hard cases.
  const Pipeline p = BuildPipeline();
  std::vector<double> accuracy;
  for (const double rate : {0.0, 0.01, 0.05, 0.10}) {
    sim::FaultSpec spec;
    spec.drop_rate = rate;
    spec.duplicate_rate = rate;
    accuracy.push_back(AccuracyUnderFaults(p, spec));
  }
  EXPECT_GT(accuracy[0], 0.85);
  for (std::size_t i = 1; i < accuracy.size(); ++i) {
    EXPECT_LE(accuracy[i], accuracy[0] + 0.05)
        << "corruption level " << i << " should not beat clean input";
  }
  // Heavy corruption must cost something relative to clean input.
  EXPECT_LT(accuracy.back(), accuracy.front());
}

TEST(FaultInjection, StrictModeQuarantinesGarbledSpans) {
  const Pipeline p = BuildPipeline();
  sim::FaultSpec spec;
  spec.garble_rate = 0.10;
  std::vector<Span> corrupted = sim::InjectFaults(p.spans, spec);

  SpanValidator validator({.mode = IngestMode::kStrict});
  const std::vector<Span> kept = validator.Sanitize(std::move(corrupted));
  const IngestStats& st = validator.Finish();
  EXPECT_GT(st.quarantined, 0u);
  EXPECT_EQ(st.repaired, 0u);  // Strict never modifies.
  EXPECT_EQ(kept.size(), st.Kept());
  // Everything kept is internally consistent.
  for (const Span& s : kept) {
    EXPECT_TRUE(TimestampsConsistent(s));
    EXPECT_FALSE(s.caller.empty());
  }
}

}  // namespace
}  // namespace traceweaver
