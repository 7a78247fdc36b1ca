#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "callgraph/inference.h"
#include "core/accuracy.h"
#include "core/optimizer.h"
#include "core/trace_weaver.h"
#include "obs/metrics.h"
#include "obs/pipeline_metrics.h"
#include "sim/apps.h"
#include "sim/workload.h"
#include "test_helpers.h"
#include "trace/trace_store.h"

namespace traceweaver {
namespace {

using ::traceweaver::testing::MakeSpan;

/// Two well-separated requests through A -> B: trivially reconstructable.
TEST(Optimizer, MapsTrivialPopulation) {
  std::vector<Span> spans;
  spans.push_back(MakeSpan(1, kClientCaller, "A", "/a", 0, Millis(1),
                           Micros(50), kInvalidSpanId, 1));
  spans.push_back(MakeSpan(2, "A", "B", "/b", Micros(100), Micros(800),
                           Micros(50), 1, 1));
  spans.push_back(MakeSpan(3, kClientCaller, "A", "/a", Millis(10),
                           Millis(11), Micros(50), kInvalidSpanId, 2));
  spans.push_back(MakeSpan(4, "A", "B", "/b", Millis(10) + Micros(100),
                           Millis(10) + Micros(800), Micros(50), 3, 2));

  CallGraph graph = ::traceweaver::testing::SimpleGraph();
  SpanStore store(spans);
  ContainerView view = store.ViewOf({"A", 0});
  ContainerResult result = OptimizeContainer(view, graph, {});
  ASSERT_EQ(result.parents.size(), 2u);
  ParentAssignment assignment;
  result.AppendAssignment(assignment);
  EXPECT_EQ(assignment.at(2), 1u);
  EXPECT_EQ(assignment.at(4), 3u);
  EXPECT_EQ(result.batches, 2u);
}

TEST(Optimizer, LeafHandlersAreCountedNotOptimized) {
  std::vector<Span> spans{MakeSpan(1, "x", "B", "/b", 0, 100)};
  CallGraph graph = ::traceweaver::testing::SimpleGraph();
  SpanStore store(spans);
  ContainerResult result = OptimizeContainer(store.ViewOf({"B", 0}), graph, {});
  EXPECT_EQ(result.leaf_parents, 1u);
  EXPECT_TRUE(result.parents.empty());
}

TEST(Optimizer, UnknownEndpointTreatedAsLeaf) {
  std::vector<Span> spans{MakeSpan(1, "x", "A", "/mystery", 0, 100)};
  CallGraph graph = ::traceweaver::testing::SimpleGraph();
  SpanStore store(spans);
  ContainerResult result = OptimizeContainer(store.ViewOf({"A", 0}), graph, {});
  EXPECT_EQ(result.leaf_parents, 1u);
}

TEST(Optimizer, JointOptimizationResolvesCompetition) {
  // Two overlapping parents compete for two children; the gap pattern makes
  // the correct assignment higher-scoring jointly. Parent 1 arrives early,
  // parent 3 late; children keep the arrival order.
  std::vector<Span> spans;
  spans.push_back(MakeSpan(1, kClientCaller, "A", "/a", 0, Millis(4),
                           Micros(50), kInvalidSpanId, 1));
  spans.push_back(MakeSpan(3, kClientCaller, "A", "/a", Millis(1), Millis(5),
                           Micros(50), kInvalidSpanId, 2));
  spans.push_back(MakeSpan(2, "A", "B", "/b", Micros(300), Millis(3),
                           Micros(50), 1, 1));
  spans.push_back(MakeSpan(4, "A", "B", "/b", Millis(1) + Micros(300),
                           Millis(4) + Micros(500), Micros(50), 3, 2));

  CallGraph graph = ::traceweaver::testing::SimpleGraph();
  SpanStore store(spans);
  ContainerResult result = OptimizeContainer(store.ViewOf({"A", 0}), graph, {});
  ParentAssignment assignment;
  result.AppendAssignment(assignment);
  EXPECT_EQ(assignment.at(2), 1u);
  EXPECT_EQ(assignment.at(4), 3u);
}

// --- End-to-end option toggles on a simulated app ---------------------------

struct EndToEnd {
  std::vector<Span> spans;
  CallGraph graph;
};

EndToEnd HotelAtLoad(double rps, double cache = 0.0, std::uint64_t seed = 11) {
  EndToEnd e;
  sim::AppSpec app = sim::MakeHotelReservationApp(cache);
  sim::IsolatedReplayOptions iso;
  iso.requests_per_root = 20;
  e.graph = InferCallGraph(sim::RunIsolatedReplay(app, iso).spans);
  sim::OpenLoopOptions load;
  load.requests_per_sec = rps;
  load.duration = Seconds(3);
  load.seed = seed;
  e.spans = sim::RunOpenLoop(app, load).spans;
  return e;
}

double AccuracyWith(const EndToEnd& e, const TraceWeaverOptions& opts) {
  TraceWeaver weaver(e.graph, opts);
  return Evaluate(e.spans, weaver.Reconstruct(e.spans).assignment)
      .TraceAccuracy();
}

TEST(Optimizer, HighAccuracyAtModerateLoad) {
  EndToEnd e = HotelAtLoad(300);
  EXPECT_GT(AccuracyWith(e, {}), 0.9);
}

TEST(Optimizer, AblationsDoNotBeatFullSystem) {
  EndToEnd e = HotelAtLoad(800);
  const double full = AccuracyWith(e, {});

  TraceWeaverOptions no_order;
  no_order.optimizer.use_order_constraints = false;
  TraceWeaverOptions no_iter;
  no_iter.optimizer.iterate = false;
  TraceWeaverOptions no_joint;
  no_joint.optimizer.use_joint_optimization = false;

  // Each ablation may tie on easy populations but must not beat the full
  // system by a meaningful margin.
  EXPECT_GE(full + 0.02, AccuracyWith(e, no_order));
  EXPECT_GE(full + 0.02, AccuracyWith(e, no_iter));
  EXPECT_GE(full + 0.02, AccuracyWith(e, no_joint));
}

TEST(Optimizer, DynamismHandlesCacheSkips) {
  EndToEnd e = HotelAtLoad(200, /*cache=*/0.4);
  TraceWeaverOptions opts;
  const double with_dynamism = AccuracyWith(e, opts);
  EXPECT_GT(with_dynamism, 0.6);

  TraceWeaverOptions no_dynamism;
  no_dynamism.optimizer.enable_dynamism = false;
  // Without skip handling, the parents whose rate call was skipped cannot
  // be mapped at search; accuracy must not be better.
  EXPECT_GE(with_dynamism + 0.02, AccuracyWith(e, no_dynamism));
}

TEST(Optimizer, ConfidenceCorrelatesWithMappingQuality) {
  EndToEnd e = HotelAtLoad(400);
  TraceWeaver weaver(e.graph);
  auto out = weaver.Reconstruct(e.spans);
  auto confidence = out.ConfidenceByService();
  ASSERT_FALSE(confidence.empty());
  for (const auto& [service, c] : confidence) {
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
  }
}

TEST(TraceWeaverFacade, MapMatchesReconstruct) {
  EndToEnd e = HotelAtLoad(150);
  TraceWeaver weaver(e.graph);
  MapperInput input;
  input.spans = &e.spans;
  auto mapped = weaver.Map(input);
  auto reconstructed = weaver.Reconstruct(e.spans).assignment;
  EXPECT_EQ(mapped.size(), reconstructed.size());
  std::size_t diffs = 0;
  for (const auto& [child, parent] : mapped) {
    if (reconstructed.at(child) != parent) ++diffs;
  }
  EXPECT_EQ(diffs, 0u);
}

TEST(TraceWeaverFacade, TopKAccuracyAtLeastTop1) {
  EndToEnd e = HotelAtLoad(600);
  TraceWeaver weaver(e.graph);
  auto out = weaver.Reconstruct(e.spans);
  const double top1 = TopKTraceAccuracy(e.spans, out, 1);
  const double top5 = TopKTraceAccuracy(e.spans, out, 5);
  EXPECT_GE(top5, top1);
  EXPECT_GT(top5, 0.9);
}

// --- Carried delay models (prior) -------------------------------------------

/// Every field of a ContainerResult, doubles at full precision: equal
/// strings mean byte-identical results.
std::string Fingerprint(const ContainerResult& r) {
  std::ostringstream o;
  o.precision(17);
  o << r.instance.service << '/' << r.instance.replica << ' '
    << r.leaf_parents << ' ' << r.batches << ' ' << r.imperfect_batches
    << ' ' << r.mis_fallbacks << '\n';
  for (const ParentResult& p : r.parents) {
    o << p.parent << ' ' << p.chosen << ' ' << p.candidates_considered << ' '
      << p.batch;
    for (const CandidateMapping& m : p.ranked) {
      o << " [" << m.score << ' ' << m.skips;
      for (SpanId c : m.children) o << ' ' << c;
      o << ']';
    }
    o << '\n';
  }
  for (const auto& [child, parent] : r.adopted) {
    o << "adopt " << child << ' ' << parent << '\n';
  }
  r.model.ForEach([&](const DelayKey& k, const GaussianMixture& g) {
    o << k.service << ' ' << k.endpoint << ' ' << k.stage << ' ' << k.call;
    for (const GmmComponent& c : g.components()) {
      o << ' ' << c.weight << ' ' << c.mean << ' ' << c.stddev;
    }
    o << '\n';
  });
  return o.str();
}

TEST(Optimizer, PriorFailingTheFitCheckMatchesNoPriorByteForByte) {
  // Every mixture of the prior is moved 1 s away from the data, so every
  // key with enough samples fails the drift check and goes to EM exactly
  // as without a prior.
  EndToEnd e = HotelAtLoad(400);
  SpanStore store(e.spans);
  std::size_t containers = 0;
  for (const ContainerView& view : store.AllViews()) {
    obs::MetricsRegistry reg;
    const obs::PipelineMetrics pm(reg);
    OptimizerOptions opts;
    opts.metrics = &pm;
    const ContainerResult fresh = OptimizeContainer(view, e.graph, opts);
    if (fresh.parents.empty()) continue;
    ++containers;
    ASSERT_GT(fresh.model.size(), 0u);
    DelayModel shifted;
    fresh.model.ForEach([&](const DelayKey& key, const GaussianMixture& g) {
      std::vector<GmmComponent> comps = g.components();
      for (GmmComponent& c : comps) c.mean += 1e9;  // Gaps are in ns.
      shifted.Install(key, GaussianMixture(std::move(comps)));
    });
    const std::int64_t fits = reg.Snapshot().Value("tw_gmm_fits_total");

    const ContainerResult with_prior =
        OptimizeContainer(view, e.graph, opts, &shifted);
    EXPECT_EQ(Fingerprint(with_prior), Fingerprint(fresh))
        << view.instance.service;
    const obs::RegistrySnapshot snap = reg.Snapshot();
    EXPECT_EQ(snap.Value("tw_gmm_fits_reused_total"), 0);
    EXPECT_EQ(snap.Value("tw_gmm_fits_total"), 2 * fits);
  }
  EXPECT_GT(containers, 0u);
}

TEST(Optimizer, PriorThatStillFitsReplacesEm) {
  // Positive control for the test above: the container's own final model
  // fits its gaps, so keys take it instead of a BIC sweep.
  EndToEnd e = HotelAtLoad(400);
  SpanStore store(e.spans);
  obs::MetricsRegistry fresh_reg, prior_reg;
  const obs::PipelineMetrics fresh_pm(fresh_reg), prior_pm(prior_reg);
  ParentAssignment fresh_assignment, prior_assignment;
  for (const ContainerView& view : store.AllViews()) {
    OptimizerOptions opts;
    opts.metrics = &fresh_pm;
    const ContainerResult fresh = OptimizeContainer(view, e.graph, opts);
    fresh.AppendAssignment(fresh_assignment);
    opts.metrics = &prior_pm;
    OptimizeContainer(view, e.graph, opts, &fresh.model)
        .AppendAssignment(prior_assignment);
  }
  const obs::RegistrySnapshot fresh_snap = fresh_reg.Snapshot();
  const obs::RegistrySnapshot prior_snap = prior_reg.Snapshot();
  EXPECT_EQ(fresh_snap.Value("tw_gmm_fits_reused_total"), 0);
  EXPECT_GT(prior_snap.Value("tw_gmm_fits_reused_total"), 0);
  EXPECT_LT(prior_snap.Value("tw_gmm_fits_total"),
            fresh_snap.Value("tw_gmm_fits_total"));
  EXPECT_GE(Evaluate(e.spans, prior_assignment).SpanAccuracy() + 0.01,
            Evaluate(e.spans, fresh_assignment).SpanAccuracy());
}

class LoadSweep : public ::testing::TestWithParam<double> {};

TEST_P(LoadSweep, AccuracyStaysUsable) {
  EndToEnd e = HotelAtLoad(GetParam());
  EXPECT_GT(AccuracyWith(e, {}), 0.55) << "rps=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Loads, LoadSweep,
                         ::testing::Values(100.0, 400.0, 1200.0));

}  // namespace
}  // namespace traceweaver
