// Hostile-topology scenarios: request patterns real deployments throw at
// a black-box tracer that the paper's evaluation apps mostly avoid --
// hedged requests (duplicate children racing one plan position), fan-out
// of 50 parallel calls, deep async chains on single-threaded event loops,
// and cross-thread handoff inside a service. Each scenario must
// reconstruct at nominal load, and duplicate-twin adoption must fold
// hedge/retry duplicates back onto their parent instead of leaving
// orphans.
#include <gtest/gtest.h>

#include <vector>

#include "callgraph/inference.h"
#include "collector/capture.h"
#include "core/accuracy.h"
#include "core/candidates.h"
#include "core/trace_weaver.h"
#include "sim/apps.h"
#include "sim/workload.h"

namespace traceweaver {
namespace {

struct Scenario {
  std::vector<Span> spans;
  CallGraph graph;
};

Scenario Build(const sim::AppSpec& app, double rps, double seconds,
               int isolated_requests = 30) {
  Scenario s;
  sim::IsolatedReplayOptions iso;
  iso.requests_per_root = isolated_requests;
  s.graph = InferCallGraph(collector::CaptureRoundTrip(
      sim::RunIsolatedReplay(app, iso).spans));
  sim::OpenLoopOptions load;
  load.requests_per_sec = rps;
  load.duration = Seconds(seconds);
  load.seed = 47;
  s.spans = collector::CaptureRoundTrip(sim::RunOpenLoop(app, load).spans);
  return s;
}

AccuracyReport Reconstruct(const Scenario& s, long long twin_window_ns = 0) {
  TraceWeaverOptions opts;
  opts.optimizer.params.duplicate_twin_window_ns = twin_window_ns;
  TraceWeaver weaver(s.graph, opts);
  return Evaluate(s.spans, weaver.Reconstruct(s.spans).assignment);
}

TEST(Scenario, HedgedRequestsAdoptDuplicateTwins) {
  // 30% of storage calls race a duplicate. The plan has one position per
  // storage tier, so without adoption every hedged trace keeps an
  // unassigned twin and fails; with the twin window the duplicate joins
  // its sibling's parent.
  const Scenario s = Build(sim::MakeHedgedApp(0.3), 120, 2);
  const AccuracyReport aware = Reconstruct(s, Millis(5));
  const AccuracyReport blind = Reconstruct(s, 0);
  EXPECT_GE(aware.TraceAccuracy(), 0.70)
      << "hedged topology below the robustness floor";
  EXPECT_GE(aware.TraceAccuracy(), blind.TraceAccuracy());
  EXPECT_GT(aware.spans_correct, blind.spans_correct)
      << "twin adoption reclaimed no hedge duplicates";
}

TEST(Scenario, HedgedCandidateSetsStayBounded) {
  // Duplicate same-backend children must not blow up enumeration: the
  // twin competes for one position, it does not add positions.
  const Scenario s = Build(sim::MakeHedgedApp(0.5), 120, 2);
  TraceWeaverOptions opts;
  opts.optimizer.params.duplicate_twin_window_ns = Millis(5);
  TraceWeaver weaver(s.graph, opts);
  const TraceWeaverOutput out = weaver.Reconstruct(s.spans);
  const std::size_t cap = EnumerationOptions{}.total_cap;
  for (const ContainerResult& c : out.containers) {
    for (const ParentResult& p : c.parents) {
      EXPECT_LE(p.candidates_considered, cap);
    }
  }
}

TEST(Scenario, FanoutFiftyReconstructs) {
  // 50 parallel children per parent: candidate windows overlap heavily
  // but each leaf is its own pool, so the solve must stay exact.
  const Scenario s = Build(sim::MakeFanoutApp(50), 60, 2, 10);
  const AccuracyReport r = Reconstruct(s);
  EXPECT_GE(r.TraceAccuracy(), 0.70);
}

TEST(Scenario, DeepAsyncChainReconstructs) {
  // Ten single-threaded event-loop hops in series with variable async
  // waits: responses overtake each other at every hop and thread ids
  // carry no signal.
  const Scenario s = Build(sim::MakeDeepAsyncChainApp(10), 120, 2);
  const AccuracyReport r = Reconstruct(s);
  EXPECT_GE(r.TraceAccuracy(), 0.70);
}

TEST(Scenario, CrossThreadHandoffReconstructs) {
  // kRpcHandoff everywhere: sends are multiplexed over I/O threads, the
  // vPath failure mode. TraceWeaver ignores thread ids by default, so
  // accuracy must hold.
  const Scenario s = Build(sim::MakeCrossThreadHandoffApp(), 150, 2);
  const AccuracyReport r = Reconstruct(s);
  EXPECT_GE(r.TraceAccuracy(), 0.70);
}

TEST(Scenario, TwinWindowZeroLeavesAssignmentUntouched) {
  // The default window must be a true no-op: no adopted pairs, identical
  // assignment across repeated runs.
  const Scenario s = Build(sim::MakeHedgedApp(0.3), 120, 1.5);
  TraceWeaver weaver(s.graph);
  const TraceWeaverOutput a = weaver.Reconstruct(s.spans);
  const TraceWeaverOutput b = weaver.Reconstruct(s.spans);
  EXPECT_EQ(a.assignment, b.assignment);
  for (const ContainerResult& c : a.containers) {
    EXPECT_TRUE(c.adopted.empty());
  }
}

}  // namespace
}  // namespace traceweaver
