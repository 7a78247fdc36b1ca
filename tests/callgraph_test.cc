#include <gtest/gtest.h>

#include "callgraph/call_graph.h"
#include "callgraph/inference.h"
#include "sim/apps.h"
#include "sim/workload.h"
#include "test_helpers.h"

namespace traceweaver {
namespace {

using ::traceweaver::testing::MakeSpan;

TEST(InvocationPlan, PositionsFlattenInOrder) {
  InvocationPlan plan;
  plan.stages.push_back(Stage{{{"B", "/b", false}, {"C", "/c", false}}});
  plan.stages.push_back(Stage{{{"D", "/d", false}}});
  auto positions = plan.Positions();
  ASSERT_EQ(positions.size(), 3u);
  EXPECT_EQ(positions[0].stage, 0u);
  EXPECT_EQ(positions[0].call, 0u);
  EXPECT_EQ(positions[1].stage, 0u);
  EXPECT_EQ(positions[1].call, 1u);
  EXPECT_EQ(positions[2].stage, 1u);
  EXPECT_EQ(plan.TotalCalls(), 3u);
  EXPECT_EQ(plan.At(positions[2]).service, "D");
}

TEST(CallGraph, PlanLookup) {
  CallGraph g = ::traceweaver::testing::SequentialGraph();
  ASSERT_NE(g.PlanFor({"A", "/a"}), nullptr);
  EXPECT_EQ(g.PlanFor({"A", "/a"})->stages.size(), 2u);
  EXPECT_EQ(g.PlanFor({"Z", "/nope"}), nullptr);
  auto services = g.Services();
  EXPECT_EQ(services.size(), 3u);  // A, B, C.
}

TEST(CallGraph, ToStringMentionsStructure) {
  CallGraph g = ::traceweaver::testing::ParallelGraph();
  const std::string s = g.ToString();
  EXPECT_NE(s.find("B:/b || C:/c"), std::string::npos);
}

// --- Inference from hand-built isolated observations -----------------------

/// Builds `n` isolated traces where A handles /a and calls B then C
/// sequentially (C's request always after B's response).
std::vector<Span> SequentialObservations(int n) {
  std::vector<Span> spans;
  SpanId id = 1;
  for (int i = 0; i < n; ++i) {
    const TimeNs base = i * Seconds(1);
    spans.push_back(MakeSpan(id++, kClientCaller, "A", "/a", base,
                             base + Millis(10)));
    spans.push_back(MakeSpan(id++, "A", "B", "/b", base + Millis(1),
                             base + Millis(3)));
    spans.push_back(MakeSpan(id++, "A", "C", "/c", base + Millis(5),
                             base + Millis(8)));
  }
  return spans;
}

/// A calls B and C in parallel (overlapping windows).
std::vector<Span> ParallelObservations(int n) {
  std::vector<Span> spans;
  SpanId id = 1;
  for (int i = 0; i < n; ++i) {
    const TimeNs base = i * Seconds(1);
    spans.push_back(MakeSpan(id++, kClientCaller, "A", "/a", base,
                             base + Millis(10)));
    spans.push_back(MakeSpan(id++, "A", "B", "/b", base + Millis(1),
                             base + Millis(6)));
    spans.push_back(MakeSpan(id++, "A", "C", "/c", base + Millis(2),
                             base + Millis(5)));
  }
  return spans;
}

TEST(Inference, RecoversSequentialOrder) {
  CallGraph g = InferCallGraph(SequentialObservations(10));
  const InvocationPlan* plan = g.PlanFor({"A", "/a"});
  ASSERT_NE(plan, nullptr);
  ASSERT_EQ(plan->stages.size(), 2u);
  EXPECT_EQ(plan->stages[0].calls[0].service, "B");
  EXPECT_EQ(plan->stages[1].calls[0].service, "C");
}

TEST(Inference, RecoversParallelStructure) {
  CallGraph g = InferCallGraph(ParallelObservations(10));
  const InvocationPlan* plan = g.PlanFor({"A", "/a"});
  ASSERT_NE(plan, nullptr);
  ASSERT_EQ(plan->stages.size(), 1u);
  EXPECT_EQ(plan->stages[0].calls.size(), 2u);
}

TEST(Inference, MarksMissingCallsOptional) {
  auto spans = SequentialObservations(10);
  // Remove C's span from half the traces (simulating cache hits).
  std::vector<Span> pruned;
  int trace = 0;
  for (const Span& s : spans) {
    if (s.callee == "C" && (trace++ % 2 == 0)) continue;
    pruned.push_back(s);
  }
  CallGraph g = InferCallGraph(pruned);
  const InvocationPlan* plan = g.PlanFor({"A", "/a"});
  ASSERT_NE(plan, nullptr);
  bool c_optional = false, b_optional = true;
  for (const Stage& st : plan->stages) {
    for (const BackendCall& c : st.calls) {
      if (c.service == "C") c_optional = c.optional;
      if (c.service == "B") b_optional = c.optional;
    }
  }
  EXPECT_TRUE(c_optional);
  EXPECT_FALSE(b_optional);
}

TEST(Inference, LowSupportCallsAreDropped) {
  auto spans = SequentialObservations(50);
  // One stray span to service Z in a single trace: 1/50 support is below
  // the 5% floor.
  spans.push_back(MakeSpan(9999, "A", "Z", "/z", Millis(1), Millis(2)));
  CallGraph g = InferCallGraph(spans);
  const InvocationPlan* plan = g.PlanFor({"A", "/a"});
  ASSERT_NE(plan, nullptr);
  for (const Stage& st : plan->stages) {
    for (const BackendCall& c : st.calls) EXPECT_NE(c.service, "Z");
  }
}

TEST(Inference, LeafServicesGetEmptyPlans) {
  CallGraph g = InferCallGraph(SequentialObservations(5));
  const InvocationPlan* plan = g.PlanFor({"B", "/b"});
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(plan->Empty());
}

TEST(GroupIsolatedTraces, AssignsNestedSpansToRoots) {
  auto spans = SequentialObservations(3);
  auto groups = GroupIsolatedTraces(spans);
  ASSERT_EQ(groups.size(), 3u);
  for (const auto& g : groups) EXPECT_EQ(g.size(), 3u);
}

// --- Inference against the simulator's ground-truth topologies -------------

class AppInference : public ::testing::TestWithParam<int> {};

TEST_P(AppInference, RecoversSimulatedAppTopology) {
  sim::AppSpec app;
  switch (GetParam()) {
    case 0:
      app = sim::MakeHotelReservationApp();
      break;
    case 1:
      app = sim::MakeMediaMicroservicesApp();
      break;
    case 2:
      app = sim::MakeNodejsApp();
      break;
    case 3:
      app = sim::MakeSocialNetworkApp();
      break;
    default:
      app = sim::MakeLinearChainApp();
  }
  sim::IsolatedReplayOptions opts;
  opts.requests_per_root = 25;
  auto result = sim::RunIsolatedReplay(app, opts);
  CallGraph g = InferCallGraph(result.spans);

  // Every non-leaf handler in the spec must be recovered with the right
  // callee set and stage count.
  for (const auto& [svc_name, svc] : app.services) {
    for (const auto& [endpoint, handler] : svc.handlers) {
      if (handler.stages.empty()) continue;
      const InvocationPlan* plan = g.PlanFor({svc_name, endpoint});
      ASSERT_NE(plan, nullptr) << svc_name << endpoint;
      std::size_t spec_calls = 0;
      for (const auto& st : handler.stages) spec_calls += st.calls.size();
      EXPECT_EQ(plan->TotalCalls(), spec_calls) << svc_name << endpoint;
      EXPECT_EQ(plan->stages.size(), handler.stages.size())
          << svc_name << endpoint;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Apps, AppInference,
                         ::testing::Values(0, 1, 2, 3, 4));

}  // namespace
}  // namespace traceweaver
