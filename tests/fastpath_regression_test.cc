// Regression guard for the optimizer's data path (DESIGN.md §4g).
//
// The ranking scores candidates through the batch kernel over per-task
// gap tables; the explain drill-down rescores them through the scalar
// ScoreMapping. The explain witness arms the drill-down on parents of
// every container with tasks and requires it to reproduce each ranked
// candidate's children and score bit for bit, so a batch kernel that
// drifts from the scalar term order fails here. The comparison runs
// inside one process, so it holds on any host whichever kernel variant
// (AVX2 or scalar) the process picked. Reconstruction must also be
// byte-identical at one thread and at four -- same assignment, same
// ranked scores, same quality grades.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "callgraph/inference.h"
#include "collector/capture.h"
#include "core/trace_weaver.h"
#include "sim/apps.h"
#include "sim/workload.h"
#include "test_helpers.h"

namespace traceweaver {
namespace {

struct Pipeline {
  std::vector<Span> spans;
  CallGraph graph;
};

Pipeline RunPipeline(const sim::AppSpec& app, double rps, double seconds,
                     std::uint64_t seed = 31) {
  Pipeline p;
  sim::IsolatedReplayOptions iso;
  iso.requests_per_root = 20;
  p.graph = InferCallGraph(
      collector::CaptureRoundTrip(sim::RunIsolatedReplay(app, iso).spans));
  sim::OpenLoopOptions load;
  load.requests_per_sec = rps;
  load.duration = Seconds(seconds);
  load.seed = seed;
  p.spans = collector::CaptureRoundTrip(sim::RunOpenLoop(app, load).spans);
  return p;
}

/// Serializes everything the data path may influence into one comparable
/// byte string: the assignment, every ranked candidate's exact score bits,
/// and the quality layer's per-assignment and per-trace output.
std::string Fingerprint(const TraceWeaverOutput& out) {
  std::string s;
  char buf[256];
  for (const auto& [child, parent] : out.assignment) {
    std::snprintf(buf, sizeof(buf), "a %llu -> %llu\n",
                  static_cast<unsigned long long>(child),
                  static_cast<unsigned long long>(parent));
    s += buf;
  }
  for (const ContainerResult& c : out.containers) {
    for (const ParentResult& p : c.parents) {
      std::snprintf(buf, sizeof(buf), "p %llu chosen=%d considered=%zu\n",
                    static_cast<unsigned long long>(p.parent), p.chosen,
                    p.candidates_considered);
      s += buf;
      for (const CandidateMapping& m : p.ranked) {
        // %a prints the exact bits; any FP divergence shows up here.
        std::snprintf(buf, sizeof(buf), "r %a skips=%zu", m.score, m.skips);
        s += buf;
        for (const SpanId child : m.children) {
          std::snprintf(buf, sizeof(buf), " %llu",
                        static_cast<unsigned long long>(child));
          s += buf;
        }
        s += '\n';
      }
    }
  }
  for (const obs::AssignmentQuality& q : out.quality.assignments) {
    std::snprintf(buf, sizeof(buf),
                  "q %llu %s m=%d t=%d conf=%a post=%a marg=%a ent=%a\n",
                  static_cast<unsigned long long>(q.parent),
                  q.service.c_str(), q.mapped ? 1 : 0, q.top_choice ? 1 : 0,
                  q.confidence, q.posterior, q.margin, q.entropy);
    s += buf;
  }
  for (const obs::TraceQuality& t : out.quality.traces) {
    std::snprintf(buf, sizeof(buf), "t %llu n=%zu grade=%c conf=%a min=%a\n",
                  static_cast<unsigned long long>(t.root), t.spans, t.grade,
                  t.confidence, t.min_confidence);
    s += buf;
  }
  return s;
}

std::string Reconstruct(const Pipeline& p, std::size_t threads) {
  TraceWeaverOptions opts;
  opts.num_threads = threads;
  opts.compute_quality = true;
  TraceWeaver weaver(p.graph, opts);
  return Fingerprint(weaver.Reconstruct(p.spans));
}

/// Mapped parents armed per container. Most candidates' scores come out
/// the same under a reordered sum, so a term-order slip in the batch
/// kernel shows on only a few parents; eight per container catch one on
/// every pipeline here.
constexpr std::size_t kArmedPerContainer = 8;

/// Runs the explain witness on every container with tasks: its first
/// kArmedPerContainer mapped parents, plus the first parent whose chosen
/// mapping skips a call.
void ExpectExplainWitness(const Pipeline& p) {
  const SpanStore store(p.spans);
  const OptimizerOptions opts;
  std::size_t containers = 0, with_skips = 0;
  for (const ContainerView& view : store.AllViews()) {
    const ContainerResult base = OptimizeContainer(view, p.graph, opts);
    if (base.parents.empty()) continue;
    ++containers;
    std::vector<SpanId> armed;
    for (const ParentResult& r : base.parents) {
      if (r.Mapped() && armed.size() < kArmedPerContainer) {
        armed.push_back(r.parent);
      }
    }
    for (const ParentResult& r : base.parents) {
      if (!r.Mapped() ||
          r.ranked[static_cast<std::size_t>(r.chosen)].skips == 0) {
        continue;
      }
      if (std::find(armed.begin(), armed.end(), r.parent) == armed.end()) {
        armed.push_back(r.parent);
      }
      ++with_skips;
      break;
    }
    EXPECT_FALSE(armed.empty()) << view.instance.service;
    for (const SpanId parent : armed) {
      testing::ExpectExplainMatchesRanking(view, p.graph, opts, parent);
    }
  }
  EXPECT_GT(containers, 0u);
  std::printf("explain witness: %zu containers, %zu skip-bearing parents\n",
              containers, with_skips);
}

TEST(FastPathRegression, HotelExplainWitnessMatchesRanking) {
  const Pipeline p = RunPipeline(sim::MakeHotelReservationApp(), 300, 2);
  ExpectExplainWitness(p);
}

TEST(FastPathRegression, HotelByteIdenticalAcrossThreadCounts) {
  const Pipeline p = RunPipeline(sim::MakeHotelReservationApp(), 300, 2);
  const std::string serial = Reconstruct(p, /*threads=*/1);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, Reconstruct(p, /*threads=*/4));
}

TEST(FastPathRegression, MediaAndChainExplainWitnessAndThreadCounts) {
  // Different topologies exercise different enumeration/window shapes.
  using AppFactory = sim::AppSpec (*)();
  for (const AppFactory make : {&sim::MakeMediaMicroservicesApp,
                                &sim::MakeLinearChainApp}) {
    const Pipeline p = RunPipeline((*make)(), 200, 2);
    ExpectExplainWitness(p);
    const std::string serial = Reconstruct(p, /*threads=*/1);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, Reconstruct(p, /*threads=*/4));
  }
}

}  // namespace
}  // namespace traceweaver
