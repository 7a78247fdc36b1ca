// Regression guard for the fast single-thread data path (DESIGN.md §4g):
// reconstruction with OptimizerOptions::fast_data_path on must be
// byte-identical to the legacy pointer-chasing path -- same assignment,
// same ranked scores, same quality grades -- at one thread and at four.
// The two paths share the gap walk but accumulate scores separately (the
// batch kernel vs the scalar ScoreMapping), so this is the end-to-end
// witness of the batch path's bit-identity contract.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "callgraph/inference.h"
#include "collector/capture.h"
#include "core/trace_weaver.h"
#include "sim/apps.h"
#include "sim/workload.h"

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

/// Serializes everything the fast path may influence into one comparable
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

std::string Reconstruct(const Pipeline& p, bool fast, std::size_t threads) {
  TraceWeaverOptions opts;
  opts.optimizer.fast_data_path = fast;
  opts.num_threads = threads;
  opts.compute_quality = true;
  TraceWeaver weaver(p.graph, opts);
  return Fingerprint(weaver.Reconstruct(p.spans));
}

TEST(FastPathRegression, HotelByteIdenticalOnAndOffSerial) {
  const Pipeline p = RunPipeline(sim::MakeHotelReservationApp(), 300, 2);
  const std::string fast = Reconstruct(p, /*fast=*/true, /*threads=*/1);
  const std::string slow = Reconstruct(p, /*fast=*/false, /*threads=*/1);
  ASSERT_FALSE(fast.empty());
  EXPECT_EQ(fast, slow);
}

TEST(FastPathRegression, HotelByteIdenticalOnAndOffFourThreads) {
  const Pipeline p = RunPipeline(sim::MakeHotelReservationApp(), 300, 2);
  const std::string fast = Reconstruct(p, /*fast=*/true, /*threads=*/4);
  const std::string slow = Reconstruct(p, /*fast=*/false, /*threads=*/4);
  ASSERT_FALSE(fast.empty());
  EXPECT_EQ(fast, slow);

  // And across thread counts with the fast path on: the parallel
  // determinism contract must hold on the new path too.
  const std::string serial = Reconstruct(p, /*fast=*/true, /*threads=*/1);
  EXPECT_EQ(fast, serial);
}

TEST(FastPathRegression, MediaAndChainByteIdenticalOnAndOff) {
  // Different topologies exercise different enumeration/window shapes.
  using AppFactory = sim::AppSpec (*)();
  for (const AppFactory make : {&sim::MakeMediaMicroservicesApp,
                                &sim::MakeLinearChainApp}) {
    const Pipeline p = RunPipeline((*make)(), 200, 2);
    EXPECT_EQ(Reconstruct(p, true, 1), Reconstruct(p, false, 1));
  }
}

}  // namespace
}  // namespace traceweaver
