// Shared helpers for the test suite: terse span construction, small
// canned call graphs, hostile strings for the JSON codec properties, and
// the explain witness of the optimizer's ranking.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "callgraph/call_graph.h"
#include "core/explain.h"
#include "core/optimizer.h"
#include "trace/span.h"
#include "trace/trace_store.h"
#include "util/rng.h"

namespace traceweaver::testing {

/// Builds a span with callee-side window [recv, send] and caller-side
/// window padded by `net` on each side.
inline Span MakeSpan(SpanId id, const std::string& caller,
                     const std::string& callee, const std::string& endpoint,
                     TimeNs recv, TimeNs send, DurationNs net = Micros(100),
                     SpanId true_parent = kInvalidSpanId,
                     TraceId trace = kInvalidTraceId) {
  Span s;
  s.id = id;
  s.caller = caller;
  s.callee = callee;
  s.endpoint = endpoint;
  s.client_send = recv - net;
  s.server_recv = recv;
  s.server_send = send;
  s.client_recv = send + net;
  s.true_parent = true_parent;
  s.true_trace = trace;
  return s;
}

/// A -> B call graph: one handler "/a" on service "A" calling B:/b.
inline CallGraph SimpleGraph() {
  CallGraph g;
  InvocationPlan plan;
  Stage st;
  st.calls.push_back(BackendCall{"B", "/b", false});
  plan.stages.push_back(st);
  g.SetPlan(HandlerKey{"A", "/a"}, plan);
  g.SetPlan(HandlerKey{"B", "/b"}, InvocationPlan{});
  return g;
}

/// A calls B then C sequentially.
inline CallGraph SequentialGraph() {
  CallGraph g;
  InvocationPlan plan;
  Stage s1, s2;
  s1.calls.push_back(BackendCall{"B", "/b", false});
  s2.calls.push_back(BackendCall{"C", "/c", false});
  plan.stages.push_back(s1);
  plan.stages.push_back(s2);
  g.SetPlan(HandlerKey{"A", "/a"}, plan);
  g.SetPlan(HandlerKey{"B", "/b"}, InvocationPlan{});
  g.SetPlan(HandlerKey{"C", "/c"}, InvocationPlan{});
  return g;
}

/// A calls B and C in parallel.
inline CallGraph ParallelGraph() {
  CallGraph g;
  InvocationPlan plan;
  Stage st;
  st.calls.push_back(BackendCall{"B", "/b", false});
  st.calls.push_back(BackendCall{"C", "/c", false});
  plan.stages.push_back(st);
  g.SetPlan(HandlerKey{"A", "/a"}, plan);
  g.SetPlan(HandlerKey{"B", "/b"}, InvocationPlan{});
  g.SetPlan(HandlerKey{"C", "/c"}, InvocationPlan{});
  return g;
}

// Characters chosen to be maximally hostile to a by-hand JSON scanner,
// plus whole multi-byte UTF-8 sequences (2- and 4-byte) that must pass
// through every codec untouched.
inline std::string RandomHostileString(Rng& rng) {
  static const std::string kAlphabet =
      "abcXYZ019 _-/\"\\\n\t\r\b\f\x01\x1f{}[]:,";
  static const std::string kMultiByte[] = {"\xc3\xa9", "\xf0\x9f\x98\x80"};
  const std::int64_t picks =
      static_cast<std::int64_t>(kAlphabet.size() + std::size(kMultiByte));
  const std::size_t len = static_cast<std::size_t>(rng.UniformInt(0, 24));
  std::string out;
  for (std::size_t i = 0; i < len; ++i) {
    const auto pick = static_cast<std::size_t>(rng.UniformInt(0, picks - 1));
    if (pick < kAlphabet.size()) {
      out.push_back(kAlphabet[pick]);
    } else {
      out += kMultiByte[pick - kAlphabet.size()];
    }
  }
  return out;
}

/// True when `text` holds a raw byte below 0x20 -- never allowed inside a
/// JSON document, and fatal to line-framed (JSONL) output.
inline bool HasRawControlByte(std::string_view text) {
  for (const char c : text) {
    if (static_cast<unsigned char>(c) < 0x20) return true;
  }
  return false;
}

/// Explain witness: optimizes `view` with the drill-down armed on
/// `parent` and expects the captured rows to reproduce that run's ranking
/// bit for bit -- children, score and the breakdown's re-added total of
/// every ranked candidate. The ranking scores through the batch kernel
/// (ScoreCandidatesBatch) and the drill-down through the scalar
/// ScoreMapping, so any divergence in term order or arithmetic shows here.
inline void ExpectExplainMatchesRanking(const ContainerView& view,
                                        const CallGraph& graph,
                                        OptimizerOptions opts,
                                        SpanId parent) {
  ExplainCapture capture;
  opts.explain_parent = parent;
  opts.explain_out = &capture;
  const ContainerResult result = OptimizeContainer(view, graph, opts);
  const ParentResult* r = nullptr;
  for (const ParentResult& p : result.parents) {
    if (p.parent == parent) r = &p;
  }
  ASSERT_NE(r, nullptr) << "parent " << parent;
  ASSERT_TRUE(capture.found) << "parent " << parent;
  ASSERT_GE(capture.candidates.size(), r->ranked.size());
  for (std::size_t j = 0; j < r->ranked.size(); ++j) {
    const ExplainCandidate& row = capture.candidates[j];
    EXPECT_EQ(row.children, r->ranked[j].children)
        << "parent " << parent << " rank " << j;
    EXPECT_EQ(row.score, r->ranked[j].score)
        << "parent " << parent << " rank " << j;
    EXPECT_EQ(row.breakdown.total, r->ranked[j].score)
        << "parent " << parent << " rank " << j;
  }
}

}  // namespace traceweaver::testing
