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
#include "trace/trace_record.h"
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

/// A committed-trace record whose names hold every kind of byte the
/// record codec must escape or pass through: quotes, backslashes, control
/// bytes (NUL included), multi-byte UTF-8, the raw bytes of a lone UTF-16
/// surrogate, escape-shaped text and record-key-shaped punctuation. It has
/// 1-4 spans (by `id`) starting at id * 10 ms, so ids are in start order,
/// and one settle event per span, except that a multiple of 3 has no
/// provenance block.
inline TraceRecord HostileTraceRecord(SpanId id, Rng& rng) {
  static const std::string kExtra[] = {std::string(1, '\0'), "\xed\xa0\x80",
                                       "\\u0041\\ud83d", "\"}],\"provenance\":["};
  const auto name = [&rng] {
    std::string s = RandomHostileString(rng);
    s.insert(static_cast<std::size_t>(
                 rng.UniformInt(0, static_cast<std::int64_t>(s.size()))),
             kExtra[rng.UniformInt(0, 3)]);
    return s;
  };
  const TimeNs base = static_cast<TimeNs>(id) * Millis(10);
  TraceRecord r;
  r.trace_id = id;
  r.root_service = name();
  r.root_endpoint = name();
  r.grade = static_cast<char>('A' + id % 4);
  r.confidence = 0.9;
  r.min_confidence = 0.5;
  r.spans = {MakeSpan(id, kClientCaller, r.root_service, r.root_endpoint,
                      base + 100, base + 900)};
  for (SpanId k = 1; k <= id % 4; ++k) {
    r.spans.push_back(MakeSpan(id + 1000000 * k, r.root_service, name(),
                               name(), base + 200, base + 700));
    r.parents.emplace_back(r.spans.back().id, id);
  }
  r.start = r.spans[0].client_send;
  r.end = r.spans[0].client_recv;
  if (id % 3 != 0) {
    for (const Span& span : r.spans) {
      r.provenance.push_back({obs::ProvEventType::kSettled, span.id,
                              static_cast<std::int64_t>(r.spans.size()),
                              name()});
    }
  }
  return r;
}

/// What the store's read path served for `r` when it decoded each stored
/// line and encoded the record again: TraceRecordToJson of the decoded
/// line.
inline std::string ReencodedLine(const TraceRecord& r) {
  const auto back = TraceRecordFromJson(TraceRecordToJson(r));
  return back ? TraceRecordToJson(*back) : "undecodable";
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
