// End-to-end wire-level ingestion: spans -> HTTP/1.1 bytes -> fragmented
// chunks -> HttpStreamParser -> NetEvents -> AssembleSpans -> TraceWeaver.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "callgraph/inference.h"
#include "collector/capture.h"
#include "collector/wire_capture.h"
#include "core/accuracy.h"
#include "core/trace_weaver.h"
#include "sim/apps.h"
#include "sim/workload.h"
#include "util/rng.h"

namespace traceweaver::collector {
namespace {

std::vector<Span> SimSpans(double rps = 150.0) {
  sim::OpenLoopOptions load;
  load.requests_per_sec = rps;
  load.duration = Seconds(2);
  load.seed = 71;
  return sim::RunOpenLoop(sim::MakeHotelReservationApp(), load).spans;
}

/// Re-attaches ground truth to wire-derived spans via per-connection
/// request order (the wire carries no ids; only tests can do this).
void AttachTruth(const WireRendering& /*wire*/,
                 const std::vector<Span>& originals,
                 std::vector<Span>& rebuilt) {
  std::map<SpanId, const Span*> by_id;
  for (const Span& s : originals) by_id[s.id] = &s;

  // Wire spans have synthetic ids; match by (caller, callee, client_send).
  std::map<std::tuple<std::string, std::string, TimeNs>, const Span*> index;
  for (const Span& s : originals) {
    index[{s.caller, s.callee, s.client_send}] = &s;
  }
  for (Span& s : rebuilt) {
    auto it = index.find({s.caller, s.callee, s.client_send});
    ASSERT_NE(it, index.end());
    s.id = it->second->id;
    s.true_parent = it->second->true_parent;
    s.true_trace = it->second->true_trace;
  }
}

TEST(WireCapture, RoundTripRecoversEverySpan) {
  const auto spans = SimSpans();
  WireRendering wire = RenderSpansToWire(spans);

  WireParseStats stats;
  auto events = WireToEvents(wire.chunks, wire.meta, &stats);
  EXPECT_EQ(stats.parser_errors, 0u);
  EXPECT_EQ(stats.unknown_connections, 0u);
  EXPECT_EQ(stats.messages, spans.size() * 4);

  auto rebuilt = AssembleSpans(std::move(events));
  ASSERT_EQ(rebuilt.size(), spans.size());

  // Timestamps and identities survive byte-level round trip.
  std::map<std::tuple<std::string, std::string, TimeNs>, const Span*> index;
  for (const Span& s : spans) index[{s.caller, s.callee, s.client_send}] = &s;
  for (const Span& s : rebuilt) {
    auto it = index.find({s.caller, s.callee, s.client_send});
    ASSERT_NE(it, index.end());
    EXPECT_EQ(s.server_recv, it->second->server_recv);
    EXPECT_EQ(s.server_send, it->second->server_send);
    EXPECT_EQ(s.client_recv, it->second->client_recv);
    EXPECT_EQ(s.endpoint, it->second->endpoint);
  }
}

TEST(WireCapture, SurvivesByteFragmentation) {
  const auto spans = SimSpans(80.0);
  WireRendering wire = RenderSpansToWire(spans);

  // Split every chunk into 1-13 byte fragments (same timestamp: a single
  // syscall's payload arrives together; fragments model short reads).
  Rng rng(73);
  std::vector<WireChunk> fragmented;
  for (const WireChunk& c : wire.chunks) {
    std::size_t pos = 0;
    while (pos < c.bytes.size()) {
      const std::size_t len =
          static_cast<std::size_t>(rng.UniformInt(1, 13));
      WireChunk f = c;
      f.bytes = c.bytes.substr(pos, len);
      fragmented.push_back(std::move(f));
      pos += len;
    }
  }

  WireParseStats stats;
  auto events = WireToEvents(std::move(fragmented), wire.meta, &stats);
  EXPECT_EQ(stats.parser_errors, 0u);
  auto rebuilt = AssembleSpans(std::move(events));
  EXPECT_EQ(rebuilt.size(), spans.size());
}

TEST(WireCapture, ReconstructionThroughTheFullWirePath) {
  const auto spans = SimSpans(250.0);
  WireRendering wire = RenderSpansToWire(spans);
  auto rebuilt = AssembleSpans(WireToEvents(wire.chunks, wire.meta));
  ASSERT_EQ(rebuilt.size(), spans.size());
  AttachTruth(wire, spans, rebuilt);

  sim::IsolatedReplayOptions iso;
  iso.requests_per_root = 15;
  CallGraph graph = InferCallGraph(
      sim::RunIsolatedReplay(sim::MakeHotelReservationApp(), iso).spans);
  TraceWeaver weaver(graph);
  const auto report = Evaluate(rebuilt, weaver.Reconstruct(rebuilt).assignment);
  EXPECT_GT(report.TraceAccuracy(), 0.9);
}

TEST(WireCapture, UnknownConnectionsAreCounted) {
  const auto spans = SimSpans(50.0);
  WireRendering wire = RenderSpansToWire(spans);
  wire.meta.erase(wire.meta.begin());  // Forget one connection's identity.
  WireParseStats stats;
  auto events = WireToEvents(wire.chunks, wire.meta, &stats);
  EXPECT_GT(stats.unknown_connections, 0u);
  EXPECT_LT(events.size(), spans.size() * 4);
}

// Regression for the FIFO-zip mis-pairing bug: a vantage that stamps
// response chunks slightly late (then delivers everything shuffled) can
// invert a request/response pair by a few hundred microseconds. The old
// assembler orphaned the early response AND closed its request against
// the *next* RPC's response, shifting every later pairing on the stream;
// the bounded reorder buffer lets the true request claim it instead.
TEST(WireCapture, ReorderedDeliveryIsRepairedByTheReorderBuffer) {
  const auto spans = SimSpans(80.0);
  WireRendering wire = RenderSpansToWire(spans);

  // Chunks are rendered four per span: caller request, callee request,
  // callee response, caller response. Re-stamp every caller-side response
  // 450us earlier (an egress queue that timestamps at enqueue): pairs
  // shorter than 450us invert, by less than the 500us reorder window.
  std::size_t inverted = 0;
  for (std::size_t k = 0; k + 3 < wire.chunks.size(); k += 4) {
    WireChunk& resp = wire.chunks[k + 3];
    ASSERT_EQ(resp.vantage, Vantage::kCallerSide);
    ASSERT_FALSE(resp.client_to_server);
    resp.timestamp -= Micros(450);
    if (resp.timestamp < wire.chunks[k].timestamp) ++inverted;
  }
  ASSERT_GT(inverted, 0u);

  // Shuffled delivery: arrival order carries no information.
  Rng rng(91);
  for (std::size_t i = wire.chunks.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<int>(i) - 1));
    std::swap(wire.chunks[i - 1], wire.chunks[j]);
  }

  auto events = WireToEvents(wire.chunks, wire.meta);

  // The reorder buffer recovers each inverted pair instead of orphaning
  // it: every span reassembles.
  AssemblyStats stats;
  const auto rebuilt = AssembleSpans(std::move(events), &stats);
  EXPECT_EQ(rebuilt.size(), spans.size());
  EXPECT_EQ(stats.reordered_responses, inverted);
  EXPECT_EQ(stats.unmatched_requests, 0u);
  EXPECT_EQ(stats.unmatched_responses, 0u);
}

TEST(WireCapture, CorruptStreamIsIsolated) {
  const auto spans = SimSpans(50.0);
  WireRendering wire = RenderSpansToWire(spans);
  // Corrupt the first chunk's start line; only that stream should fail.
  ASSERT_FALSE(wire.chunks.empty());
  wire.chunks[0].bytes = "GARBAGE " + wire.chunks[0].bytes;
  WireParseStats stats;
  auto events = WireToEvents(wire.chunks, wire.meta, &stats);
  EXPECT_GE(stats.parser_errors, 1u);
  // The rest of the population still parses.
  EXPECT_GT(stats.messages, spans.size() * 3);
}

}  // namespace
}  // namespace traceweaver::collector
