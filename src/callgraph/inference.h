// Call-graph and dependency-order inference from isolated test traces
// (§5.2.2).
//
// In a test environment, requests are replayed one at a time, so at every
// service the parent-child mapping is unambiguous: every outgoing span that
// falls inside the single in-flight parent's processing window belongs to
// that parent. From such observations we learn, per handler:
//   - the call graph: the set of backend calls made, and
//   - the dependency order: initialize a complete precedence digraph over
//     the callees and delete an edge X -> Y whenever some observation shows
//     Y starting before X finished. Surviving edges are genuine
//     dependencies; a longest-path layering of the resulting DAG yields the
//     sequential stages (nodes in the same layer are parallel).
// Calls absent from some observations are marked optional (§4.2 dynamism).
#pragma once

#include <cstddef>
#include <vector>

#include "callgraph/call_graph.h"
#include "trace/span.h"

namespace traceweaver {

/// Learns the full CallGraph from test spans captured under one-at-a-time
/// replay. `test_spans` is the flat span population of the test run; root
/// spans (caller == kClientCaller) delimit the isolated requests.
CallGraph InferCallGraph(const std::vector<Span>& test_spans);

/// Groups an isolated-replay span population into traces: each root span
/// claims every span nested (by timing) inside the in-flight request.
/// Returns one span-index vector per root, in root start order.
std::vector<std::vector<std::size_t>> GroupIsolatedTraces(
    const std::vector<Span>& spans);

}  // namespace traceweaver
