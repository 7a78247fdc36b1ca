#include "callgraph/inference.h"

#include <algorithm>
#include <map>
#include <set>

namespace traceweaver {
namespace {

/// Minimum fraction of observations a call must appear in to be part of
/// the plan at all (guards against stray spans in noisy captures).
constexpr double kMinSupport = 0.05;

/// One observed invocation of a handler: the parent span plus the child
/// spans nested in its processing window.
struct HandlerObservation {
  const Span* parent = nullptr;
  std::vector<const Span*> children;
};

/// Identity of a callee within a handler's plan (service + endpoint).
using CalleeKey = std::pair<std::string, std::string>;

/// Collects handler observations from an isolated-replay population: for
/// every span P, its children are the outgoing spans from P's callee
/// container whose caller-side window nests inside P's processing window.
/// With one request in flight at a time this is exact.
std::map<HandlerKey, std::vector<HandlerObservation>> CollectObservations(
    const std::vector<Span>& spans) {
  std::map<HandlerKey, std::vector<HandlerObservation>> observations;
  for (const Span& parent : spans) {
    HandlerObservation obs;
    obs.parent = &parent;
    for (const Span& child : spans) {
      if (child.id == parent.id) continue;
      if (child.caller != parent.callee) continue;
      if (child.caller_replica != parent.callee_replica) continue;
      if (child.client_send >= parent.server_recv &&
          child.client_recv <= parent.server_send) {
        obs.children.push_back(&child);
      }
    }
    std::sort(obs.children.begin(), obs.children.end(),
              [](const Span* a, const Span* b) {
                return SpanClientSendOrder{}(*a, *b);
              });
    observations[HandlerKey{parent.callee, parent.endpoint}].push_back(
        std::move(obs));
  }
  return observations;
}

InvocationPlan InferPlan(const std::vector<HandlerObservation>& observations) {
  // 1. Gather the callee universe and per-callee support counts.
  std::map<CalleeKey, std::size_t> support;
  for (const auto& obs : observations) {
    std::set<CalleeKey> seen;
    for (const Span* c : obs.children) {
      seen.insert({c->callee, c->endpoint});
    }
    for (const auto& k : seen) ++support[k];
  }
  std::vector<CalleeKey> callees;
  const auto total = static_cast<double>(observations.size());
  for (const auto& [key, count] : support) {
    if (static_cast<double>(count) / total >= kMinSupport) {
      callees.push_back(key);
    }
  }
  if (callees.empty()) return InvocationPlan{};

  const std::size_t n = callees.size();

  // 2. Start with the complete precedence digraph and delete every edge
  // X -> Y contradicted by an observation (Y started before X finished).
  std::vector<std::vector<bool>> edge(n, std::vector<bool>(n, true));
  for (std::size_t i = 0; i < n; ++i) edge[i][i] = false;

  for (const auto& obs : observations) {
    // First occurrence of each callee in this observation (repeat calls to
    // the same callee are collapsed for ordering purposes).
    std::vector<const Span*> first(n, nullptr);
    for (const Span* c : obs.children) {
      const CalleeKey k{c->callee, c->endpoint};
      const auto it = std::find(callees.begin(), callees.end(), k);
      if (it == callees.end()) continue;
      const std::size_t i =
          static_cast<std::size_t>(it - callees.begin());
      if (first[i] == nullptr) first[i] = c;
    }
    for (std::size_t x = 0; x < n; ++x) {
      for (std::size_t y = 0; y < n; ++y) {
        if (x == y || first[x] == nullptr || first[y] == nullptr) continue;
        // Violation of "X completes before Y starts".
        if (first[y]->client_send < first[x]->client_recv) {
          edge[x][y] = false;
        }
      }
    }
  }

  // Mutually surviving edges (possible when two callees never co-occur)
  // carry no order information; treat them as parallel.
  for (std::size_t x = 0; x < n; ++x) {
    for (std::size_t y = x + 1; y < n; ++y) {
      if (edge[x][y] && edge[y][x]) {
        edge[x][y] = edge[y][x] = false;
      }
    }
  }

  // 3. Longest-path layering of the precedence DAG -> sequential stages.
  std::vector<std::size_t> layer(n, 0);
  bool changed = true;
  std::size_t guard = 0;
  while (changed && guard++ <= n) {
    changed = false;
    for (std::size_t x = 0; x < n; ++x) {
      for (std::size_t y = 0; y < n; ++y) {
        if (edge[x][y] && layer[y] < layer[x] + 1) {
          layer[y] = layer[x] + 1;
          changed = true;
        }
      }
    }
  }

  std::size_t max_layer = 0;
  for (std::size_t l : layer) max_layer = std::max(max_layer, l);

  InvocationPlan plan;
  plan.stages.resize(max_layer + 1);
  for (std::size_t i = 0; i < n; ++i) {
    BackendCall call;
    call.service = callees[i].first;
    call.endpoint = callees[i].second;
    call.optional = support[callees[i]] <
                    observations.size();  // Missing somewhere -> optional.
    plan.stages[layer[i]].calls.push_back(std::move(call));
  }
  // Deterministic within-stage order.
  for (Stage& st : plan.stages) {
    std::sort(st.calls.begin(), st.calls.end(),
              [](const BackendCall& a, const BackendCall& b) {
                if (a.service != b.service) return a.service < b.service;
                return a.endpoint < b.endpoint;
              });
  }
  return plan;
}

}  // namespace

std::vector<std::vector<std::size_t>> GroupIsolatedTraces(
    const std::vector<Span>& spans) {
  std::vector<std::size_t> roots;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].IsRoot()) roots.push_back(i);
  }
  std::sort(roots.begin(), roots.end(), [&spans](std::size_t a, std::size_t b) {
    return SpanStartOrder{}(spans[a], spans[b]);
  });

  std::vector<std::vector<std::size_t>> groups(roots.size());
  for (std::size_t r = 0; r < roots.size(); ++r) {
    const Span& root = spans[roots[r]];
    groups[r].push_back(roots[r]);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (i == roots[r] || spans[i].IsRoot()) continue;
      if (spans[i].client_send >= root.server_recv &&
          spans[i].client_recv <= root.server_send) {
        groups[r].push_back(i);
      }
    }
  }
  return groups;
}

CallGraph InferCallGraph(const std::vector<Span>& test_spans) {
  CallGraph graph;
  for (auto& [key, observations] : CollectObservations(test_spans)) {
    graph.SetPlan(key, InferPlan(observations));
  }
  return graph;
}

}  // namespace traceweaver
