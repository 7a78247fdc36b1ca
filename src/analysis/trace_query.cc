#include "analysis/trace_query.h"

#include <algorithm>

namespace traceweaver {

TraceFilter FilterByEndpoint(std::string service, std::string endpoint) {
  return [service = std::move(service),
          endpoint = std::move(endpoint)](const AnalyzedTrace& r) {
    return r.root_service == service && r.root_endpoint == endpoint;
  };
}

TraceFilter FilterByMinLatency(DurationNs threshold) {
  return [threshold](const AnalyzedTrace& r) {
    return r.e2e_latency >= threshold;
  };
}

TraceFilter And(TraceFilter a, TraceFilter b) {
  return [a = std::move(a), b = std::move(b)](const AnalyzedTrace& r) {
    return a(r) && b(r);
  };
}

TraceFilter Or(TraceFilter a, TraceFilter b) {
  return [a = std::move(a), b = std::move(b)](const AnalyzedTrace& r) {
    return a(r) || b(r);
  };
}

TraceQuery::TraceQuery(const std::vector<Span>& spans,
                       const ParentAssignment& assignment)
    : forest_(spans, assignment) {
  for (std::size_t root : forest_.roots()) {
    const Span& s = forest_.span_of(forest_.nodes()[root]);
    if (!s.IsRoot()) continue;  // Orphan fragments are not full traces.
    AnalyzedTrace r;
    r.root_node = root;
    r.trace = s.true_trace;
    r.root_service = s.callee;
    r.root_endpoint = s.endpoint;
    r.e2e_latency = forest_.EndToEndLatency(root);
    r.span_count = forest_.SubtreeSize(root);
    records_.push_back(std::move(r));
  }
  std::sort(records_.begin(), records_.end(),
            [](const AnalyzedTrace& a, const AnalyzedTrace& b) {
              if (a.e2e_latency != b.e2e_latency) {
                return a.e2e_latency > b.e2e_latency;
              }
              return a.root_node < b.root_node;
            });
}

std::vector<AnalyzedTrace> TraceQuery::Select(const TraceFilter& filter) const {
  std::vector<AnalyzedTrace> out;
  for (const AnalyzedTrace& r : records_) {
    if (!filter || filter(r)) out.push_back(r);
  }
  return out;
}

std::vector<AnalyzedTrace> TraceQuery::SelectTail(double percentile,
                                                const TraceFilter& pre) const {
  std::vector<AnalyzedTrace> pool = Select(pre);
  const double frac = std::clamp(1.0 - percentile / 100.0, 0.0, 1.0);
  const std::size_t keep = std::max<std::size_t>(
      pool.empty() ? 0 : 1,
      static_cast<std::size_t>(frac * static_cast<double>(pool.size())));
  if (keep < pool.size()) pool.resize(keep);  // Already latency-descending.
  return pool;
}

std::map<std::string, ServiceProfile> TraceQuery::ProfileByService(
    const std::vector<AnalyzedTrace>& subset) const {
  std::map<std::string, std::vector<double>> samples;
  for (const AnalyzedTrace& r : subset) {
    for (SpanId id : forest_.SubtreeSpanIds(r.root_node)) {
      const Span& s = forest_.span_by_id(id);
      samples[s.callee].push_back(ToMillis(s.ServerDuration()));
    }
  }
  std::map<std::string, ServiceProfile> out;
  for (auto& [service, xs] : samples) {
    ServiceProfile p;
    p.service = service;
    p.spans = xs.size();
    p.server_latency_ms = Summary(std::move(xs));
    out.emplace(service, std::move(p));
  }
  return out;
}

std::vector<CriticalHop> TraceQuery::CriticalPath(
    const AnalyzedTrace& record) const {
  std::vector<CriticalHop> path;
  std::size_t node = record.root_node;
  while (true) {
    const Span& s = forest_.span_of(forest_.nodes()[node]);
    // The child that finishes last bounds this span's completion.
    std::size_t slowest = forest_.nodes()[node].children.size();
    TimeNs slowest_recv = 0;
    for (std::size_t i = 0; i < forest_.nodes()[node].children.size(); ++i) {
      const Span& c = forest_.span_of(
          forest_.nodes()[forest_.nodes()[node].children[i]]);
      if (slowest == forest_.nodes()[node].children.size() ||
          c.client_recv > slowest_recv) {
        slowest = i;
        slowest_recv = c.client_recv;
      }
    }
    CriticalHop hop;
    hop.service = s.callee;
    hop.endpoint = s.endpoint;
    if (slowest == forest_.nodes()[node].children.size()) {
      hop.self_time = s.ServerDuration();
      path.push_back(std::move(hop));
      break;
    }
    const std::size_t child_node = forest_.nodes()[node].children[slowest];
    const Span& child = forest_.span_of(forest_.nodes()[child_node]);
    hop.self_time = s.ServerDuration() - child.ClientDuration();
    if (hop.self_time < 0) hop.self_time = 0;  // Clock-noise guard.
    path.push_back(std::move(hop));
    node = child_node;
  }
  return path;
}

std::map<std::string, DurationNs> TraceQuery::CriticalPathBreakdown(
    const std::vector<AnalyzedTrace>& subset) const {
  std::map<std::string, DurationNs> out;
  for (const AnalyzedTrace& r : subset) {
    for (const CriticalHop& hop : CriticalPath(r)) {
      out[hop.service] += hop.self_time;
    }
  }
  return out;
}

std::pair<std::vector<AnalyzedTrace>, std::vector<AnalyzedTrace>>
TraceQuery::Partition(
    const std::vector<AnalyzedTrace>& subset,
    const std::function<bool(const Span&)>& span_predicate) const {
  std::pair<std::vector<AnalyzedTrace>, std::vector<AnalyzedTrace>> out;
  for (const AnalyzedTrace& r : subset) {
    bool hit = false;
    for (SpanId id : forest_.SubtreeSpanIds(r.root_node)) {
      if (span_predicate(forest_.span_by_id(id))) {
        hit = true;
        break;
      }
    }
    (hit ? out.first : out.second).push_back(r);
  }
  return out;
}

}  // namespace traceweaver
