// Aggregate trace analytics (§3 "Using the output").
//
// The paper's operator workflow is: specify a filter selecting a subset of
// reconstructed traces, then study that subset's aggregate behaviour --
// tail-latency localization (§6.4.1), A/B population comparison (§6.4.2),
// per-service latency profiles. TraceQuery provides that layer over a
// TraceForest: composable filters, per-service breakdowns, and critical
// paths.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "trace/trace.h"
#include "util/summary.h"

namespace traceweaver {

/// One reconstructed trace (a root in the forest) as the analysis unit.
struct AnalyzedTrace {
  std::size_t root_node = 0;  ///< Node index into the forest.
  TraceId trace = kInvalidTraceId;
  std::string root_service;
  std::string root_endpoint;
  DurationNs e2e_latency = 0;
  std::size_t span_count = 0;
};

/// A filter over trace records; composable with And/Or.
using TraceFilter = std::function<bool(const AnalyzedTrace&)>;

TraceFilter FilterByEndpoint(std::string service, std::string endpoint);
TraceFilter FilterByMinLatency(DurationNs threshold);
/// Keeps traces whose e2e latency is at or above the given percentile of
/// the *queried population* (evaluated lazily by TraceQuery::Select).
struct PercentileLatencyFilter {
  double percentile = 98.0;
};
TraceFilter And(TraceFilter a, TraceFilter b);
TraceFilter Or(TraceFilter a, TraceFilter b);

/// Per-service aggregate over a trace subset.
struct ServiceProfile {
  std::string service;
  std::size_t spans = 0;
  Summary server_latency_ms{{}};  ///< Callee-side durations, milliseconds.
};

/// One hop on a trace's critical path.
struct CriticalHop {
  std::string service;
  std::string endpoint;
  DurationNs self_time = 0;  ///< Time attributed to this span itself.
};

/// Analysis facade over a span population plus a (reconstructed or true)
/// parent assignment.
class TraceQuery {
 public:
  TraceQuery(const std::vector<Span>& spans,
             const ParentAssignment& assignment);

  /// All complete traces (roots whose span is an external request).
  const std::vector<AnalyzedTrace>& traces() const { return records_; }

  /// Traces passing the filter, in descending e2e-latency order.
  std::vector<AnalyzedTrace> Select(const TraceFilter& filter) const;

  /// The slowest `percentile`..100% of traces (optionally pre-filtered).
  std::vector<AnalyzedTrace> SelectTail(double percentile,
                                      const TraceFilter& pre = {}) const;

  /// Per-service latency profile across the given subset.
  std::map<std::string, ServiceProfile> ProfileByService(
      const std::vector<AnalyzedTrace>& subset) const;

  /// The critical path of one trace: the chain of spans that bounds its
  /// end-to-end latency, with self time (span duration minus the child on
  /// the path) per hop.
  std::vector<CriticalHop> CriticalPath(const AnalyzedTrace& record) const;

  /// Aggregates critical-path self time by service across a subset: "who
  /// actually makes these traces slow".
  std::map<std::string, DurationNs> CriticalPathBreakdown(
      const std::vector<AnalyzedTrace>& subset) const;

  /// Splits a subset by a predicate on the trace's spans (e.g. "did this
  /// trace touch replica 1 of service X"); returns {matching, rest}.
  std::pair<std::vector<AnalyzedTrace>, std::vector<AnalyzedTrace>> Partition(
      const std::vector<AnalyzedTrace>& subset,
      const std::function<bool(const Span&)>& span_predicate) const;

  const TraceForest& forest() const { return forest_; }

 private:
  TraceForest forest_;
  std::vector<AnalyzedTrace> records_;
};

}  // namespace traceweaver
