// The trace query API: HTTP routes over a TraceStore (DESIGN.md §4h,
// docs/API.md is the authoritative endpoint reference).
//
//   GET /traces/{id}          one committed trace (traceweaver.trace.v1)
//   GET /traces?service=&from=&to=&grade=&min_confidence=&limit=
//                             matching traces, chunked JSONL streaming
//                             (from/to in nanoseconds, span timebase)
//   GET /traces/{id}/explain[?parent=]
//                             candidate score breakdown
//                             (traceweaver.explain.v1) via core/explain
//   GET /traces/{id}/provenance
//                             the trace's decision-provenance ledger
//                             (traceweaver.provenance.v1)
//   GET /metrics              Prometheus 0.0.4 exposition of the shared
//                             registry (tw_online_*, tw_store_*,
//                             tw_http_*, tw_prov_*, pipeline families)
//                             plus scrape-time derived series (cache hit
//                             ratio, error ratio, per-route latency
//                             summaries) -- see MetricsExposition below
//   GET /healthz              liveness + store stats
//
// Handle() is called concurrently by the HTTP workers; the store's
// snapshot index makes reads safe against the ingesting writer, and
// explain runs a fresh single-threaded weaver per request (cold path by
// design).
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "callgraph/call_graph.h"
#include "core/trace_weaver.h"
#include "serve/http_server.h"
#include "store/store.h"

namespace traceweaver::serve {

/// The full /metrics response body: the registry's Prometheus 0.0.4
/// exposition plus derived series computed from the same snapshot at
/// scrape time (they are ratios/quantiles of other metrics, so storing
/// them in the registry would race with their inputs):
///   tw_store_cache_hit_ratio       gauge in [0,1] (0 before any lookup)
///   tw_http_error_ratio            non-200 responses / all responses
///   tw_http_route_latency_ns       summary: p50/p99 + _sum/_count per
///                                  route, from tw_http_route_request_ns
std::string MetricsExposition(const obs::RegistrySnapshot& snapshot);

/// The GET /traces/{id}/provenance body (one line, no trailing newline),
/// schema `traceweaver.provenance.v1`: the decision ledger of the stored
/// record `line`, whose index entry is `summary`, as
/// `{"schema":...,"trace":<id>,"events":[...]}`. The events are the
/// line's `provenance` elements as stored, framed from the offset the
/// index keeps, so the line is neither decoded nor walked (for a
/// TraceRecordToJson line, the bytes its decoded events would give; `[]`
/// when the record has no provenance block). Nullopt when the array does
/// not frame. Shared with the `traceweaver provenance` subcommand.
std::optional<std::string> ProvenanceJson(const store::TraceSummary& summary,
                                          std::string_view line);

struct QueryServiceOptions {
  /// Explain reconstruction options (threads forced to 1 per request).
  TraceWeaverOptions explain_weaver;
};

class QueryService {
 public:
  /// `store` must outlive the service. `graph` enables /explain (null ->
  /// 404 on that route). `metrics` backs /metrics and receives the
  /// request-level tw_http_* counters; null disables both.
  QueryService(const store::TraceStore* store, const CallGraph* graph,
               obs::MetricsRegistry* metrics,
               QueryServiceOptions options = {});

  /// The HttpServer handler. Thread-safe.
  void Handle(const HttpRequest& request, HttpResponse& response);

 private:
  void HandleTraceList(const HttpRequest& request, HttpResponse& response);
  void HandleTraceGet(SpanId id, HttpResponse& response);
  void HandleExplain(SpanId id, const HttpRequest& request,
                     HttpResponse& response);
  void HandleProvenance(SpanId id, HttpResponse& response);
  void HandleMetrics(HttpResponse& response);
  void HandleHealth(HttpResponse& response);
  const store::TraceStore* store_;
  const CallGraph* graph_;
  obs::MetricsRegistry* metrics_;
  QueryServiceOptions options_;

  // Pre-registered handles (GetCounter locks the registry; Handle must
  // not). Routes: 0 trace_get, 1 trace_list, 2 explain, 3 metrics,
  // 4 healthz, 5 other, 6 provenance. Statuses: 200/400/404/405/500.
  obs::Counter route_requests_[7];
  obs::Counter status_responses_[5];
  obs::Histogram request_ns_;
  obs::Histogram route_ns_[7];  ///< Same latency, split per route.
};

}  // namespace traceweaver::serve
