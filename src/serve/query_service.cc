#include "serve/query_service.h"

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "core/explain.h"
#include "obs/prometheus.h"
#include "util/json.h"

namespace traceweaver::serve {
namespace {

/// Hard cap on one listing response; a larger (or absent) limit= is
/// clamped to this. Streaming is chunked, so this bounds work, not memory.
constexpr std::size_t kMaxResults = 1000;

constexpr const char* kRouteNames[7] = {"trace_get", "trace_list", "explain",
                                        "metrics",   "healthz",    "other",
                                        "provenance"};
constexpr int kStatusCodes[5] = {200, 400, 404, 405, 500};
constexpr const char* kJson = "application/json";
constexpr const char* kText = "text/plain";
/// Prometheus text exposition format version.
constexpr const char* kPromText = "text/plain; version=0.0.4; charset=utf-8";
constexpr const char* kNdjson = "application/x-ndjson";

int StatusIndex(int status) {
  for (int i = 0; i < 5; ++i) {
    if (kStatusCodes[i] == status) return i;
  }
  return 4;  // Anything unexpected counts as a server error.
}

bool ParseU64(const std::string& s, std::uint64_t* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size() || s[0] == '-') return false;
  *out = v;
  return true;
}

bool ParseI64(const std::string& s, std::int64_t* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

/// Builds a store query from the request's parameters; false (with a
/// human-readable reason) on any malformed value -- hostile query strings
/// must produce a 400, never a crash or a silently-empty result.
bool BuildQuery(const HttpRequest& request, store::TraceQuery* query,
                std::string* reason) {
  query->service = request.Param("service");
  if (request.HasParam("from")) {
    if (!ParseI64(request.Param("from"), &query->from)) {
      *reason = "bad 'from': expected integer nanoseconds";
      return false;
    }
  }
  if (request.HasParam("to")) {
    if (!ParseI64(request.Param("to"), &query->to)) {
      *reason = "bad 'to': expected integer nanoseconds";
      return false;
    }
  }
  if (query->from > query->to) {
    *reason = "bad range: 'from' is after 'to'";
    return false;
  }
  if (request.HasParam("grade")) {
    const std::string g = request.Param("grade");
    const char c = g.size() == 1 ? static_cast<char>(std::toupper(
                                       static_cast<unsigned char>(g[0])))
                                 : '\0';
    if (c < 'A' || c > 'D') {
      *reason = "bad 'grade': expected A, B, C or D";
      return false;
    }
    query->max_grade = c;
  }
  if (request.HasParam("min_confidence")) {
    double v = 0.0;
    // Written so that NaN, which compares false both ways, is refused.
    if (!ParseDouble(request.Param("min_confidence"), &v) ||
        !(v >= 0.0 && v <= 1.0)) {
      *reason = "bad 'min_confidence': expected a number in [0, 1]";
      return false;
    }
    query->min_confidence = v;
  }
  query->limit = kMaxResults;
  if (request.HasParam("limit")) {
    std::uint64_t v = 0;
    if (!ParseU64(request.Param("limit"), &v) || v == 0) {
      *reason = "bad 'limit': expected a positive integer";
      return false;
    }
    if (v < query->limit) query->limit = static_cast<std::size_t>(v);
  }
  return true;
}

/// Appends one gauge series with HELP/TYPE headers and a %.6f value.
void AppendRatio(std::string& out, const char* name, const char* help,
                 double value) {
  char buf[352];
  std::snprintf(buf, sizeof(buf),
                "# HELP %s %s\n# TYPE %s gauge\n%s %.6f\n", name, help, name,
                name, value);
  out += buf;
}

}  // namespace

std::string MetricsExposition(const obs::RegistrySnapshot& snapshot) {
  std::string out = obs::PrometheusText(snapshot);

  const double hits =
      static_cast<double>(snapshot.Value("tw_store_cache_hits_total"));
  const double lookups =
      hits + static_cast<double>(snapshot.Value("tw_store_cache_misses_total"));
  AppendRatio(out, "tw_store_cache_hit_ratio",
              "Hot-trace cache hits / lookups since start (derived at "
              "scrape time; 0 before the first lookup)",
              lookups > 0 ? hits / lookups : 0.0);

  const double responses = static_cast<double>(
      snapshot.SumAcrossLabels("tw_http_responses_total"));
  const double ok = static_cast<double>(
      snapshot.Value("tw_http_responses_total", "code=\"200\""));
  AppendRatio(out, "tw_http_error_ratio",
              "Non-200 responses / all responses since start (derived at "
              "scrape time; 0 before the first response)",
              responses > 0 ? (responses - ok) / responses : 0.0);

  const auto family = snapshot.Family("tw_http_route_request_ns");
  if (!family.empty()) {
    out +=
        "# HELP tw_http_route_latency_ns Per-route request latency summary "
        "(quantiles are log2-bucket upper edges of "
        "tw_http_route_request_ns, derived at scrape time)\n"
        "# TYPE tw_http_route_latency_ns summary\n";
    char buf[256];
    for (const obs::MetricSnapshot* m : family) {
      for (const double q : {0.5, 0.99}) {
        std::snprintf(buf, sizeof(buf),
                      "tw_http_route_latency_ns{%s,quantile=\"%g\"} %llu\n",
                      m->labels.c_str(), q,
                      static_cast<unsigned long long>(
                          m->histogram.Quantile(q)));
        out += buf;
      }
      std::snprintf(buf, sizeof(buf),
                    "tw_http_route_latency_ns_sum{%s} %llu\n"
                    "tw_http_route_latency_ns_count{%s} %llu\n",
                    m->labels.c_str(),
                    static_cast<unsigned long long>(m->histogram.sum),
                    m->labels.c_str(),
                    static_cast<unsigned long long>(m->histogram.count));
      out += buf;
    }
  }
  return out;
}

QueryService::QueryService(const store::TraceStore* store,
                           const CallGraph* graph,
                           obs::MetricsRegistry* metrics,
                           QueryServiceOptions options)
    : store_(store), graph_(graph), metrics_(metrics),
      options_(std::move(options)) {
  options_.explain_weaver.num_threads = 1;
  options_.explain_weaver.metrics = nullptr;
  if (metrics_ == nullptr) return;
  for (int r = 0; r < 7; ++r) {
    route_requests_[r] = metrics_->GetCounter(
        "tw_http_requests_total",
        "route=\"" + std::string(kRouteNames[r]) + "\"",
        "Requests dispatched, by route", "1");
    route_ns_[r] = metrics_->GetHistogram(
        "tw_http_route_request_ns",
        "route=\"" + std::string(kRouteNames[r]) + "\"",
        "Request handling latency, by route", "ns");
  }
  for (int s = 0; s < 5; ++s) {
    status_responses_[s] = metrics_->GetCounter(
        "tw_http_responses_total",
        "code=\"" + std::to_string(kStatusCodes[s]) + "\"",
        "Responses sent, by status code", "1");
  }
  request_ns_ = metrics_->GetHistogram("tw_http_request_ns", "",
                                       "Request handling latency", "ns");
}

void QueryService::Handle(const HttpRequest& request, HttpResponse& response) {
  const auto begin = std::chrono::steady_clock::now();
  int route = 5;
  const std::string_view path = request.path;
  if (request.method != "GET") {
    response.Send(405, kText, "only GET is supported\n");
  } else if (path == "/metrics") {
    route = 3;
    HandleMetrics(response);
  } else if (path == "/healthz") {
    route = 4;
    HandleHealth(response);
  } else if (path == "/traces" || path == "/traces/") {
    route = 1;
    HandleTraceList(request, response);
  } else if (path.rfind("/traces/", 0) == 0) {
    std::string_view rest = path.substr(8);
    bool explain = false;
    bool provenance = false;
    if (rest.size() > 8 && rest.substr(rest.size() - 8) == "/explain") {
      explain = true;
      rest = rest.substr(0, rest.size() - 8);
    } else if (rest.size() > 11 &&
               rest.substr(rest.size() - 11) == "/provenance") {
      provenance = true;
      rest = rest.substr(0, rest.size() - 11);
    }
    route = explain ? 2 : (provenance ? 6 : 0);
    std::uint64_t id = 0;
    if (!ParseU64(std::string(rest), &id)) {
      response.Send(400, kText, "bad trace id: expected a decimal span id\n");
    } else if (explain) {
      HandleExplain(static_cast<SpanId>(id), request, response);
    } else if (provenance) {
      HandleProvenance(static_cast<SpanId>(id), response);
    } else {
      HandleTraceGet(static_cast<SpanId>(id), response);
    }
  } else {
    response.Send(404, kText, "no such resource\n");
  }

  route_requests_[route].Inc();
  if (response.sent()) {
    status_responses_[StatusIndex(response.status())].Inc();
  }
  const std::uint64_t elapsed_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - begin)
          .count());
  request_ns_.Observe(elapsed_ns);
  route_ns_[route].Observe(elapsed_ns);
}

void QueryService::HandleTraceGet(SpanId id, HttpResponse& response) {
  const store::RecordLine line = store_->GetLine(id);
  if (line == nullptr) {
    response.Send(404, kText, "trace not found\n");
    return;
  }
  response.Send(200, kJson, *line + "\n");
}

void QueryService::HandleTraceList(const HttpRequest& request,
                                   HttpResponse& response) {
  store::TraceQuery query;
  std::string reason;
  if (!BuildQuery(request, &query, &reason)) {
    response.Send(400, kText, reason + "\n");
    return;
  }
  // The body streams: one chunk per stored line, flat memory regardless of
  // the result count. Unreadable sealed records (segment file gone) are
  // skipped -- a partial answer beats a mid-stream abort.
  response.BeginChunked(200, kNdjson);
  store_->Query(query, [&response](const store::TraceSummary&,
                                   const store::RecordLine& line) {
    if (line != nullptr) response.Chunk(*line + "\n");
    return true;
  });
  response.EndChunked();
}

void QueryService::HandleExplain(SpanId id, const HttpRequest& request,
                                 HttpResponse& response) {
  if (graph_ == nullptr) {
    response.Send(404, kText, "explain is disabled (no call graph loaded)\n");
    return;
  }
  const std::shared_ptr<const TraceRecord> record = store_->Get(id);
  if (record == nullptr) {
    response.Send(404, kText, "trace not found\n");
    return;
  }
  SpanId parent = id;  // Default: explain the root span's mapping.
  if (request.HasParam("parent")) {
    std::uint64_t v = 0;
    if (!ParseU64(request.Param("parent"), &v)) {
      response.Send(400, kText, "bad 'parent': expected a decimal span id\n");
      return;
    }
    parent = static_cast<SpanId>(v);
  }
  // Re-runs reconstruction over just this trace's spans -- identical to
  // `traceweaver explain` on a file holding the one trace (see docs/API.md
  // for the candidate-population caveat vs the original full-stream run).
  ExplainCapture capture;
  TraceWeaverOptions opts = options_.explain_weaver;
  opts.optimizer.explain_parent = parent;
  opts.optimizer.explain_out = &capture;
  TraceWeaver weaver(*graph_, opts);
  (void)weaver.Reconstruct(record->spans);
  if (!capture.found) {
    response.Send(404, kText, "span is not a parent in this trace\n");
    return;
  }
  response.Send(200, kJson, ExplainJson(capture));
}

std::optional<std::string> ProvenanceJson(const store::TraceSummary& summary,
                                          std::string_view line) {
  // The events are the line's provenance elements as written: each is
  // already ProvEventToJson output. A record without a ledger has none.
  std::vector<std::string_view> events;
  if (summary.provenance != 0 &&
      !json::SplitObjectArray(line, summary.provenance, &events)) {
    return std::nullopt;
  }
  std::string body = "{\"schema\":\"traceweaver.provenance.v1\",\"trace\":";
  body += std::to_string(static_cast<std::uint64_t>(summary.trace_id));
  body += ",\"events\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) body += ',';
    body += events[i];
  }
  body += "]}";
  return body;
}

void QueryService::HandleProvenance(SpanId id, HttpResponse& response) {
  store::TraceSummary summary;
  const store::RecordLine line = store_->GetLine(id, &summary);
  if (line == nullptr) {
    response.Send(404, kText, "trace not found\n");
    return;
  }
  const auto body = ProvenanceJson(summary, *line);
  if (!body) {
    response.Send(500, kText, "stored trace is unreadable\n");
    return;
  }
  response.Send(200, kJson, *body + "\n");
}

void QueryService::HandleMetrics(HttpResponse& response) {
  if (metrics_ == nullptr) {
    response.Send(404, kText, "metrics are disabled\n");
    return;
  }
  response.Send(200, kPromText, MetricsExposition(metrics_->Snapshot()));
}

void QueryService::HandleHealth(HttpResponse& response) {
  std::string body = "{\"status\":\"ok\",\"traces\":";
  body += std::to_string(store_->size());
  body += ",\"sealed_segments\":";
  body += std::to_string(store_->sealed_segments());
  body += ",\"active_traces\":";
  body += std::to_string(store_->active_traces());
  body += "}\n";
  response.Send(200, kJson, body);
}

}  // namespace traceweaver::serve
