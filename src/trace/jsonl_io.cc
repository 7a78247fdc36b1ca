#include "trace/jsonl_io.h"

#include <istream>
#include <ostream>

#include "util/json.h"

namespace traceweaver {
namespace {

void AppendField(std::string& out, const char* key, std::int64_t value) {
  out += ",\"";
  out += key;
  out += "\":";
  out += std::to_string(value);
}

}  // namespace

std::string SpanToJson(const Span& s, bool include_ground_truth) {
  std::string out = "{\"id\":";
  out += std::to_string(static_cast<std::uint64_t>(s.id));
  json::AppendStrField(out += ',', "caller", s.caller);
  json::AppendStrField(out += ',', "callee", s.callee);
  json::AppendStrField(out += ',', "endpoint", s.endpoint);
  AppendField(out, "client_send", static_cast<std::int64_t>(s.client_send));
  AppendField(out, "server_recv", static_cast<std::int64_t>(s.server_recv));
  AppendField(out, "server_send", static_cast<std::int64_t>(s.server_send));
  AppendField(out, "client_recv", static_cast<std::int64_t>(s.client_recv));
  AppendField(out, "caller_replica",
              static_cast<std::int64_t>(s.caller_replica));
  AppendField(out, "callee_replica",
              static_cast<std::int64_t>(s.callee_replica));
  if (include_ground_truth) {
    out += ",\"true_parent\":" + std::to_string(s.true_parent);
    out += ",\"true_trace\":" + std::to_string(s.true_trace);
  }
  out += '}';
  return out;
}

std::optional<Span> SpanFromJson(std::string_view line) {
  Span s;
  const auto id = json::FieldU64(line, "id");
  const auto caller = json::FieldStr(line, "caller");
  const auto callee = json::FieldStr(line, "callee");
  const auto endpoint = json::FieldStr(line, "endpoint");
  const auto cs = json::FieldI64(line, "client_send");
  const auto sr = json::FieldI64(line, "server_recv");
  const auto ss = json::FieldI64(line, "server_send");
  const auto cr = json::FieldI64(line, "client_recv");
  if (!id || !caller || !callee || !endpoint || !cs || !sr || !ss || !cr) {
    return std::nullopt;
  }
  s.id = *id;
  s.caller = *caller;
  s.callee = *callee;
  s.endpoint = *endpoint;
  s.client_send = *cs;
  s.server_recv = *sr;
  s.server_send = *ss;
  s.client_recv = *cr;
  s.caller_replica =
      static_cast<int>(json::FieldI64(line, "caller_replica").value_or(0));
  s.callee_replica =
      static_cast<int>(json::FieldI64(line, "callee_replica").value_or(0));
  s.true_parent =
      json::FieldU64(line, "true_parent").value_or(kInvalidSpanId);
  s.true_trace =
      json::FieldU64(line, "true_trace").value_or(kInvalidTraceId);
  return s;
}

void WriteSpansJsonl(std::ostream& out, const std::vector<Span>& spans,
                     bool include_ground_truth) {
  for (const Span& s : spans) {
    out << SpanToJson(s, include_ground_truth) << '\n';
  }
}

std::vector<Span> ReadSpansJsonl(std::istream& in, std::size_t* dropped) {
  std::vector<Span> spans;
  std::size_t bad = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (auto s = SpanFromJson(line)) {
      spans.push_back(std::move(*s));
    } else {
      ++bad;
    }
  }
  if (dropped != nullptr) *dropped = bad;
  return spans;
}

}  // namespace traceweaver
