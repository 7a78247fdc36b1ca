#include "trace/jsonl_io.h"

#include <array>
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

/// Indexes into kSpanJsonKeys.
enum SpanKey {
  kId, kCaller, kCallee, kEndpoint, kClientSend, kServerRecv, kServerSend,
  kClientRecv, kCallerReplica, kCalleeReplica, kTrueParent, kTrueTrace,
};

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
  std::array<std::size_t, kSpanJsonKeys.size()> at;
  json::FindValues(line, kSpanJsonKeys, at);
  return SpanFromValues(line, at);
}

std::optional<Span> SpanFromValues(std::string_view line,
                                   std::span<const std::size_t> at) {
  Span s;
  if (!json::ReadU64(line, at[kId], &s.id) ||
      !json::ReadStr(line, at[kCaller], &s.caller) ||
      !json::ReadStr(line, at[kCallee], &s.callee) ||
      !json::ReadStr(line, at[kEndpoint], &s.endpoint) ||
      !json::ReadI64(line, at[kClientSend], &s.client_send) ||
      !json::ReadI64(line, at[kServerRecv], &s.server_recv) ||
      !json::ReadI64(line, at[kServerSend], &s.server_send) ||
      !json::ReadI64(line, at[kClientRecv], &s.client_recv)) {
    return std::nullopt;
  }
  // Optional fields keep their defaults when absent or malformed.
  std::int64_t caller_replica = 0;
  std::int64_t callee_replica = 0;
  json::ReadI64(line, at[kCallerReplica], &caller_replica);
  json::ReadI64(line, at[kCalleeReplica], &callee_replica);
  s.caller_replica = static_cast<int>(caller_replica);
  s.callee_replica = static_cast<int>(callee_replica);
  json::ReadU64(line, at[kTrueParent], &s.true_parent);
  json::ReadU64(line, at[kTrueTrace], &s.true_trace);
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
