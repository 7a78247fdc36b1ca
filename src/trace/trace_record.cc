#include "trace/trace_record.h"

#include <array>
#include <charconv>
#include <span>
#include <utility>

#include "trace/jsonl_io.h"
#include "util/json.h"

namespace traceweaver {
namespace {

/// TraceRecordFromJson's keys, indexed by RecordKey, in
/// TraceRecordToJson's order.
enum RecordKey {
  kSchemaKey, kTrace, kRootService, kRootEndpoint, kStart, kEnd, kGrade,
  kConfidence, kMinConfidence, kOrphan, kSuspect, kSpans, kParents,
  kProvenance,
};
constexpr std::array<std::string_view, 14> kRecordKeys = {
    "schema",     "trace",          "root_service", "root_endpoint",
    "start",      "end",            "grade",        "confidence",
    "min_confidence", "orphan",     "suspect",      "spans",
    "parents",    "provenance",
};

}  // namespace

std::string TraceRecordToJson(const TraceRecord& record) {
  std::size_t provenance_at = 0;
  return TraceRecordToJson(record, &provenance_at);
}

std::string TraceRecordToJson(const TraceRecord& record,
                              std::size_t* provenance_at) {
  std::string out = "{\"schema\":\"";
  out += TraceRecord::kSchema;
  out += "\",\"trace\":";
  out += std::to_string(static_cast<std::uint64_t>(record.trace_id));
  json::AppendStrField(out += ',', "root_service", record.root_service);
  json::AppendStrField(out += ',', "root_endpoint", record.root_endpoint);
  out += ",\"start\":";
  out += std::to_string(static_cast<std::int64_t>(record.start));
  out += ",\"end\":";
  out += std::to_string(static_cast<std::int64_t>(record.end));
  out += ",\"grade\":\"";
  out += record.grade;
  out += '"';
  out += ",\"confidence\":" + json::Fixed(record.confidence);
  out += ",\"min_confidence\":" + json::Fixed(record.min_confidence);
  out += record.orphan ? ",\"orphan\":true" : ",\"orphan\":false";
  out += record.suspect ? ",\"suspect\":true" : ",\"suspect\":false";
  out += ",\"span_count\":";
  out += std::to_string(record.spans.size());
  out += ",\"spans\":[";
  for (std::size_t i = 0; i < record.spans.size(); ++i) {
    if (i > 0) out += ',';
    out += SpanToJson(record.spans[i], /*include_ground_truth=*/true);
  }
  out += "],\"parents\":[";
  for (std::size_t i = 0; i < record.parents.size(); ++i) {
    if (i > 0) out += ',';
    out += '[';
    out += std::to_string(static_cast<std::uint64_t>(record.parents[i].first));
    out += ',';
    out +=
        std::to_string(static_cast<std::uint64_t>(record.parents[i].second));
    out += ']';
  }
  out += ']';
  *provenance_at = std::string::npos;
  if (!record.provenance.empty()) {
    out += ",\"provenance\":";
    *provenance_at = out.size();
    out += '[';
    for (std::size_t i = 0; i < record.provenance.size(); ++i) {
      if (i > 0) out += ',';
      out += obs::ProvEventToJson(record.provenance[i]);
    }
    out += ']';
  }
  out += '}';
  return out;
}

std::optional<TraceRecord> TraceRecordFromJson(std::string_view line) {
  std::size_t provenance_at = 0;
  return TraceRecordFromJson(line, &provenance_at);
}

std::optional<TraceRecord> TraceRecordFromJson(std::string_view line,
                                               std::size_t* provenance_at) {
  // One walk of the line: top-level lookups never descend into the spans
  // or provenance arrays, so a span field can never alias a record field,
  // and each span and event is decoded where the walk meets it.
  TraceRecord record;
  const json::ObjectArray arrays[] = {
      {kSpans, kSpanJsonKeys,
       [&record](std::string_view element,
                 std::span<const std::size_t> at) {
         auto span = SpanFromValues(element, at);
         if (span) record.spans.push_back(std::move(*span));
         return span.has_value();
       }},
      {kProvenance, obs::kProvEventJsonKeys,
       [&record](std::string_view element,
                 std::span<const std::size_t> at) {
         auto event = obs::ProvEventFromValues(element, at);
         if (event) record.provenance.push_back(std::move(*event));
         return event.has_value();
       }},
  };
  std::array<std::size_t, kRecordKeys.size()> at;
  if (!json::FindValues(line, kRecordKeys, at, arrays)) return std::nullopt;
  std::string schema;
  if (!json::ReadStr(line, at[kSchemaKey], &schema) ||
      schema != TraceRecord::kSchema) {
    return std::nullopt;
  }

  std::string grade;
  if (!json::ReadU64(line, at[kTrace], &record.trace_id) ||
      !json::ReadStr(line, at[kRootService], &record.root_service) ||
      !json::ReadStr(line, at[kRootEndpoint], &record.root_endpoint) ||
      !json::ReadI64(line, at[kStart], &record.start) ||
      !json::ReadI64(line, at[kEnd], &record.end) ||
      !json::ReadStr(line, at[kGrade], &grade) || grade.size() != 1 ||
      !json::ReadF64(line, at[kConfidence], &record.confidence) ||
      !json::ReadF64(line, at[kMinConfidence], &record.min_confidence)) {
    return std::nullopt;
  }
  record.grade = grade[0];
  // Absent or malformed flags read as false.
  json::ReadBool(line, at[kOrphan], &record.orphan);
  json::ReadBool(line, at[kSuspect], &record.suspect);
  // The spans array is required and must hold a root; provenance is
  // absent on records committed without a ledger.
  if (record.spans.empty()) return std::nullopt;

  // Parent edges: a flat [[child,parent],...] of unsigned decimals.
  std::size_t pos = at[kParents];
  if (pos >= line.size() || line[pos] != '[') return std::nullopt;
  const char* const last = line.data() + line.size();
  for (++pos; pos < line.size() && line[pos] != ']'; ++pos) {
    if (line[pos] == ',') continue;
    SpanId child = 0;
    SpanId parent = 0;
    if (line[pos] != '[') return std::nullopt;
    const auto c = std::from_chars(line.data() + pos + 1, last, child);
    if (c.ec != std::errc() || c.ptr == last || *c.ptr != ',') {
      return std::nullopt;
    }
    const auto p = std::from_chars(c.ptr + 1, last, parent);
    if (p.ec != std::errc() || p.ptr == last || *p.ptr != ']') {
      return std::nullopt;
    }
    pos = static_cast<std::size_t>(p.ptr - line.data());
    record.parents.emplace_back(child, parent);
  }
  if (pos >= line.size()) return std::nullopt;
  *provenance_at = at[kProvenance];
  return record;
}

}  // namespace traceweaver
