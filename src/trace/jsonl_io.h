// JSONL (one JSON object per line) serialization for spans.
//
// This is the interchange format of the span-ingestion tooling: the capture
// pipeline can persist spans to disk in offline mode (§5.3) and the
// reconstruction process can re-ingest them later. The format is
// intentionally flat and self-describing.
#pragma once

#include <array>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "trace/span.h"

namespace traceweaver {

/// Serializes one span as a single JSON line (no trailing newline).
std::string SpanToJson(const Span& s, bool include_ground_truth = false);

/// Parses a span from a JSON line produced by SpanToJson. Returns nullopt
/// on malformed input (missing required fields, bad numbers).
std::optional<Span> SpanFromJson(std::string_view line);

/// The keys SpanFromJson reads, in SpanToJson's order.
inline constexpr std::array<std::string_view, 12> kSpanJsonKeys = {
    "id",          "caller",         "callee",         "endpoint",
    "client_send", "server_recv",    "server_send",    "client_recv",
    "caller_replica", "callee_replica", "true_parent", "true_trace",
};

/// SpanFromJson for a span whose keys a json::FindValues walk has already
/// found: positions[k] is the value position of kSpanJsonKeys[k] in
/// `text`. Lets a record decoder read the spans its own walk passes.
std::optional<Span> SpanFromValues(std::string_view text,
                                   std::span<const std::size_t> positions);

/// Writes the whole population, one line per span.
void WriteSpansJsonl(std::ostream& out, const std::vector<Span>& spans,
                     bool include_ground_truth = false);

/// Reads spans line by line; malformed lines are skipped and counted in
/// *dropped if provided.
std::vector<Span> ReadSpansJsonl(std::istream& in,
                                 std::size_t* dropped = nullptr);

}  // namespace traceweaver
