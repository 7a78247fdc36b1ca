// JSONL (one JSON object per line) serialization for spans.
//
// This is the interchange format of the span-ingestion tooling: the capture
// pipeline can persist spans to disk in offline mode (§5.3) and the
// reconstruction process can re-ingest them later. The format is
// intentionally flat and self-describing.
#pragma once

#include <iosfwd>
#include <optional>
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

/// Writes the whole population, one line per span.
void WriteSpansJsonl(std::ostream& out, const std::vector<Span>& spans,
                     bool include_ground_truth = false);

/// Reads spans line by line; malformed lines are skipped and counted in
/// *dropped if provided.
std::vector<Span> ReadSpansJsonl(std::istream& in,
                                 std::size_t* dropped = nullptr);

}  // namespace traceweaver
