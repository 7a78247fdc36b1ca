// The one JSON codec behind every machine-written record and response:
// span JSONL, checkpoint lines, trace-store records, provenance events,
// the run report, explain output and the Jaeger export.
//
// Writer: strings escape `"` and `\`, the short escapes \n \t \r \b \f,
// and every other byte below 0x20 as \u00XX (lowercase hex); all other
// bytes, UTF-8 included, pass through verbatim, so output is always one
// line. Numbers are either fixed (%.6f, for display values such as
// confidences) or exact (%.17g, which round-trips an IEEE double).
//
// Reader: a flat-object scanner, not a DOM. A lookup finds a *top-level*
// key (depth 1, outside every string, whitespace allowed around the
// colon), so neither a key nested inside an array or object nor a
// key-shaped payload inside a string value (a service literally named
// `x","id":9`) can shadow the real field. Strings accept the RFC 8259
// escapes (\" \\ \/ \b \f \n \r \t \uXXXX); a UTF-16 surrogate pair
// decodes to one 4-byte UTF-8 sequence, and a lone surrogate or any other
// escape is malformed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace traceweaver::json {

// --- Writer -----------------------------------------------------------

/// `"<escaped s>"`.
std::string Str(std::string_view s);
/// Appends Str(s) without building a temporary.
void AppendStr(std::string& out, std::string_view s);
/// Appends `"key":"<escaped value>"` (no leading comma).
void AppendStrField(std::string& out, std::string_view key,
                    std::string_view value);
/// %.6f: fixed six decimals, for display values.
std::string Fixed(double v);
/// %.17g: enough digits to restore the exact double.
std::string Exact(double v);
/// Appends Exact(v) without building a temporary.
void AppendExact(std::string& out, double v);

// --- Reader -----------------------------------------------------------

/// Position of the value of top-level `"key":` in `text` (past the colon
/// and any whitespace), or npos when absent or the text is unterminated.
std::size_t FindValue(std::string_view text, std::string_view key);

std::optional<std::string> FieldStr(std::string_view text,
                                    std::string_view key);
std::optional<std::int64_t> FieldI64(std::string_view text,
                                     std::string_view key);
std::optional<std::uint64_t> FieldU64(std::string_view text,
                                      std::string_view key);
std::optional<double> FieldF64(std::string_view text, std::string_view key);
std::optional<bool> FieldBool(std::string_view text, std::string_view key);

/// Splits the array of objects starting at text[pos] == '[' into its
/// elements, each a view into `text` spanning one `{...}`. Returns false
/// on malformed framing.
bool SplitObjectArray(std::string_view text, std::size_t pos,
                      std::vector<std::string_view>* elements);

}  // namespace traceweaver::json
