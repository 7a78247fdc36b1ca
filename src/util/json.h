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
// `x","id":9`) can shadow the real field. When a key appears twice, the
// first occurrence wins. A decoder scans each object once (FindValues)
// for all of its keys, then reads each value at its position with the
// Read* calls; the Field* calls are the one-key shorthand. An object
// that holds arrays of objects (a store record's spans and provenance)
// is walked once too: the same FindValues walk frames each element and
// finds the element's keys as it passes, and hands the element to the
// decoder there (ObjectArray), with the results SplitObjectArray and a
// FindValues of each element would give. Strings
// accept the RFC 8259 escapes (\" \\ \/ \b \f \n \r \t \uXXXX); a UTF-16
// surrogate pair decodes to one 4-byte UTF-8 sequence, and a lone
// surrogate or any other escape is malformed.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
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

/// Walks `text` once and sets positions[k] to the position of the value
/// of the first top-level `"keys[k]":` (past the colon and any
/// whitespace), or npos when absent. The walk ends early once every key
/// is found, and at an unterminated string: keys found before it keep
/// their positions, the rest stay npos. `keys` must be distinct and
/// `positions` as long as `keys`.
void FindValues(std::string_view text, std::span<const std::string_view> keys,
                std::span<std::size_t> positions);
/// FindValues for one key.
std::size_t FindValue(std::string_view text, std::string_view key);

/// An array of objects held as the value of keys[key] in a FindValues
/// walk: each element, with the value positions of `keys` in it (relative
/// to the element, as FindValues on the element alone gives them), goes
/// to `element`, in array order.
struct ObjectArray {
  std::size_t key = 0;
  std::span<const std::string_view> keys;
  std::function<bool(std::string_view element,
                     std::span<const std::size_t> positions)>
      element;
};

/// FindValues that also decodes `arrays` (distinct keys) in the same
/// walk, framing each array as SplitObjectArray does. Returns false when
/// one of those keys is present but its value is not a framed array of
/// objects, or when `element` returns false; `positions` are then
/// unspecified. (An array whose key the walk meets inside another array,
/// which only malformed text allows, is split and scanned on its own.)
bool FindValues(std::string_view text, std::span<const std::string_view> keys,
                std::span<std::size_t> positions,
                std::span<const ObjectArray> arrays);

/// Typed reads of the value at text[pos], where `pos` comes from
/// FindValues (npos reads as absent). Each returns false when the value
/// is absent or malformed; a failed number or bool read leaves *out
/// untouched, a failed string read leaves it unspecified.
bool ReadStr(std::string_view text, std::size_t pos, std::string* out);
bool ReadI64(std::string_view text, std::size_t pos, std::int64_t* out);
bool ReadU64(std::string_view text, std::size_t pos, std::uint64_t* out);
bool ReadF64(std::string_view text, std::size_t pos, double* out);
bool ReadBool(std::string_view text, std::size_t pos, bool* out);

/// One-key shorthand: FindValue, then the matching Read*; nullopt when
/// the key is absent or its value malformed.
std::optional<std::string> FieldStr(std::string_view text,
                                    std::string_view key);
std::optional<std::int64_t> FieldI64(std::string_view text,
                                     std::string_view key);
std::optional<std::uint64_t> FieldU64(std::string_view text,
                                      std::string_view key);
std::optional<double> FieldF64(std::string_view text, std::string_view key);

/// Splits the array of objects starting at text[pos] == '[' into its
/// elements, each a view into `text` spanning one `{...}`. Returns false
/// on malformed framing.
bool SplitObjectArray(std::string_view text, std::size_t pos,
                      std::vector<std::string_view>* elements);

}  // namespace traceweaver::json
