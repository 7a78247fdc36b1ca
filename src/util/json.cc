#include "util/json.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>
#include <vector>

namespace traceweaver::json {
namespace {

constexpr std::size_t npos = std::string_view::npos;

bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

void AppendEscaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;  // Start of the pending verbatim run.
  for (std::size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        out += "\\u00";
        out += kHex[c >> 4];
        out += kHex[c & 0xF];
    }
  }
  out.append(s.data() + run, s.size() - run);
}

/// Index of the quote closing the string whose body starts at `i`, or
/// npos when unterminated.
std::size_t StringEnd(std::string_view text, std::size_t i) {
  for (; i < text.size(); ++i) {
    if (text[i] == '\\') {
      ++i;
    } else if (text[i] == '"') {
      return i;
    }
  }
  return npos;
}

/// Parses the four hex digits at text[at..at+4).
bool Hex4(std::string_view text, std::size_t at, unsigned* cp) {
  if (at + 4 > text.size()) return false;
  const char* begin = text.data() + at;
  const auto [ptr, ec] = std::from_chars(begin, begin + 4, *cp, 16);
  return ec == std::errc() && ptr == begin + 4;
}

void AppendUtf8(std::string& out, unsigned cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

/// Parses the number at text[pos]; *out is untouched on failure.
template <typename Number>
bool ReadNumber(std::string_view text, std::size_t pos, Number* out) {
  if (pos >= text.size()) return false;
  const auto [ptr, ec] =
      std::from_chars(text.data() + pos, text.data() + text.size(), *out);
  return ec == std::errc();
}

/// Wraps a Read* call as a Field* lookup.
template <typename T, typename Read>
std::optional<T> Field(std::string_view text, std::string_view key,
                       Read read) {
  T value{};
  if (!read(text, FindValue(text, key), &value)) return std::nullopt;
  return value;
}

/// The walk behind both FindValues. Without kArrays it is the plain key
/// scan; with it, it also splits and scans `arrays` as it passes them.
template <bool kArrays>
bool Walk(std::string_view text, std::span<const std::string_view> keys,
          std::span<std::size_t> positions,
          std::span<const ObjectArray> arrays) {
  // Only quotes and brackets matter to the scan; a table test per byte
  // keeps the common case (plain bytes) to one load and branch.
  static constexpr auto kStop = [] {
    std::array<bool, 256> stop{};
    for (const char c : std::string_view("\"{}[]")) {
      stop[static_cast<unsigned char>(c)] = true;
    }
    return stop;
  }();
  std::fill(positions.begin(), positions.end(), npos);
  std::size_t missing = keys.size();
  int depth = 0;
  // The array being split, if any. Its elements are framed by brace
  // count (SplitObjectArray's rule) while `element_depth` counts every
  // bracket from the element's start, as a FindValues of it alone would.
  const ObjectArray* array = nullptr;
  std::vector<char> split(arrays.size(), 0);
  std::size_t element = npos;  // Start of the element being scanned.
  int braces = 0;
  int element_depth = 0;
  std::size_t element_missing = 0;
  std::vector<std::size_t> at;
  // After the array's '[' or an element's '}': only commas and whitespace
  // may come before the next element or the closing ']'.
  const auto next_element = [&](std::size_t i) {
    while (++i < text.size() && (text[i] == ',' || IsSpace(text[i]))) {
    }
    if (i >= text.size()) return false;
    if (text[i] == ']') {
      array = nullptr;
    } else if (text[i] == '{') {
      element = i;
      braces = 0;
      element_depth = 0;
      at.assign(array->keys.size(), npos);
      element_missing = at.size();
    } else {
      return false;
    }
    return true;
  };

  for (std::size_t i = 0; i < text.size() && (missing > 0 || array != nullptr);
       ++i) {
    const char c = text[i];
    if (!kStop[static_cast<unsigned char>(c)]) continue;
    if (c != '"') {
      const int step = c == '{' || c == '[' ? 1 : -1;
      depth += step;
      if constexpr (kArrays) {
        if (element != npos) {
          element_depth += step;
          if (c == '{') {
            ++braces;
          } else if (c == '}' && --braces == 0) {
            if (!array->element(text.substr(element, i + 1 - element), at)) {
              return false;
            }
            element = npos;
            if (!next_element(i)) return false;
          }
        } else if (array != nullptr && !next_element(i)) {
          return false;  // `i` is the array's '['.
        }
      }
      continue;
    }
    const std::size_t start = i + 1;
    i = StringEnd(text, start);
    if (i == npos) {
      if (array != nullptr) return false;
      break;
    }
    const bool outer = depth == 1 && missing > 0;
    const bool inner = kArrays && element != npos && element_depth == 1 &&
                       element_missing > 0;
    if (!outer && !inner) continue;
    std::size_t j = i + 1;
    while (j < text.size() && IsSpace(text[j])) ++j;
    if (j >= text.size() || text[j] != ':') continue;  // A value, not a key.
    const std::string_view name = text.substr(start, i - start);
    ++j;
    while (j < text.size() && IsSpace(text[j])) ++j;
    if (inner) {
      const auto& element_keys = array->keys;
      std::size_t k = 0;
      while (k < at.size() && (at[k] != npos || element_keys[k] != name)) ++k;
      if (k < at.size()) {
        at[k] = j - element;
        --element_missing;
      }
    }
    if (!outer) continue;
    std::size_t k = 0;
    while (k < keys.size() && (positions[k] != npos || keys[k] != name)) ++k;
    if (k == keys.size()) continue;
    positions[k] = j;
    --missing;
    if constexpr (kArrays) {
      for (std::size_t a = 0; a < arrays.size(); ++a) {
        if (arrays[a].key != k || array != nullptr) continue;
        if (j >= text.size() || text[j] != '[') return false;
        array = &arrays[a];
        split[a] = 1;
      }
    }
  }
  if constexpr (kArrays) {
    if (array != nullptr) return false;  // No closing ']'.
    // Arrays met inside another one's span: split and scan each alone.
    for (std::size_t a = 0; a < arrays.size(); ++a) {
      const std::size_t pos = positions[arrays[a].key];
      if (split[a] || pos == npos) continue;
      std::vector<std::string_view> elements;
      if (!SplitObjectArray(text, pos, &elements)) return false;
      for (const std::string_view e : elements) {
        at.resize(arrays[a].keys.size());
        FindValues(e, arrays[a].keys, at);
        if (!arrays[a].element(e, at)) return false;
      }
    }
  }
  return true;
}

}  // namespace

void AppendStr(std::string& out, std::string_view s) {
  out += '"';
  AppendEscaped(out, s);
  out += '"';
}

std::string Str(std::string_view s) {
  std::string out;
  AppendStr(out, s);
  return out;
}

void AppendStrField(std::string& out, std::string_view key,
                    std::string_view value) {
  AppendStr(out, key);
  out += ':';
  AppendStr(out, value);
}

std::string Fixed(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

std::string Exact(double v) {
  std::string out;
  AppendExact(out, v);
  return out;
}

void AppendExact(std::string& out, double v) {
  char buf[40];
  const int n = std::snprintf(buf, sizeof(buf), "%.17g", v);
  out.append(buf, static_cast<std::size_t>(n));
}

void FindValues(std::string_view text, std::span<const std::string_view> keys,
                std::span<std::size_t> positions) {
  Walk<false>(text, keys, positions, {});
}

bool FindValues(std::string_view text, std::span<const std::string_view> keys,
                std::span<std::size_t> positions,
                std::span<const ObjectArray> arrays) {
  return Walk<true>(text, keys, positions, arrays);
}

std::size_t FindValue(std::string_view text, std::string_view key) {
  std::size_t pos = npos;
  FindValues(text, {&key, 1}, {&pos, 1});
  return pos;
}

bool ReadStr(std::string_view text, std::size_t pos, std::string* out) {
  if (pos >= text.size() || text[pos] != '"') return false;
  out->clear();
  std::size_t run = ++pos;  // Start of the pending verbatim run.
  for (; pos < text.size(); ++pos) {
    if (text[pos] == '"') {
      out->append(text.data() + run, pos - run);
      return true;
    }
    if (text[pos] != '\\') continue;
    out->append(text.data() + run, pos - run);
    if (++pos >= text.size()) return false;
    switch (text[pos]) {
      case '"': *out += '"'; break;
      case '\\': *out += '\\'; break;
      case '/': *out += '/'; break;
      case 'n': *out += '\n'; break;
      case 't': *out += '\t'; break;
      case 'r': *out += '\r'; break;
      case 'b': *out += '\b'; break;
      case 'f': *out += '\f'; break;
      case 'u': {
        unsigned cp = 0;
        if (!Hex4(text, pos + 1, &cp)) return false;
        pos += 4;
        if (cp >= 0xD800 && cp <= 0xDFFF) {
          // Only a high surrogate followed by a \u low surrogate forms a
          // code point; anything else would decode to invalid UTF-8.
          unsigned low = 0;
          if (cp > 0xDBFF || pos + 2 >= text.size() ||
              text[pos + 1] != '\\' || text[pos + 2] != 'u' ||
              !Hex4(text, pos + 3, &low) || low < 0xDC00 || low > 0xDFFF) {
            return false;
          }
          cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          pos += 6;
        }
        AppendUtf8(*out, cp);
        break;
      }
      default:
        return false;
    }
    run = pos + 1;
  }
  return false;  // Unterminated.
}

bool ReadI64(std::string_view text, std::size_t pos, std::int64_t* out) {
  return ReadNumber(text, pos, out);
}

bool ReadU64(std::string_view text, std::size_t pos, std::uint64_t* out) {
  return ReadNumber(text, pos, out);
}

bool ReadF64(std::string_view text, std::size_t pos, double* out) {
  return ReadNumber(text, pos, out);
}

bool ReadBool(std::string_view text, std::size_t pos, bool* out) {
  const std::string_view value = text.substr(std::min(pos, text.size()));
  if (value.starts_with("true")) {
    *out = true;
  } else if (value.starts_with("false")) {
    *out = false;
  } else {
    return false;
  }
  return true;
}

std::optional<std::string> FieldStr(std::string_view text,
                                    std::string_view key) {
  return Field<std::string>(text, key, ReadStr);
}

std::optional<std::int64_t> FieldI64(std::string_view text,
                                     std::string_view key) {
  return Field<std::int64_t>(text, key, ReadI64);
}

std::optional<std::uint64_t> FieldU64(std::string_view text,
                                      std::string_view key) {
  return Field<std::uint64_t>(text, key, ReadU64);
}

std::optional<double> FieldF64(std::string_view text, std::string_view key) {
  return Field<double>(text, key, ReadF64);
}

bool SplitObjectArray(std::string_view text, std::size_t pos,
                      std::vector<std::string_view>* elements) {
  if (pos >= text.size() || text[pos] != '[') return false;
  for (++pos; pos < text.size(); ++pos) {
    const char c = text[pos];
    if (c == ']') return true;
    if (c == ',' || IsSpace(c)) continue;
    if (c != '{') return false;
    const std::size_t start = pos;
    int depth = 0;
    for (; pos < text.size(); ++pos) {
      if (text[pos] == '"') {
        pos = StringEnd(text, pos + 1);
        if (pos == npos) return false;
      } else if (text[pos] == '{') {
        ++depth;
      } else if (text[pos] == '}' && --depth == 0) {
        break;
      }
    }
    if (pos >= text.size()) return false;
    elements->push_back(text.substr(start, pos - start + 1));
  }
  return false;  // No closing ']'.
}

}  // namespace traceweaver::json
