// The seeded text mutator behind the decoder and segment-file fuzz
// tests: one call applies one mutation aimed at the JSON scanner's rules
// (byte flips, inserts and deletes, duplicate and reordered keys,
// whitespace around colons, key-shaped and nested text, unterminated
// strings, surrogate escapes). Deterministic for a given Rng state, so a
// failing input is reproducible from the test's seed.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.h"

namespace traceweaver::testing {

/// Splits `{...}` into its top-level members (at depth-0 commas).
inline std::vector<std::string> Members(std::string_view obj) {
  std::vector<std::string> members;
  int depth = 0;
  std::size_t start = 1;
  for (std::size_t i = 1; i + 1 < obj.size(); ++i) {
    const char c = obj[i];
    if (c == '"') {
      for (++i; i + 1 < obj.size() && obj[i] != '"'; ++i) {
        if (obj[i] == '\\') ++i;
      }
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
    } else if (c == ',' && depth == 0) {
      members.emplace_back(obj.substr(start, i - start));
      start = i + 1;
    }
  }
  members.emplace_back(obj.substr(start, obj.size() - 1 - start));
  return members;
}

/// Applies one seeded mutation aimed at the scanner's rules; `keys` are
/// the schema's keys (for duplicates, nesting and key-shaped text).
inline void Mutate(std::string& line, const std::vector<std::string_view>& keys,
            Rng& rng) {
  static constexpr std::string_view kBytes = "{}[]\":,\\ u1";
  static const std::vector<std::string> kValues = {
      "1", "-7", "0", "18446744073709551615", "99999999999999999999",
      "0.25", "\"A\"", "\"dup\"", "\"traceweaver.trace.v1\"",
      "\"settled\"", "true", "false", "[]", "{}", "[[1,2]]",
      "[{\"t\":\"settled\",\"span\":1,\"v\":0}]", "\"unterminated"};
  static const std::vector<std::string> kColons = {" :", ":\t", " \r\n: "};
  static const std::vector<std::string> kSurrogates = {
      "\\ud83d", "\\ude00", "\\ud83d\\ude00", "\\ud83d\\u0041",
      "\\uDBFF\\uDFFF", "\\ude00\\ud83d"};
  const auto below = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(n) - 1));
  };
  const auto any = [&](const auto& v) -> const auto& {
    return v[below(v.size())];
  };
  const auto member = [&] {
    return "\"" + std::string(any(keys)) + "\":" + any(kValues);
  };
  /// A position just past a random occurrence of `c`, or npos.
  const auto after = [&](char c) {
    std::vector<std::size_t> at;
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (line[i] == c) at.push_back(i + 1);
    }
    return at.empty() ? std::string::npos : any(at);
  };
  if (line.empty()) line = "{}";
  switch (rng.UniformInt(0, 10)) {
    case 0:  // Flip a byte.
      line[below(line.size())] = kBytes[below(kBytes.size())];
      break;
    case 1:  // Insert a byte.
      line.insert(below(line.size() + 1), 1, kBytes[below(kBytes.size())]);
      break;
    case 2:  // Delete a byte.
      line.erase(below(line.size()), 1);
      break;
    case 3: {  // A duplicate key before the original.
      const std::size_t at = after('{');
      if (at != std::string::npos) line.insert(at, member() + ",");
      break;
    }
    case 4: {  // A duplicate key after the original.
      const std::size_t at = after('}');
      if (at != std::string::npos) line.insert(at - 1, "," + member());
      break;
    }
    case 5: {  // Reordered keys.
      if (line.size() < 2 || line.front() != '{' || line.back() != '}') break;
      std::vector<std::string> members = Members(line);
      std::shuffle(members.begin(), members.end(), rng.engine());
      line = "{";
      for (std::size_t i = 0; i < members.size(); ++i) {
        line += (i > 0 ? "," : "") + members[i];
      }
      line += '}';
      break;
    }
    case 6: {  // Whitespace around colons.
      std::string out;
      for (std::size_t i = 0; i < line.size(); ++i) {
        if (line[i] == ':' && rng.Bernoulli(0.5)) {
          out += any(kColons);
        } else {
          out += line[i];
        }
      }
      line = out;
      break;
    }
    case 7: {  // Key-shaped text, raw or escaped, anywhere.
      const std::string key(any(keys));
      const std::string text = rng.Bernoulli(0.5)
                                   ? "\"" + key + "\":" + any(kValues)
                                   : "\\\"" + key + "\\\":";
      line.insert(below(line.size() + 1), text);
      break;
    }
    case 8: {  // A key nested one level down.
      const std::size_t at = after('{');
      if (at == std::string::npos) break;
      line.insert(at, rng.Bernoulli(0.5) ? "\"n\":{" + member() + "},"
                                         : "\"a\":[{" + member() + "}],");
      break;
    }
    case 9:  // An unterminated string: cut the line or drop a quote.
      if (rng.Bernoulli(0.5)) {
        line.resize(below(line.size() + 1));
      } else if (const std::size_t at = after('"'); at != std::string::npos) {
        line.erase(at - 1, 1);
      }
      break;
    default: {  // Lone and paired surrogates inside a string.
      const std::size_t at = after('"');
      line.insert(at == std::string::npos ? 0 : at, any(kSurrogates));
      break;
    }
  }
}

}  // namespace traceweaver::testing
