// Seeded fuzz of a CRC-guarded state file (trace/checkpoint.h): the
// committer, sampler and weaver state files all load through the same
// checksummed container and RecordReader field lists. Each trial either
// mutates the file's raw bytes, which the CRC check must catch unless the
// checksummed lines are unchanged, or mutates one record line and frames
// the file again with a valid footer, so the mutation reaches the record
// decoders. A load must reject the file and leave the object as it was,
// or load the original state (raw bytes), or load exactly what a fresh
// object loads from the same file (framed again).
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "mutator.h"
#include "trace/checkpoint.h"
#include "util/rng.h"

namespace traceweaver::testing {

/// Every distinct `"name":` key spelled in `text` (for the mutator's
/// duplicate, nested and key-shaped insertions).
inline std::vector<std::string> KeysOf(std::string_view text) {
  std::set<std::string> keys;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '"') continue;
    std::size_t j = i + 1;
    while (j < text.size() && text[j] != '"') j += text[j] == '\\' ? 2 : 1;
    if (j + 1 < text.size() && text[j + 1] == ':') {
      keys.insert(std::string(text.substr(i + 1, j - i - 1)));
    }
    i = j;
  }
  return {keys.begin(), keys.end()};
}

/// How the trials of one FuzzStateFile run ended.
struct StateFuzzCounts {
  std::size_t rejected = 0;
  std::size_t accepted_raw = 0;       ///< Raw mutation, original state.
  std::size_t accepted_reframed = 0;  ///< Re-framed mutation loaded.
};

/// Runs `trials` seeded trials against the state file `original` with
/// checksum schema `schema`. `make` builds a fresh object, `load` restores
/// a file into it (false on rejection) and `save` writes its state. Every
/// trial starts from a victim holding the different state `before`.
template <typename T>
StateFuzzCounts FuzzStateFile(
    const std::string& original, const std::string& before,
    const std::string& schema, std::size_t trials, Rng& rng,
    const std::function<std::unique_ptr<T>()>& make,
    const std::function<bool(T&, const std::string&)>& load,
    const std::function<std::string(const T&)>& save) {
  StateFuzzCounts counts;
  std::istringstream clean(original);
  const auto lines = ReadChecksummedLines(clean, schema, nullptr);
  EXPECT_TRUE(lines.has_value() && !lines->empty());
  if (!lines || lines->empty()) return counts;
  const std::vector<std::string> key_names = KeysOf(original);
  const std::vector<std::string_view> keys(key_names.begin(),
                                           key_names.end());
  for (std::size_t t = 0; t < trials; ++t) {
    const bool raw = t % 2 == 0;
    std::string file;
    if (raw) {
      file = original;
      for (std::int64_t m = rng.UniformInt(1, 3); m > 0; --m) {
        Mutate(file, keys, rng);
      }
    } else {
      std::vector<std::string> mutated = *lines;
      std::string& line = mutated[static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(mutated.size()) - 1))];
      for (std::int64_t m = rng.UniformInt(1, 3); m > 0; --m) {
        Mutate(line, keys, rng);
      }
      std::ostringstream out;
      ChecksummedWriter writer(out, schema);
      for (const std::string& l : mutated) writer.WriteLine(l);
      writer.Finish();
      file = out.str();
    }
    std::unique_ptr<T> victim = make();
    EXPECT_TRUE(load(*victim, before)) << "trial " << t;
    if (!load(*victim, file)) {
      ++counts.rejected;
      EXPECT_EQ(save(*victim), before) << "rejected file changed the state, "
                                       << "trial " << t << ":\n" << file;
      continue;
    }
    const std::string loaded = save(*victim);
    if (raw) {
      ++counts.accepted_raw;
      EXPECT_EQ(loaded, original) << "trial " << t << ":\n" << file;
      continue;
    }
    ++counts.accepted_reframed;
    // The whole state comes from the file: a fresh object loads the same,
    // and what was loaded saves and loads back to itself.
    std::unique_ptr<T> fresh = make();
    EXPECT_TRUE(load(*fresh, file)) << "trial " << t;
    EXPECT_EQ(save(*fresh), loaded) << "trial " << t << ":\n" << file;
    std::unique_ptr<T> again = make();
    EXPECT_TRUE(load(*again, loaded)) << "trial " << t << ":\n" << loaded;
    EXPECT_EQ(save(*again), loaded) << "trial " << t << ":\n" << file;
  }
  return counts;
}

}  // namespace traceweaver::testing
