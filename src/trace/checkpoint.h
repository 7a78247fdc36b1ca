// CRC-guarded, versioned JSONL checkpoint container (the IO layer under
// core/online.h's checkpoint/restore).
//
// A checkpoint file is a sequence of JSON lines:
//
//   {"schema":"<schema>", ...}        header (written by the caller)
//   ...                               one record per line
//   {"footer":"<schema>","lines":N,"crc32":C}
//
// The footer guards the whole payload: `lines` is the number of lines
// before the footer and `crc32` is the CRC-32 (IEEE 802.3, the zlib
// polynomial) of every payload byte including newlines. Readers reject
// truncated files (missing or short footer), line-count mismatches and
// payload corruption, so a restore never starts from half a state.
// Payload lines must not themselves start with `{"footer":` -- type-tag
// records with a different leading key.
//
// Writers should write to a temporary file and rename() into place so a
// crash mid-write leaves the previous checkpoint intact (the serve loop
// does exactly this).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "util/json.h"

namespace traceweaver {

/// CRC-32 (reflected, polynomial 0xEDB88320) of `data`, continuing from
/// `seed` (pass the previous return value to checksum incrementally).
std::uint32_t Crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

/// Streams payload lines to `out` while accumulating the CRC; Finish()
/// writes the footer. One writer per file; lines must not contain '\n'.
class ChecksummedWriter {
 public:
  ChecksummedWriter(std::ostream& out, std::string schema);

  /// Writes one payload line (newline appended and checksummed).
  void WriteLine(const std::string& line);

  /// Writes the footer; no further WriteLine calls are allowed.
  void Finish();

  std::size_t lines_written() const { return lines_; }

 private:
  std::ostream& out_;
  std::string schema_;
  std::uint32_t crc_ = 0;
  std::size_t lines_ = 0;
  bool finished_ = false;
};

/// Reads and verifies a checksummed file produced by ChecksummedWriter.
/// Returns the payload lines (header first) on success; nullopt with a
/// human-readable reason in *error on truncation, footer mismatch, schema
/// mismatch or CRC failure.
std::optional<std::vector<std::string>> ReadChecksummedLines(
    std::istream& in, const std::string& schema, std::string* error);

// Field helpers for the records inside a checkpoint (and every other
// machine-written JSON line) live in util/json.h. `ckpt::` remains only
// because the serve benchmark (servebench/bench_serve.cc) still spells
// them that way; new code uses `json::`.
namespace ckpt = json;

}  // namespace traceweaver
