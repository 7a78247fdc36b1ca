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
// Files are written through WriteFilesAtomic (temporary files rename()d
// into place), so a crash mid-write leaves the previous set intact.
//
// Each record type lists its fields once, in a template such as
// `template <class F, class Slot> void SlotFields(F& f, Slot& s)` calling
// `f("server_recv", s.server_recv)` per field. The saver runs it with a
// RecordWriter, the loader with a RecordReader, so names, order and
// encodings cannot drift apart, and a record missing a field is rejected.
#pragma once

#include <charconv>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/json.h"

namespace traceweaver {

/// CRC-32 (reflected, polynomial 0xEDB88320) of `data`, continuing from
/// `seed` (pass the previous return value to checksum incrementally).
std::uint32_t Crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

/// Streams payload lines to `out` while accumulating the CRC; Finish()
/// writes the footer. One writer per file; lines must not contain '\n'.
/// crc() after each WriteLine is the running CRC of the file so far, the
/// value a reader can check that line against (ReadChecksummedLines'
/// `crcs`).
class ChecksummedWriter {
 public:
  ChecksummedWriter(std::ostream& out, std::string schema);

  /// Writes one payload line (newline appended and checksummed).
  void WriteLine(const std::string& line);

  /// Writes the footer; no further WriteLine calls are allowed.
  void Finish();

  std::size_t lines_written() const { return lines_; }
  /// CRC-32 of every byte written so far (newlines included).
  std::uint32_t crc() const { return crc_; }

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
/// mismatch or CRC failure. With `crcs`, it also returns the running CRC
/// after each payload line ((*crcs)[i] covers the bytes of lines 0..i and
/// their newlines), so a later reader can verify line i alone: its bytes
/// and newline, checksummed from (*crcs)[i - 1], give (*crcs)[i].
std::optional<std::vector<std::string>> ReadChecksummedLines(
    std::istream& in, const std::string& schema, std::string* error,
    std::vector<std::uint32_t>* crcs = nullptr);

/// Appends a record's fields to a line: integers in decimal
/// (std::to_string's spelling), doubles as json::Exact, strings
/// JSON-escaped, bools as the digits 1/0, a char as a one-character
/// string. Keys are plain literals, written unescaped.
class RecordWriter {
 public:
  /// Starts a record in `line`, replacing its contents but keeping its
  /// capacity: `{`, or `{"ckpt":"<tag>"` for a type-tagged record.
  explicit RecordWriter(std::string& line, std::string_view tag = {})
      : line_(line), first_(tag.empty()) {
    line_.assign(1, '{');
    if (!tag.empty()) json::AppendStrField(line_, "ckpt", tag);
  }

  template <class T>
  void operator()(std::string_view key, const T& value) {
    line_ += first_ ? "\"" : ",\"";
    first_ = false;
    line_ += key;
    line_ += "\":";
    if constexpr (std::is_same_v<T, bool>) {
      line_ += value ? '1' : '0';
    } else if constexpr (std::is_same_v<T, char>) {
      json::AppendStr(line_, std::string_view(&value, 1));
    } else if constexpr (std::is_integral_v<T>) {
      char buf[24];
      line_.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
    } else if constexpr (std::is_floating_point_v<T>) {
      json::AppendExact(line_, value);
    } else {
      json::AppendStr(line_, value);
    }
  }

  /// Closes the record (`}`) and returns the finished line.
  const std::string& Finish() { return line_ += '}'; }

 private:
  std::string& line_;
  bool first_;
};

/// Reads a record's fields back from one line. A field that is absent,
/// does not parse, or does not fit its type (a bool other than 0/1, a
/// char other than a one-byte string, an out-of-range integer) marks the
/// record bad and leaves its target unchanged.
class RecordReader {
 public:
  explicit RecordReader(std::string_view line) : line_(line) {}

  template <class T>
  void operator()(std::string_view key, T& value) {
    if constexpr (std::is_same_v<T, bool>) {
      const auto v = json::FieldU64(line_, key);
      if (!v || *v > 1) return Fail(key);
      value = *v != 0;
    } else if constexpr (std::is_same_v<T, char>) {
      const auto v = json::FieldStr(line_, key);
      if (!v || v->size() != 1) return Fail(key);
      value = (*v)[0];
    } else if constexpr (std::is_integral_v<T>) {
      const auto v = [&] {
        if constexpr (std::is_signed_v<T>) {
          return json::FieldI64(line_, key);
        } else {
          return json::FieldU64(line_, key);
        }
      }();
      if (!v || !std::in_range<T>(*v)) return Fail(key);
      value = static_cast<T>(*v);
    } else if constexpr (std::is_floating_point_v<T>) {
      const auto v = json::FieldF64(line_, key);
      if (!v) return Fail(key);
      value = *v;
    } else {
      auto v = json::FieldStr(line_, key);
      if (!v) return Fail(key);
      value = std::move(*v);
    }
  }

  bool ok() const { return bad_key_.empty(); }
  /// The first field that was missing or malformed ("" while ok()).
  std::string_view bad_key() const { return bad_key_; }

 private:
  void Fail(std::string_view key) {
    if (ok()) bad_key_ = key;
  }

  std::string_view line_;
  std::string_view bad_key_;
};

/// One member of a WriteFilesAtomic set: `write` fills the file.
struct FileWrite {
  std::string path;
  std::function<void(std::ostream&)> write;
};

/// Replaces the files of a set as one unit. Prepare: every `<path>.tmp`
/// is filled in order (opened binary, truncated, flushed, checked).
/// Commit: each is rename()d over its path, in order. The last file is
/// the commit marker: written last, so once its `.tmp` is whole the
/// prepare finished (RecoverFilesAtomic). A one-file set leaves the old
/// file or the new one, never a half-written one. No fsync: this
/// survives a killed process, not a lost page cache. A failed rename
/// leaves a mixed set until the next successful call. False with a
/// reason in *error on any failure.
bool WriteFilesAtomic(const std::vector<FileWrite>& files,
                      std::string* error = nullptr);

/// Finishes a WriteFilesAtomic of `paths` that a crash cut short: when
/// the last path's `.tmp` reads back as a whole `marker_schema` file,
/// every `.tmp` left is renamed into place (roll forward); otherwise each
/// is deleted (roll back). The set is then wholly old or wholly new.
/// False with *error when a rename or delete fails.
bool RecoverFilesAtomic(const std::vector<std::string>& paths,
                        const std::string& marker_schema,
                        std::string* error = nullptr);

// Field helpers for the records inside a checkpoint (and every other
// machine-written JSON line) live in util/json.h. `ckpt::` remains only
// because the serve benchmark (servebench/bench_serve.cc) still spells
// them that way; new code uses `json::`.
namespace ckpt = json;

}  // namespace traceweaver
