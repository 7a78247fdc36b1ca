#include "trace/checkpoint.h"

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <system_error>
#include <utility>

namespace traceweaver {
namespace {

/// Slicing-by-8 tables: kTables[0] is the bytewise table of the reflected
/// polynomial 0xEDB88320, and kTables[k][i] is the CRC of byte i followed
/// by k zero bytes, so one step folds 8 input bytes with 8 lookups.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables BuildCrcTables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

std::string FooterLine(const std::string& schema, std::size_t lines,
                       std::uint32_t crc) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"footer\":\"%s\",\"lines\":%zu,\"crc32\":%lu}",
                schema.c_str(), lines, static_cast<unsigned long>(crc));
  return buf;
}

void SetError(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
}

}  // namespace

std::uint32_t Crc32(const void* data, std::size_t size, std::uint32_t seed) {
  static const CrcTables kTables = BuildCrcTables();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  // 8 bytes per step: the low 4 fold into the running CRC, then each of
  // the 8 bytes is advanced past the ones after it by its own table. Bytes
  // are assembled explicitly, so the result is independent of alignment
  // and host byte order.
  for (; size >= 8; p += 8, size -= 8) {
    const std::uint32_t lo =
        c ^ (static_cast<std::uint32_t>(p[0]) |
             static_cast<std::uint32_t>(p[1]) << 8 |
             static_cast<std::uint32_t>(p[2]) << 16 |
             static_cast<std::uint32_t>(p[3]) << 24);
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
        kTables[3][p[4]] ^ kTables[2][p[5]] ^ kTables[1][p[6]] ^
        kTables[0][p[7]];
  }
  for (; size > 0; ++p, --size) {
    c = kTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

ChecksummedWriter::ChecksummedWriter(std::ostream& out, std::string schema)
    : out_(out), schema_(std::move(schema)) {}

void ChecksummedWriter::WriteLine(const std::string& line) {
  // Incremental CRC: seed with the running value so Finish() guards the
  // exact byte stream written (including newlines).
  crc_ = Crc32(line.data(), line.size(), crc_);
  const char nl = '\n';
  crc_ = Crc32(&nl, 1, crc_);
  out_ << line << '\n';
  ++lines_;
}

void ChecksummedWriter::Finish() {
  if (finished_) return;
  finished_ = true;
  out_ << FooterLine(schema_, lines_, crc_) << '\n';
  out_.flush();
}

bool WriteFilesAtomic(const std::vector<FileWrite>& files,
                      std::string* error) {
  if (files.empty()) return true;
  // A stale marker left by a failed commit must not vouch for the set
  // this call is about to prepare.
  std::remove((files.back().path + ".tmp").c_str());
  for (const FileWrite& f : files) {
    const std::string tmp = f.path + ".tmp";
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      SetError(error, "cannot write " + tmp);
      return false;
    }
    f.write(out);
    out.flush();
    if (!out) {
      SetError(error, "write failed on " + tmp);
      return false;
    }
  }
  for (const FileWrite& f : files) {
    const std::string tmp = f.path + ".tmp";
    if (std::rename(tmp.c_str(), f.path.c_str()) != 0) {
      SetError(error, "cannot rename " + tmp);
      return false;
    }
  }
  return true;
}

bool RecoverFilesAtomic(const std::vector<std::string>& paths,
                        const std::string& marker_schema,
                        std::string* error) {
  if (paths.empty()) return true;
  std::ifstream marker(paths.back() + ".tmp", std::ios::binary);
  const bool roll_forward =
      marker && ReadChecksummedLines(marker, marker_schema, nullptr);
  marker.close();
  for (const std::string& path : paths) {
    const std::string tmp = path + ".tmp";
    std::error_code ec;
    if (!std::filesystem::exists(tmp, ec)) continue;
    if (roll_forward ? std::rename(tmp.c_str(), path.c_str()) != 0
                     : std::remove(tmp.c_str()) != 0) {
      SetError(error, "cannot recover " + tmp);
      return false;
    }
  }
  return true;
}

std::optional<std::vector<std::string>> ReadChecksummedLines(
    std::istream& in, const std::string& schema, std::string* error,
    std::vector<std::uint32_t>* crcs) {
  if (crcs != nullptr) crcs->clear();
  std::vector<std::string> lines;
  std::string line;
  std::uint32_t crc = 0;
  while (std::getline(in, line)) {
    if (line.rfind("{\"footer\":", 0) == 0) {
      const auto fschema = json::FieldStr(line, "footer");
      const auto flines = json::FieldU64(line, "lines");
      const auto fcrc = json::FieldU64(line, "crc32");
      if (!fschema || !flines || !fcrc) {
        SetError(error, "malformed checkpoint footer");
        return std::nullopt;
      }
      if (*fschema != schema) {
        SetError(error, "checkpoint schema mismatch: found " + *fschema +
                            ", expected " + schema);
        return std::nullopt;
      }
      if (*flines != lines.size()) {
        SetError(error, "checkpoint line count mismatch (truncated file?)");
        return std::nullopt;
      }
      if (*fcrc != crc) {
        SetError(error, "checkpoint CRC mismatch (corrupted file)");
        return std::nullopt;
      }
      // A footer cut short by a byte or two still parses above.
      if (in.eof() || line != FooterLine(schema, lines.size(), crc)) {
        SetError(error, "checkpoint footer truncated");
        return std::nullopt;
      }
      return lines;
    }
    crc = Crc32(line.data(), line.size(), crc);
    const char nl = '\n';
    crc = Crc32(&nl, 1, crc);
    if (crcs != nullptr) crcs->push_back(crc);
    lines.push_back(std::move(line));
  }
  SetError(error, "checkpoint footer missing (truncated file?)");
  return std::nullopt;
}

}  // namespace traceweaver
