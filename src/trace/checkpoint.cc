#include "trace/checkpoint.h"

#include <array>
#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>

namespace traceweaver {
namespace {

std::array<std::uint32_t, 256> BuildCrcTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

void SetError(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
}

}  // namespace

std::uint32_t Crc32(const void* data, std::size_t size, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> kTable = BuildCrcTable();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    c = kTable[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
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
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"footer\":\"%s\",\"lines\":%zu,\"crc32\":%lu}",
                schema_.c_str(), lines_, static_cast<unsigned long>(crc_));
  out_ << buf << '\n';
  out_.flush();
}

bool WriteFileAtomic(const std::string& path,
                     const std::function<void(std::ostream&)>& write,
                     std::string* error) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      SetError(error, "cannot write " + tmp);
      return false;
    }
    write(out);
    out.flush();
    if (!out) {
      SetError(error, "write failed on " + tmp);
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    SetError(error, "cannot rename " + tmp);
    return false;
  }
  return true;
}

std::optional<std::vector<std::string>> ReadChecksummedLines(
    std::istream& in, const std::string& schema, std::string* error) {
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
      return lines;
    }
    crc = Crc32(line.data(), line.size(), crc);
    const char nl = '\n';
    crc = Crc32(&nl, 1, crc);
    lines.push_back(line);
  }
  SetError(error, "checkpoint footer missing (truncated file?)");
  return std::nullopt;
}

}  // namespace traceweaver
