#include "store/store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <unordered_map>
#include <utility>

#include "trace/checkpoint.h"
#include "util/json.h"

namespace traceweaver::store {
namespace fs = std::filesystem;

TraceStore::TraceStore(std::string dir, StoreOptions options)
    : dir_(std::move(dir)), options_(options) {
  snapshot_ = std::make_shared<const Snapshot>();
  RegisterMetrics();
}

TraceStore::~TraceStore() = default;

void TraceStore::RegisterMetrics() {
  obs::MetricsRegistry* reg = options_.metrics;
  if (reg == nullptr) return;
  commits_ = reg->GetCounter("tw_store_commits_total", "",
                             "Traces committed to the store", "1");
  duplicates_ =
      reg->GetCounter("tw_store_duplicate_commits_total", "",
                      "Commits dropped because the trace id was already "
                      "stored (checkpoint replay)",
                      "1");
  seals_ = reg->GetCounter("tw_store_segments_sealed_total", "",
                           "Active segments sealed to disk", "1");
  load_failures_ =
      reg->GetCounter("tw_store_segment_load_failures_total", "",
                      "Segment files rejected at open (CRC, schema, "
                      "truncation, IO), then records that fail to read "
                      "back and fetches whose file cannot be opened",
                      "1");
  queries_ = reg->GetCounter("tw_store_queries_total", "",
                             "Query calls served", "1");
  query_results_ = reg->GetCounter("tw_store_query_results_total", "",
                                   "Trace summaries emitted by queries", "1");
  cache_hits_ = reg->GetCounter("tw_store_cache_hits_total", "",
                                "Hot-trace cache hits", "1");
  cache_misses_ = reg->GetCounter("tw_store_cache_misses_total", "",
                                  "Hot-trace cache misses", "1");
  cache_evictions_ = reg->GetCounter("tw_store_cache_evictions_total", "",
                                     "Hot-trace cache evictions", "1");
  disk_reads_ = reg->GetCounter("tw_store_segment_reads_total", "",
                                "Sealed segment files opened to read "
                                "records back for a fetch",
                                "1");
  traces_gauge_ = reg->GetGauge("tw_store_traces", "",
                                "Traces in the store (all segments)", "1");
  segments_gauge_ =
      reg->GetGauge("tw_store_segments", "", "Sealed segments", "1");
  active_gauge_ = reg->GetGauge("tw_store_active_traces", "",
                                "Unsealed traces in the active segment", "1");
}

void TraceStore::Publish(std::shared_ptr<const Snapshot> snapshot) {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  snapshot_ = std::move(snapshot);
}

std::shared_ptr<const TraceStore::Snapshot> TraceStore::Load() const {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return snapshot_;
}

void TraceStore::SegmentPart::Index() {
  by_id.clear();
  for (const TraceSummary& s : summaries) {
    by_id.emplace_back(s.trace_id, s.line);
    min_start = std::min(min_start, s.start);
    max_end = std::max(max_end, s.end);
  }
  std::sort(by_id.begin(), by_id.end());
}

std::string TraceStore::SegmentPath(std::uint32_t id) const {
  char name[32];
  std::snprintf(name, sizeof(name), "segment-%06u.jsonl", id);
  return dir_ + "/" + name;
}

std::optional<TraceStore::OpenStats> TraceStore::Open(std::string* error) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    if (error != nullptr) *error = "cannot create " + dir_;
    return std::nullopt;
  }

  std::vector<std::pair<std::uint32_t, std::string>> files;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    unsigned id = 0;
    char tail = 0;
    // Only fully-named sealed segments; .tmp files from a crashed seal
    // are ignored (and overwritten by the next seal of that id).
    if (std::sscanf(name.c_str(), "segment-%06u.jsonl%c", &id, &tail) == 1) {
      files.emplace_back(id, entry.path().string());
    }
  }
  if (ec) {
    if (error != nullptr) *error = "cannot scan " + dir_;
    return std::nullopt;
  }
  std::sort(files.begin(), files.end());

  OpenStats stats;
  auto snapshot = std::make_shared<Snapshot>();
  for (const auto& [id, file] : files) {
    next_segment_ = std::max(next_segment_, id + 1);
    std::ifstream in(file, std::ios::binary);
    std::vector<std::uint32_t> crcs;
    const auto lines =
        in ? ReadChecksummedLines(in, kSegmentSchema, nullptr, &crcs)
           : std::nullopt;
    bool ok = lines.has_value() && !lines->empty();
    auto part = std::make_shared<SegmentPart>();
    if (ok) {
      part->id = id;
      part->file = file;
      part->header_crc = crcs[0];
      std::uint64_t offset = (*lines)[0].size() + 1;
      for (std::size_t i = 1; i < lines->size() && ok; ++i) {
        const std::string& line = (*lines)[i];
        part->lines.push_back(
            {offset, static_cast<std::uint32_t>(line.size()), crcs[i]});
        offset += line.size() + 1;
        std::size_t provenance = 0;
        auto record = TraceRecordFromJson(line, &provenance);
        if (!record || known_ids_.count(record->trace_id) > 0) {
          ok = false;
          break;
        }
        TraceSummary s;
        s.trace_id = record->trace_id;
        s.root_service = record->root_service;
        s.root_endpoint = record->root_endpoint;
        s.start = record->start;
        s.end = record->end;
        s.grade = record->grade;
        s.confidence = record->confidence;
        s.orphan = record->orphan;
        s.span_count = record->spans.size();
        s.segment = id;
        s.line = static_cast<std::uint32_t>(i - 1);
        if (provenance != std::string::npos) {
          s.provenance = static_cast<std::uint32_t>(provenance);
        }
        part->summaries.push_back(std::move(s));
      }
    }
    if (!ok) {
      ++stats.segments_rejected;
      load_failures_.Inc();
      continue;
    }
    for (const TraceSummary& s : part->summaries) {
      known_ids_.insert(s.trace_id);
    }
    part->Index();
    stats.traces_loaded += part->summaries.size();
    ++stats.segments_loaded;
    snapshot->sealed.push_back(std::move(part));
  }
  Publish(std::move(snapshot));
  traces_gauge_.Set(static_cast<std::int64_t>(known_ids_.size()));
  segments_gauge_.Set(static_cast<std::int64_t>(stats.segments_loaded));
  active_gauge_.Set(0);
  return stats;
}

bool TraceStore::Commit(const TraceRecord& record) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  if (record.trace_id == kInvalidSpanId ||
      !known_ids_.insert(record.trace_id).second) {
    duplicates_.Inc();
    return false;
  }

  TraceSummary s;
  s.trace_id = record.trace_id;
  s.root_service = record.root_service;
  s.root_endpoint = record.root_endpoint;
  s.start = record.start;
  s.end = record.end;
  s.grade = record.grade;
  s.confidence = record.confidence;
  s.orphan = record.orphan;
  s.span_count = record.spans.size();
  s.segment = TraceSummary::kActiveSegment;
  // The one encode of this record: the seal writes these bytes and every
  // read serves them. Copied out of the encoder's buffer so the held line
  // carries no growth slack.
  std::size_t provenance = 0;
  const std::string encoded = TraceRecordToJson(record, &provenance);
  auto line = std::make_shared<const std::string>(encoded);
  if (provenance != std::string::npos) {
    s.provenance = static_cast<std::uint32_t>(provenance);
  }

  const auto current = Load();
  auto next = std::make_shared<Snapshot>(*current);
  s.line = static_cast<std::uint32_t>(next->active_summaries.size());
  next->active_summaries.push_back(std::move(s));
  next->active_lines.push_back(std::move(line));
  const std::size_t active = next->active_summaries.size();
  Publish(std::move(next));

  commits_.Inc();
  traces_gauge_.Set(static_cast<std::int64_t>(known_ids_.size()));
  active_gauge_.Set(static_cast<std::int64_t>(active));
  if (options_.segment_traces > 0 && active >= options_.segment_traces) {
    SealLocked(nullptr);
  }
  return true;
}

bool TraceStore::Seal(std::string* error) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  return SealLocked(error);
}

bool TraceStore::SealLocked(std::string* error) {
  const auto current = Load();
  if (current->active_summaries.empty()) return true;

  const std::uint32_t id = next_segment_;
  const std::string path = SegmentPath(id);
  auto part = std::make_shared<SegmentPart>();
  const auto write = [&](std::ostream& out) {
    ChecksummedWriter writer(out, kSegmentSchema);
    std::string header;
    RecordWriter r(header);
    r("schema", kSegmentSchema);
    r("segment", id);
    r("traces", current->active_lines.size());
    writer.WriteLine(r.Finish());
    part->header_crc = writer.crc();
    std::uint64_t offset = header.size() + 1;
    for (const RecordLine& line : current->active_lines) {
      writer.WriteLine(*line);
      part->lines.push_back(
          {offset, static_cast<std::uint32_t>(line->size()), writer.crc()});
      offset += line->size() + 1;
    }
    writer.Finish();
  };
  if (!WriteFilesAtomic({{path, write}}, error)) return false;

  part->id = id;
  part->file = path;
  part->summaries = current->active_summaries;
  for (TraceSummary& s : part->summaries) {
    s.segment = id;  // line index already assigned at commit.
  }
  part->Index();

  auto next = std::make_shared<Snapshot>();
  next->sealed = current->sealed;
  next->sealed.push_back(part);
  Publish(std::move(next));
  next_segment_ = id + 1;

  // Freshly sealed records stay hot: recent commits are the likeliest
  // fetches and their memory was already paid for.
  for (std::size_t i = 0; i < current->active_lines.size(); ++i) {
    CacheInsert(current->active_summaries[i].trace_id,
                current->active_lines[i]);
  }
  seals_.Inc();
  segments_gauge_.Set(static_cast<std::int64_t>(next_segment_));
  active_gauge_.Set(0);
  return true;
}

bool TraceStore::Contains(SpanId trace_id) const {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  return known_ids_.count(trace_id) > 0;
}

RecordLine TraceStore::CacheLookup(SpanId id) const {
  if (options_.cache_traces == 0) return nullptr;
  std::lock_guard<std::mutex> lock(cache_mutex_);
  const auto it = cache_index_.find(id);
  if (it == cache_index_.end()) return nullptr;
  cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
  return it->second->second;
}

void TraceStore::CacheInsert(SpanId id, RecordLine line) const {
  if (options_.cache_traces == 0 || line == nullptr) return;
  std::lock_guard<std::mutex> lock(cache_mutex_);
  const auto it = cache_index_.find(id);
  if (it != cache_index_.end()) {
    cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
    return;
  }
  cache_lru_.emplace_front(id, std::move(line));
  cache_index_[id] = cache_lru_.begin();
  while (cache_lru_.size() > options_.cache_traces) {
    cache_index_.erase(cache_lru_.back().first);
    cache_lru_.pop_back();
    cache_evictions_.Inc();
  }
}

namespace {

/// Reads exactly out->size() bytes at `offset`; false on an IO error or a
/// file that ends first.
bool ReadAt(int fd, std::uint64_t offset, std::string* out) {
  std::size_t done = 0;
  while (done < out->size()) {
    const ssize_t n = ::pread(fd, out->data() + done, out->size() - done,
                              static_cast<off_t>(offset + done));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

std::vector<RecordLine> TraceStore::ReadSealed(
    const SegmentPart& part,
    const std::vector<const TraceSummary*>& wanted) const {
  disk_reads_.Inc();
  std::vector<RecordLine> lines(wanted.size());
  const int fd = ::open(part.file.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    load_failures_.Inc();
    return lines;
  }
  std::string bytes;
  for (std::size_t k = 0; k < wanted.size(); ++k) {
    const TraceSummary& s = *wanted[k];
    const LineRef& at = part.lines[s.line];
    const std::uint32_t seed =
        s.line == 0 ? part.header_crc : part.lines[s.line - 1].crc;
    // The line and its newline, checked against the CRC the file had
    // after them when it was indexed: a line that passes is the one Open
    // decoded or the seal wrote, so it is served without a decode.
    bytes.resize(std::size_t{at.size} + 1);
    const bool intact = ReadAt(fd, at.offset, &bytes) &&
                        bytes.back() == '\n' &&
                        Crc32(bytes.data(), bytes.size(), seed) == at.crc;
    const std::string_view line(bytes.data(), at.size);
    // A file replaced since Open can verify yet hold other traces; the
    // trace id is the record's second key, so this reads a line prefix.
    std::uint64_t id = 0;
    if (!intact || !json::ReadU64(line, json::FindValue(line, "trace"), &id) ||
        id != s.trace_id) {
      load_failures_.Inc();
      continue;
    }
    // Copied out of the reused read buffer at its exact size.
    lines[k] = std::make_shared<const std::string>(line);
    CacheInsert(s.trace_id, lines[k]);
  }
  ::close(fd);
  return lines;
}

RecordLine TraceStore::GetLine(SpanId trace_id, TraceSummary* summary) const {
  const auto snapshot = Load();
  // Active segment: newest records, already in memory.
  for (std::size_t i = snapshot->active_summaries.size(); i-- > 0;) {
    if (snapshot->active_summaries[i].trace_id == trace_id) {
      if (summary != nullptr) *summary = snapshot->active_summaries[i];
      return snapshot->active_lines[i];
    }
  }
  for (std::size_t s = snapshot->sealed.size(); s-- > 0;) {
    const SegmentPart& part = *snapshot->sealed[s];
    const auto it = std::lower_bound(
        part.by_id.begin(), part.by_id.end(),
        std::make_pair(trace_id, std::uint32_t{0}));
    if (it == part.by_id.end() || it->first != trace_id) continue;
    const TraceSummary& found = part.summaries[it->second];
    RecordLine line = CacheLookup(trace_id);
    if (line != nullptr) {
      cache_hits_.Inc();
    } else {
      cache_misses_.Inc();
      line = ReadSealed(part, {&found}).front();
    }
    if (line != nullptr && summary != nullptr) *summary = found;
    return line;
  }
  return nullptr;
}

std::shared_ptr<const TraceRecord> TraceStore::Get(SpanId trace_id) const {
  const RecordLine line = GetLine(trace_id);
  if (line == nullptr) return nullptr;
  auto record = TraceRecordFromJson(*line);
  if (!record) return nullptr;
  return std::make_shared<const TraceRecord>(std::move(*record));
}

namespace {

bool Matches(const TraceSummary& s, const TraceQuery& q) {
  if (!q.service.empty() && s.root_service != q.service) return false;
  if (s.end < q.from || s.start > q.to) return false;
  if (s.grade > q.max_grade) return false;
  if (s.confidence < q.min_confidence) return false;
  return true;
}

}  // namespace

std::vector<const TraceSummary*> TraceStore::Select(const Snapshot& snapshot,
                                                    const TraceQuery& query) {
  std::vector<const TraceSummary*> matches;
  for (const auto& part : snapshot.sealed) {
    if (part->max_end < query.from || part->min_start > query.to) continue;
    for (const TraceSummary& s : part->summaries) {
      if (Matches(s, query)) matches.push_back(&s);
    }
  }
  for (const TraceSummary& s : snapshot.active_summaries) {
    if (Matches(s, query)) matches.push_back(&s);
  }
  // (start, trace_id) is a total order, so sorting only the first `limit`
  // gives the same prefix a full sort would.
  const auto by_start = [](const TraceSummary* a, const TraceSummary* b) {
    if (a->start != b->start) return a->start < b->start;
    return a->trace_id < b->trace_id;
  };
  if (query.limit > 0 && matches.size() > query.limit) {
    std::partial_sort(matches.begin(), matches.begin() + query.limit,
                      matches.end(), by_start);
    matches.resize(query.limit);
  } else {
    std::sort(matches.begin(), matches.end(), by_start);
  }
  return matches;
}

std::vector<TraceSummary> TraceStore::QuerySummaries(
    const TraceQuery& query) const {
  const auto snapshot = Load();
  std::vector<TraceSummary> summaries;
  for (const TraceSummary* s : Select(*snapshot, query)) {
    summaries.push_back(*s);
  }
  return summaries;
}

std::size_t TraceStore::Query(
    const TraceQuery& query,
    const std::function<bool(const TraceSummary&, const RecordLine&)>& emit)
    const {
  queries_.Inc();
  const auto snapshot = Load();
  const auto matches = Select(*snapshot, query);

  // next[i]: the next match after i in the same sealed segment, so the
  // first match of a segment fetches the lines of all of them.
  constexpr std::size_t kEnd = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> next(matches.size(), kEnd);
  std::unordered_map<std::uint32_t, std::size_t> first;
  for (std::size_t i = matches.size(); i-- > 0;) {
    if (matches[i]->segment == TraceSummary::kActiveSegment) continue;
    const auto [it, fresh] = first.try_emplace(matches[i]->segment, i);
    if (!fresh) next[i] = std::exchange(it->second, i);
  }

  std::vector<RecordLine> lines(matches.size());
  std::vector<bool> fetched(matches.size(), false);
  std::vector<std::size_t> misses;
  std::vector<const TraceSummary*> wanted;
  std::size_t emitted = 0;
  for (std::size_t i = 0; i < matches.size(); ++i) {
    const TraceSummary& s = *matches[i];
    if (s.segment == TraceSummary::kActiveSegment) {
      lines[i] = snapshot->active_lines[s.line];
    } else if (!fetched[i]) {
      misses.clear();
      wanted.clear();
      for (std::size_t j = i; j != kEnd; j = next[j]) {
        fetched[j] = true;
        lines[j] = CacheLookup(matches[j]->trace_id);
        if (lines[j] != nullptr) {
          cache_hits_.Inc();
          continue;
        }
        cache_misses_.Inc();
        misses.push_back(j);
        wanted.push_back(matches[j]);
      }
      if (!wanted.empty()) {
        const auto part = std::lower_bound(
            snapshot->sealed.begin(), snapshot->sealed.end(), s.segment,
            [](const std::shared_ptr<const SegmentPart>& p,
               std::uint32_t id) { return p->id < id; });
        auto read = ReadSealed(**part, wanted);
        for (std::size_t k = 0; k < misses.size(); ++k) {
          lines[misses[k]] = std::move(read[k]);
        }
      }
    }
    ++emitted;
    query_results_.Inc();
    // Released once emitted: a listing holds only lines still ahead.
    const RecordLine line = std::move(lines[i]);
    if (!emit(s, line)) break;
  }
  return emitted;
}

std::size_t TraceStore::size() const {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  return known_ids_.size();
}

std::size_t TraceStore::sealed_segments() const {
  return Load()->sealed.size();
}

std::size_t TraceStore::active_traces() const {
  return Load()->active_summaries.size();
}

}  // namespace traceweaver::store
