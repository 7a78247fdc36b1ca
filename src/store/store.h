// The persistent, queryable trace store (DESIGN.md §4h).
//
// Committed traces (TraceRecord, trace/trace_record.h) land in append-only
// *segments*. The store's unit is the record's line: Commit encodes each
// record once (TraceRecordToJson), and from then on the store keeps,
// writes, caches and serves those bytes without decoding them again. The
// active segment accumulates lines in memory; when it reaches
// `segment_traces` records (or Seal() is called -- the serve loop seals
// at every checkpoint and at shutdown) they are written to
// `<dir>/segment-NNNNNN.jsonl` with the same discipline as checkpoints:
// CRC-32-guarded payload (trace/checkpoint.h, schema
// `traceweaver.store.segment.v1`) written to a temporary file and
// rename()d into place, so a crash mid-seal leaves no half segment and a
// reopened store only ever sees whole ones.
//
// Durability contract: sealed segments are durable; active (unsealed)
// records are not. Recovery without loss or duplication comes from pairing
// seals with the serve loop's checkpoints -- the store seals *before* the
// checkpoint records the source offset, so on resume every trace the
// checkpoint considers consumed is on disk, replay from the offset
// regenerates whatever was in flight, and Commit() is idempotent by trace
// id so re-committed traces are dropped silently.
//
// Concurrency: one writer (the ingest loop), any number of readers (HTTP
// workers, the query CLI). Readers never take the writer's lock: every
// mutation builds the next immutable index snapshot off-lock and swaps it
// in under a dedicated pointer mutex held only for a shared_ptr copy
// (snapshot-on-commit; sealed segments share their per-segment summary
// vectors across snapshots, so the per-commit copy is bounded by the
// active segment). Lines of sealed segments are fetched from disk through
// a bounded LRU hot-trace cache with its own small mutex -- neither lock
// is ever held across IO or a query walk.
//
// Per-record reads: Open (which decodes every record in full) and the
// seal already checksum every line, so each sealed segment's index
// keeps, per record line, its byte offset, its length and the file's
// running CRC-32 after it. A fetch opens the file once and reads only
// the wanted lines; each is verified on its own (its newline, its CRC
// seeded with the previous line's running value, and the trace id in its
// `trace` field) and served as read, so a damaged line fails only its
// own record and the bytes served are the bytes stored. One Query opens
// each sealed segment at most once.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/metrics.h"
#include "trace/trace_record.h"

namespace traceweaver::store {

struct StoreOptions {
  /// Records per segment; the active segment auto-seals at this size.
  std::size_t segment_traces = 256;
  /// Hot-trace LRU capacity (record lines cached in memory after a disk
  /// fetch). 0 disables caching.
  std::size_t cache_traces = 128;
  /// Metric sink for the tw_store_* family (docs/METRICS.md). Null
  /// disables recording. Not owned.
  obs::MetricsRegistry* metrics = nullptr;
};

/// The index entry for one committed trace: everything queries filter on,
/// plus where the record body lives.
struct TraceSummary {
  SpanId trace_id = kInvalidSpanId;
  std::string root_service;
  std::string root_endpoint;
  TimeNs start = 0;
  TimeNs end = 0;
  char grade = 'D';
  double confidence = 0.0;
  bool orphan = false;
  std::size_t span_count = 0;
  /// Sealed segment id, or kActiveSegment while the record is unsealed.
  std::uint32_t segment = 0;
  /// Payload line index within the segment (0 = first record line).
  std::uint32_t line = 0;
  /// Where the value of the line's `provenance` key starts (what
  /// json::FindValue gives), or 0 when the record has no provenance block.
  std::uint32_t provenance = 0;

  static constexpr std::uint32_t kActiveSegment =
      std::numeric_limits<std::uint32_t>::max();
};

/// One stored record: its TraceRecordToJson line (no newline), exactly
/// the bytes its segment file holds or will hold once sealed, and exactly
/// sized (no spare capacity).
using RecordLine = std::shared_ptr<const std::string>;

/// Query filter; default-constructed matches everything.
struct TraceQuery {
  /// Exact root-service match; empty matches any.
  std::string service;
  /// Time-range overlap: a trace matches when [start, end] intersects
  /// [from, to].
  TimeNs from = std::numeric_limits<TimeNs>::min();
  TimeNs to = std::numeric_limits<TimeNs>::max();
  /// Worst acceptable grade: 'A' keeps only A traces, 'D' (default) all.
  char max_grade = 'D';
  double min_confidence = 0.0;
  /// Maximum results; 0 means unlimited.
  std::size_t limit = 0;
};

class TraceStore {
 public:
  static constexpr const char* kSegmentSchema =
      "traceweaver.store.segment.v1";

  explicit TraceStore(std::string dir, StoreOptions options = {});
  ~TraceStore();
  TraceStore(const TraceStore&) = delete;
  TraceStore& operator=(const TraceStore&) = delete;

  struct OpenStats {
    std::size_t segments_loaded = 0;
    std::size_t traces_loaded = 0;
    /// Truncated / corrupted / wrong-schema segment files skipped (each
    /// also counted in tw_store_segment_load_failures_total).
    std::size_t segments_rejected = 0;
  };

  /// Scans `dir` for sealed segments and rebuilds the index. A segment is
  /// rejected when its CRC footer fails, when any record in it does not
  /// decode in full (TraceRecordFromJson: every field, span and
  /// provenance event), or when it repeats a trace id already loaded.
  /// Rejected segments are skipped, never deleted. Returns nullopt only
  /// when the directory itself is unusable.
  std::optional<OpenStats> Open(std::string* error = nullptr);

  /// Commits one trace: encodes it once (TraceRecordToJson) and keeps the
  /// line. Idempotent by trace id: a duplicate is dropped (returns false)
  /// so checkpoint-replay after a crash cannot double-commit. May seal the
  /// active segment when it reaches segment_traces.
  bool Commit(const TraceRecord& record);

  /// Seals the active segment to disk (tmp + rename), writing the lines
  /// Commit encoded. No-op when the active segment is empty. Returns
  /// false with *error on IO failure (records stay active and a later
  /// Seal retries).
  bool Seal(std::string* error = nullptr);

  bool Contains(SpanId trace_id) const;

  /// Fetches one record's line: active segment and LRU hits are memory
  /// reads, misses read and verify the record's own line of its segment
  /// file. Null when the id is unknown, the file cannot be opened, or the
  /// line no longer reads back as the one indexed at Open or seal. With
  /// `summary`, a found line's index entry is copied there.
  RecordLine GetLine(SpanId trace_id, TraceSummary* summary = nullptr) const;

  /// GetLine, decoded, for callers that need the record's fields
  /// (explain, tests). Null when GetLine is.
  std::shared_ptr<const TraceRecord> Get(SpanId trace_id) const;

  /// Streams every match in (start, trace_id) order through `emit` until
  /// the limit is reached or `emit` returns false. The whole listing reads
  /// one snapshot: when a match misses the cache, its segment file is
  /// opened once for every uncached match it holds, whose lines are read,
  /// verified, put in the cache and held until emitted. Lines are never
  /// decoded. The line is null only when it could not be read back
  /// (counted in tw_store_segment_load_failures_total). Returns the
  /// number of matches emitted.
  std::size_t Query(
      const TraceQuery& query,
      const std::function<bool(const TraceSummary&, const RecordLine&)>& emit)
      const;

  /// Matching summaries only (no record fetch), same order as Query.
  std::vector<TraceSummary> QuerySummaries(const TraceQuery& query) const;

  std::size_t size() const;            ///< Committed traces (all segments).
  std::size_t sealed_segments() const;
  std::size_t active_traces() const;   ///< Unsealed (memory-only) records.
  const std::string& dir() const { return dir_; }

 private:
  /// Where one record line sits in its segment file, and the file's
  /// running CRC-32 after it (line and newline included).
  struct LineRef {
    std::uint64_t offset = 0;
    std::uint32_t size = 0;  ///< Bytes, without the newline.
    std::uint32_t crc = 0;
  };

  /// Immutable per-sealed-segment index slice, shared across snapshots.
  struct SegmentPart {
    std::uint32_t id = 0;
    std::string file;  ///< Full path.
    std::vector<TraceSummary> summaries;              ///< Commit order.
    /// Per record line, indexed like TraceSummary::line.
    std::vector<LineRef> lines;
    /// The running CRC after the header line: line 0's seed.
    std::uint32_t header_crc = 0;
    std::vector<std::pair<SpanId, std::uint32_t>> by_id;  ///< Sorted.
    /// Bounds of the records' [start, end]; a query range outside them
    /// matches nothing here.
    TimeNs min_start = std::numeric_limits<TimeNs>::max();
    TimeNs max_end = std::numeric_limits<TimeNs>::min();

    /// Derives by_id and the time bounds from `summaries`.
    void Index();
  };

  /// The published immutable reader view.
  struct Snapshot {
    std::vector<std::shared_ptr<const SegmentPart>> sealed;
    std::vector<TraceSummary> active_summaries;  ///< Commit order.
    std::vector<RecordLine> active_lines;        ///< Same order.
  };

  bool SealLocked(std::string* error);
  void Publish(std::shared_ptr<const Snapshot> snapshot);
  std::shared_ptr<const Snapshot> Load() const;
  /// The matches of `query` in `snapshot`, in (start, trace_id) order and
  /// cut to the limit; they point into `snapshot`. Sealed parts whose time
  /// bounds miss the range are skipped, and a limit sorts only the kept
  /// prefix.
  static std::vector<const TraceSummary*> Select(const Snapshot& snapshot,
                                                 const TraceQuery& query);
  /// Opens `part`'s file once and returns the lines of the `wanted`
  /// summaries (each also put in the cache), as read. An entry is null
  /// when its line fails verification or its `trace` field names another
  /// trace (each counted as one load failure); every entry is null when
  /// the file cannot be opened (counted once).
  std::vector<RecordLine> ReadSealed(
      const SegmentPart& part,
      const std::vector<const TraceSummary*>& wanted) const;
  RecordLine CacheLookup(SpanId id) const;
  void CacheInsert(SpanId id, RecordLine line) const;
  std::string SegmentPath(std::uint32_t id) const;
  void RegisterMetrics();

  const std::string dir_;
  const StoreOptions options_;

  /// Writer state (Commit/Seal/Open), guarded by writer_mutex_.
  mutable std::mutex writer_mutex_;
  std::unordered_set<SpanId> known_ids_;
  std::uint32_t next_segment_ = 0;

  /// Published under its own tiny mutex (held only for a shared_ptr
  /// copy; libstdc++'s atomic<shared_ptr> trips TSan on its internal
  /// lock-bit protocol, and the mutex is just as cheap here).
  mutable std::mutex snapshot_mutex_;
  std::shared_ptr<const Snapshot> snapshot_;

  /// Hot-trace LRU (read path). Front of the list is most recent.
  mutable std::mutex cache_mutex_;
  mutable std::list<std::pair<SpanId, RecordLine>> cache_lru_;
  mutable std::unordered_map<SpanId, decltype(cache_lru_)::iterator>
      cache_index_;

  // tw_store_* metric handles (inert when options_.metrics is null).
  obs::Counter commits_;
  obs::Counter duplicates_;
  obs::Counter seals_;
  obs::Counter load_failures_;
  obs::Counter queries_;
  obs::Counter query_results_;
  obs::Counter cache_hits_;
  obs::Counter cache_misses_;
  obs::Counter cache_evictions_;
  obs::Counter disk_reads_;
  obs::Gauge traces_gauge_;
  obs::Gauge segments_gauge_;
  obs::Gauge active_gauge_;
};

}  // namespace traceweaver::store
