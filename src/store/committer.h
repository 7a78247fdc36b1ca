// The online -> store commit hook: turns the serve loop's span stream and
// per-window reconstruction results (core/online.h WindowResult) into
// whole TraceRecords committed to a TraceStore.
//
// The online weaver emits parent assignments window by window; a request
// trace becomes final only once every span that could still join it has
// been decided. The committer buffers spans, merges each window's
// assignments and per-trace quality, and seals a trace when its root's
// completion time is kSettleWindows full windows behind the latest
// closed window -- by then the root's window has closed (so every parent
// beneath it committed) and the late-graft retention period has passed.
// A span still without a parent edge one window after that horizon
// commits as the root of an orphan fragment. Spans the weaver declares
// definitively lost (shed windows, admission drops, expired late spans)
// are committed immediately as orphan fragments so nothing silently
// disappears between the stream and the store.
//
// Settle-time index: OnSpan pushes (due time, id) onto a min-heap, and
// each OnResults pops only the entries the closed-window clock has
// passed, so a call costs O(log n) per ingested span plus O(due), not a
// scan of the pending set. Entries are deleted lazily: a popped entry is
// re-checked against the current state (still pending, still due at that
// time, and for a fragment root still without a parent edge) and dropped
// otherwise. That is exact, because a span only becomes pending or moves
// its due time through OnSpan, which pushes a matching entry, and a
// pending span never loses its parent edge. Quality rows are kept only
// for pending roots and leave with every committed member span.
//
// Commit order within one process is deterministic (due roots by id);
// TraceStore::Commit is idempotent by trace id, so replaying a stream
// tail after checkpoint restore re-commits the same traces harmlessly.
#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/online.h"
#include "store/store.h"
#include "store/tail_sampler.h"

namespace traceweaver::store {

/// Full windows a rooted trace stays pending after its root completes,
/// covering the late-graft retention period. The weaver grafts a late
/// span only at closes starting before its own window start plus
/// kGraftRetentionWindows windows, and the root completes after that
/// window starts, so one window fewer (plus the margin) reaches past the
/// last close that may graft into the trace.
inline constexpr int kSettleWindows = kGraftRetentionWindows - 1;

struct CommitterOptions {
  /// Must mirror the OnlineOptions the weaver runs with: they define when
  /// a trace can no longer change.
  DurationNs window = Seconds(2);
  DurationNs margin = Millis(500);
  /// Decision-provenance ledger shared with the online weaver
  /// (obs/provenance.h). When set, every commit drains the pending events
  /// of the trace's spans into the record and stamps the settle outcome
  /// (settled / orphan_commit / finalized), so every committed trace
  /// carries a non-empty provenance block. Null leaves records
  /// byte-identical to the pre-provenance format. Not owned.
  obs::ProvenanceLedger* provenance = nullptr;
  /// Optional commit-time tail sampler (store/tail_sampler.h). When set,
  /// every sealed trace is offered to Decide() just before store commit:
  /// shed traces never reach the store and are accounted by a
  /// `sampled_out` provenance emission plus the tw_sample_* counters.
  /// Null commits everything, byte-identical to the unsampled path.
  /// Not owned.
  TailSampler* sampler = nullptr;
};

class TraceCommitter {
 public:
  /// Schema tag of the saved pending state (SaveState/LoadState).
  static constexpr const char* kStateSchema = "traceweaver.committer.v1";

  TraceCommitter(CommitterOptions options, TraceStore* store);

  /// Every span handed to OnlineTraceWeaver::Ingest.
  void OnSpan(const Span& span);

  /// Consumes the results of one Advance()/Flush() call: merges
  /// assignments and quality, commits orphans and settled traces.
  /// Returns traces committed by this call.
  std::size_t OnResults(const std::vector<WindowResult>& results);

  /// End of stream: commits every pending trace regardless of settling.
  std::size_t Finalize();

  /// Traces committed so far, counting a replayed trace the store
  /// already held; restored by LoadState.
  std::size_t committed() const { return committed_; }
  std::size_t pending_spans() const { return spans_.size(); }

  /// Serializes the pending state (buffered spans, merged edges, quality
  /// rows, settle clock) as CRC-guarded `traceweaver.committer.v1` JSONL.
  /// serve::ServePipeline saves it with the weaver checkpoint, as one
  /// unit after sealing the store, so a restart loses no settling trace:
  /// settled traces are on disk, pending ones ride the state file, and
  /// anything replayed from the source offset re-commits idempotently.
  void SaveState(std::ostream& out) const;

  /// Replaces this committer's pending state with a SaveState snapshot
  /// and rebuilds the settle-time index from the restored spans.
  /// Returns false (state untouched) on truncated, corrupted or
  /// schema-mismatched input, with a reason in *error.
  bool LoadState(std::istream& in, std::string* error = nullptr);

 private:
  /// Commits the subtree rooted at `root` (id must be in spans_) and
  /// erases its spans; returns true when the store holds it afterwards.
  /// `outcome` is the settle-outcome provenance stamp (kSettled is
  /// downgraded to kOrphanCommit automatically for fragment roots).
  bool CommitTrace(SpanId root,
                   obs::ProvEventType outcome = obs::ProvEventType::kSettled);
  /// Commits every span the closed-window clock has passed: rooted traces
  /// whose settle horizon ended, and fragment roots one window later.
  std::size_t SweepSettled();
  /// When `span` falls due: client_recv + settle for a root, one window
  /// later for a possible fragment root.
  TimeNs DueTime(const Span& span) const;

  using DueEntry = std::pair<TimeNs, SpanId>;
  using DueQueue = std::priority_queue<DueEntry, std::vector<DueEntry>,
                                       std::greater<DueEntry>>;

  CommitterOptions options_;
  TraceStore* store_;  ///< Not owned.
  DurationNs settle_;  ///< kSettleWindows full windows + margin.

  std::unordered_map<SpanId, Span> spans_;            ///< Pending spans.
  std::unordered_map<SpanId, SpanId> parent_of_;      ///< Committed edges.
  std::unordered_map<SpanId, std::vector<SpanId>> children_;
  /// Latest quality row of each pending root seen in a WindowResult
  /// (present only when the weaver ran with compute_quality).
  std::unordered_map<SpanId, obs::TraceQuality> quality_;
  /// Settle-time index: min-heap of (DueTime, id), lazily deleted.
  DueQueue due_;
  TimeNs last_closed_end_ = 0;
  std::size_t committed_ = 0;
};

}  // namespace traceweaver::store
