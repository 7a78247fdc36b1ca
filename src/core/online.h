// Online deployment mode (§5.3): streaming reconstruction over tumbling
// windows, enabling tail-based sampling -- hardened for production
// streams (DESIGN.md §4f, "Overload & recovery model").
//
// Spans are ingested as they complete. When the watermark (latest observed
// completion time) passes a window boundary plus a safety margin, the
// window is closed: all spans buffered so far form the candidate
// population, parents whose processing window lies inside the closed
// window are committed, and committed children leave the buffer so later
// windows cannot reuse them. The margin must exceed the app's worst-case
// response latency so every plausible candidate for a closing parent has
// arrived (the paper's guidance for window sizing).
//
// Resilience features on top of the paper's model:
//
//   * Bounded memory. `max_buffer_spans` / `max_buffer_bytes` cap the
//     span buffer. On breach the admission controller sheds whole
//     *oldest* windows first: every buffered span whose committing
//     timestamp falls at or before the oldest unclosed window boundary is
//     removed together and recorded as an explicit orphan. Because a
//     child's server_recv is never earlier than its parent's, a time-
//     prefix shed can never remove a child of a parent in a surviving
//     window -- later windows' candidate sets are untouched (the same cut
//     argument as Theorem A.1's run decomposition).
//
//   * Overload degradation ladder. When a window close exceeds
//     `window_close_deadline`, reconstruction parameters are degraded one
//     rung (Parameters::DegradedForOverload: shrink top-K, shrink batch
//     size, cap refinement iterations, drop exact MWIS to greedy); closes
//     finishing under half the deadline step back up, recovering full
//     fidelity when pressure subsides.
//
//   * Late / out-of-order input. Advance() watermarks may regress (they
//     clamp to the high-water mark and count the regression); spans
//     arriving after their window closed go to a bounded late-pool and,
//     within kGraftRetentionWindows of their own window, are grafted into
//     a committed parent's free (skipped) slot or else emitted as benign
//     orphans (the store committer's settle horizon is derived from it).
//
//   * Checkpoint/restore. SaveCheckpoint()/LoadCheckpoint() serialize the
//     live streaming state (buffer, late pool, graft slots, the recently
//     committed ids a late copy must not graft, carried delay models,
//     watermark, ladder position) as a CRC-guarded
//     `traceweaver.checkpoint.v1` JSONL stream (trace/checkpoint.h), so a
//     killed serve loop resumes within one window of where it died without
//     losing or duplicating commitments. Committed edges are not part of
//     it (they left in the WindowResults of the process that committed
//     them), and a committed id is kept only until a late copy of it
//     would expire anyway (DESIGN.md §4f), so checkpoint size follows the
//     span rate, not uptime. Legacy `commit` records load as ids that are
//     never forgotten; legacy `posterior` records are ignored.
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/delay_model.h"
#include "core/skew_estimator.h"
#include "core/trace_weaver.h"
#include "obs/pipeline_metrics.h"
#include "obs/provenance.h"
#include "trace/span.h"

namespace traceweaver {

/// Bounded late-pool capacity; overflow drops the oldest entries as
/// orphans.
inline constexpr std::size_t kMaxLateSpans = 4096;
/// How many windows a late span (counted from its own window, the one its
/// server_recv falls in) and a committed parent's free slots stay
/// graftable. store/committer.h derives its settle horizon from it.
inline constexpr int kGraftRetentionWindows = 2;

struct OnlineOptions {
  /// Tumbling-window width. Must be > 0: Advance steps the next window
  /// start by this much until it passes the watermark, so a zero or
  /// negative width never returns.
  DurationNs window = Seconds(2);
  /// Extra wait beyond the window end before closing it; should exceed the
  /// maximum span duration. Must be >= 0.
  DurationNs margin = Millis(500);
  TraceWeaverOptions weaver;

  // --- Bounded memory / admission control (0 = unbounded). ---
  std::size_t max_buffer_spans = 0;
  std::size_t max_buffer_bytes = 0;

  /// Wall-time budget for one window close; exceeding it escalates the
  /// degradation ladder, finishing under half of it de-escalates. 0
  /// disables the ladder (always full fidelity, fully deterministic).
  DurationNs window_close_deadline = 0;

  /// Metric sink for the tw_online_* family (docs/METRICS.md). Null
  /// disables recording; behavior is identical either way. Not owned.
  obs::MetricsRegistry* metrics = nullptr;

  /// Decision-provenance sink (obs/provenance.h): every skew correction,
  /// admission drop, window shed, degraded solve, late graft/expiry is
  /// recorded against the span it affected. Null disables recording;
  /// assignments are bit-identical either way. Pending events serialize
  /// as `"ckpt":"prov"` records, and LoadCheckpoint repopulates the
  /// attached ledger. Not owned; must outlive the weaver.
  obs::ProvenanceLedger* provenance = nullptr;

  /// Feed every ingested span to the online skew estimator and shift its
  /// timestamps into the common clock frame before buffering (DESIGN.md
  /// §4i). Estimates warm up over the stream, so the earliest spans of a
  /// cold start see less correction; estimator state checkpoints with the
  /// rest of the streaming state, so restarts resume bit-identically.
  bool skew_correct = false;
};

struct WindowResult {
  TimeNs window_start = 0;
  TimeNs window_end = 0;
  /// Assignments committed by this window (child -> parent), including
  /// late-span grafts.
  ParentAssignment assignment;
  std::size_t parents_committed = 0;
  /// Degradation-ladder rung this window was optimized at (0 = full
  /// fidelity); meaningful only when window_close_deadline is set.
  int degradation_level = 0;
  /// True when the admission controller shed this window instead of
  /// optimizing it; `orphans` then lists every shed span.
  bool shed = false;
  /// Spans whose links are definitively lost (shed with a window,
  /// admission-dropped, or expired from the late pool) -- the benign
  /// orphan feed of the quality layer's suspicious/benign split.
  std::vector<SpanId> orphans;
  /// Late spans grafted into committed parents at this close.
  std::size_t late_grafted = 0;
  /// Wall time spent closing this window (drives the ladder).
  DurationNs close_wall_ns = 0;
  /// Portion of close_wall_ns spent servicing the late pool / graft
  /// slots (feeds the serve loop's self-trace stage breakdown).
  DurationNs graft_wall_ns = 0;
  /// Per-trace quality rows (grade, calibrated confidence) for every
  /// trace visible in the buffer at this close, filled iff
  /// OnlineOptions::weaver.compute_quality. Downstream consumers (the
  /// store commit hook) take the latest row per root: each close
  /// re-evaluates against the spans still buffered, so the row from the
  /// close that settles a trace is the authoritative one. Not serialized
  /// into checkpoints (shed/pending results carry no quality).
  std::vector<obs::TraceQuality> trace_quality;
};

class OnlineTraceWeaver {
 public:
  /// Schema tag of the checkpoint format (see trace/checkpoint.h).
  static constexpr const char* kCheckpointSchema =
      "traceweaver.checkpoint.v1";

  OnlineTraceWeaver(CallGraph graph, OnlineOptions options = {});
  ~OnlineTraceWeaver();
  OnlineTraceWeaver(OnlineTraceWeaver&&) noexcept;
  OnlineTraceWeaver& operator=(OnlineTraceWeaver&&) noexcept;

  /// Adds a completed span. Late spans (window already closed) are routed
  /// to the graft path; over-budget buffers shed oldest windows first.
  void Ingest(const Span& span);

  /// Advances the watermark; closes and returns every window whose end +
  /// margin is at or before `watermark`, preceded by any windows shed
  /// since the last call. A watermark below the high-water mark is
  /// clamped (never rolls state back) and counted as a regression.
  std::vector<WindowResult> Advance(TimeNs watermark);

  /// Closes all remaining windows regardless of watermark and drains the
  /// late pool (remaining entries become orphans).
  std::vector<WindowResult> Flush();

  /// The fold of every WindowResult::assignment this object returned since
  /// construction or the last LoadCheckpoint (including grafts). A resumed
  /// weaver's fold holds only the edges committed after the resume.
  const ParentAssignment& assignment() const { return committed_; }

  std::size_t buffered() const { return buffer_.size(); }
  std::size_t buffered_bytes() const { return buffer_bytes_; }
  std::size_t late_pool_size() const { return late_pool_.size(); }
  int degradation_level() const { return level_; }
  TimeNs high_watermark() const { return high_watermark_; }

  /// Each container's delay model from the last window close that gave it
  /// tasks, passed as the prior of the next close (TraceWeaver::
  /// Reconstruct): keys whose new gaps still fit it skip the EM refit.
  /// Survives checkpoint/restore as `"ckpt":"model"` records.
  const ContainerModels& delay_models() const { return models_; }

  /// Online skew state (active when OnlineOptions::skew_correct); survives
  /// checkpoint/restore as `"ckpt":"skew"` records.
  const SkewEstimator& skew_estimator() const { return skew_estimator_; }

  /// Monotone event counters, mirrored into the tw_online_* metric family
  /// when OnlineOptions::metrics is set.
  struct Stats {
    std::uint64_t ingested = 0;
    std::uint64_t windows_closed = 0;
    std::uint64_t parents_committed = 0;
    std::uint64_t windows_shed = 0;
    std::uint64_t spans_shed = 0;
    std::uint64_t admission_drops = 0;
    std::uint64_t late_spans = 0;
    std::uint64_t late_grafted = 0;
    std::uint64_t late_orphans = 0;
    std::uint64_t late_dropped = 0;
    std::uint64_t watermark_regressions = 0;
    std::uint64_t deadline_misses = 0;
    std::uint64_t degrade_up_steps = 0;
    std::uint64_t degrade_down_steps = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Serializes the full streaming state as `traceweaver.checkpoint.v1`
  /// JSONL with a CRC-guarded footer. `extra` carries caller scalars
  /// (e.g. the serve loop's source offset) that round-trip untouched.
  void SaveCheckpoint(
      std::ostream& out,
      const std::map<std::string, std::uint64_t>& extra = {}) const;

  /// Replaces this weaver's state with a checkpoint previously written by
  /// SaveCheckpoint. The call graph and options are NOT serialized: the
  /// caller must construct the weaver with the same graph/options as the
  /// checkpointing process. Returns false (state untouched) on truncated,
  /// corrupted or schema-mismatched input, with a reason in *error.
  bool LoadCheckpoint(std::istream& in, std::string* error = nullptr,
                      std::map<std::string, std::uint64_t>* extra = nullptr);

 private:
  /// A skipped (free) position of a committed parent's chosen mapping: a
  /// late child matching its call site can still be grafted in.
  struct GraftSlot {
    SpanId parent = kInvalidSpanId;
    std::string parent_service;   ///< Callee of the parent span.
    std::string parent_endpoint;
    TimeNs server_recv = 0;
    TimeNs server_send = 0;
    int callee_replica = 0;       ///< Children must be sent from it.
    int stage = 0;
    int call = 0;
    std::string call_service;     ///< The open position's call site.
    std::string call_endpoint;
  };

  struct LateSpan {
    Span span;
    /// Own window start + kGraftRetentionWindows windows: grafts are
    /// tried at closes starting before it, the first other close orphans.
    TimeNs deadline = 0;
  };

  WindowResult CloseWindow(TimeNs window_start, TimeNs window_end);
  /// Ingest() after optional skew correction (the shared buffering path).
  void IngestCorrected(const Span& span);
  void HandleLate(const Span& span);
  /// Own window start of a span whose server_recv is `server_recv`, on the
  /// window grid through `anchor`, plus kGraftRetentionWindows windows:
  /// the first close start at which a late copy of it is expired.
  TimeNs GraftDeadline(TimeNs anchor, TimeNs server_recv) const;
  /// Refuses grafts of `id` at least until the close starting at `until`.
  void RejectGrafts(SpanId id, TimeNs until);
  /// Feasibility slack for grafting on the (caller, callee) edge; with
  /// skew correction on this is derived from the estimator's *current*
  /// state (not the map cached at the last window close) so resumes stay
  /// bit-identical.
  long long GraftSlack(const std::string& caller,
                       const std::string& callee) const;
  /// Grafts `span` into the best feasible free slot; returns the parent
  /// id or kInvalidSpanId.
  SpanId TryGraft(const Span& span);
  /// Orphans `late` into `orphans` with its provenance event and counters.
  void ExpireLate(const LateSpan& late, std::vector<SpanId>& orphans);
  /// Grafts `late` into `result` if its id was not committed already and
  /// a slot fits, with its provenance event and counters; returns whether
  /// it did.
  bool GraftLate(const LateSpan& late, WindowResult& result);
  /// Retries the late pool against slots opened by new commits, expires
  /// stale entries into `result`, prunes stale graft slots.
  void ServiceLatePool(WindowResult& result);
  void EnforceBudget();
  void ShedOldestWindow();
  bool OverBudget() const;
  void UpdateBufferGauges();
  TraceWeaver& WeaverForLevel();
  /// The checkpoint header's fields (trace/checkpoint.h): Self is const
  /// when saving, mutable when loading.
  template <class F, class Self>
  static void HeaderFields(F& f, Self& self);

  CallGraph graph_;
  OnlineOptions options_;
  obs::OnlineMetrics metrics_;
  obs::ProvRecorder prov_;
  std::vector<Span> buffer_;
  std::size_t buffer_bytes_ = 0;
  /// Backs assignment() only; never checkpointed.
  ParentAssignment committed_;
  /// Committed ids a late copy must not graft, each with the close start
  /// from which it may be forgotten (DESIGN.md §4f). Pruned at every close.
  std::unordered_map<SpanId, TimeNs> graft_rejects_;
  TimeNs next_window_start_ = 0;
  bool started_ = false;
  TimeNs high_watermark_ = 0;
  int level_ = 0;
  std::vector<LateSpan> late_pool_;
  std::vector<GraftSlot> graft_slots_;
  /// Shed windows and admission-drop orphans awaiting delivery with the
  /// next Advance()/Flush() output.
  std::vector<WindowResult> pending_results_;
  std::vector<SpanId> pending_orphans_;
  /// Lives here rather than on the cached weaver, so ladder-level rebuilds
  /// and edge-slack refreshes keep it.
  ContainerModels models_;
  SkewEstimator skew_estimator_;
  Stats stats_;
  /// Cached weaver, rebuilt when the degradation level changes (avoids
  /// re-copying the graph and re-spawning the pool every window).
  std::unique_ptr<TraceWeaver> weaver_cache_;
  int weaver_cache_level_ = -1;
};

}  // namespace traceweaver
