// The `serve` deployment as one object (DESIGN.md §4f, §4h, §4k): the
// online weaver, trace store, commit hook, tail sampler, provenance
// ledger and self-tracer, built from one options struct and driven one
// source span at a time.
//
// Checkpoint() seals the store, then writes committer.jsonl,
// sampler.jsonl and checkpoint.jsonl as one unit (WriteFilesAtomic, the
// weaver's checkpoint.jsonl last as the commit marker). Open(resume)
// finishes a checkpoint that a crash cut short (RecoverFilesAtomic) and
// restores the three files all or nothing. The stream then replays from
// the saved offset; the store's duplicate-id guard drops what it already
// holds, so a resumed run ends with the store and state files of an
// uninterrupted one.
//
// Single-threaded: the caller's read loop drives it. HTTP readers may
// query store() concurrently (TraceStore is reader-safe).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/online.h"
#include "obs/provenance.h"
#include "serve/self_trace.h"
#include "store/committer.h"
#include "store/store.h"
#include "store/tail_sampler.h"
#include "trace/span_validator.h"

namespace traceweaver::serve {

struct ServePipelineOptions {
  /// Weaver options; the pipeline sets their `metrics` and `provenance`.
  OnlineOptions online;
  /// "" runs without store, committer, sampler, ledger and self-tracer.
  std::string store_dir;
  store::StoreOptions store;  ///< The pipeline sets `metrics`.
  double tail_sample = -1.0;  ///< Boring-trace keep rate; < 0 = no sampler.
  bool provenance = true;     ///< Decision ledger (with a store).
  bool self_trace = false;    ///< One `_tw.pipeline` trace per window.
  std::string checkpoint_dir;  ///< "" = no checkpoints.
  /// Checkpoint after every this many spans of the stream (0 acts as 1).
  std::size_t checkpoint_every = 2000;
  obs::MetricsRegistry* metrics = nullptr;  ///< Null records nothing.
  /// Gets the results of every Advance()/Flush() once committed, before
  /// a checkpoint can cover them.
  std::function<void(const std::vector<WindowResult>&)> on_results;
};

class ServePipeline {
 public:
  ServePipeline(const CallGraph& graph, ServePipelineOptions options);

  struct OpenStats {
    store::TraceStore::OpenStats store;
    bool resumed = false;  ///< False: a fresh start at offset 0.
    std::uint64_t source_offset = 0;
  };

  /// Opens the store and, with `resume`, restores the state files (none
  /// yet: a fresh start). Nullopt with *error naming the file when the
  /// store is unusable or a state file is missing or rejected.
  std::optional<OpenStats> Open(bool resume, std::string* error = nullptr);

  /// Ingest -> advance -> commit for one span, then a checkpoint when one
  /// falls due. `source_offset` is the source position just past the
  /// span. False with *error when that checkpoint failed (the previous
  /// one stays in place).
  bool Step(Span span, std::uint64_t source_offset,
            std::string* error = nullptr);

  /// Counts a source line that did not parse as a span.
  void NoteParseError() { validator_.RecordParseErrors(1); }

  /// Seals the store, then writes the state files as one unit.
  bool Checkpoint(std::string* error = nullptr);

  /// At `end_of_stream` closes every window and commits everything
  /// pending first; an interrupted run only checkpoints, so a resume
  /// continues where it stopped. Flushes the ingest counters either way.
  bool Finish(bool end_of_stream, std::string* error = nullptr);

  const OnlineTraceWeaver& weaver() const { return *weaver_; }
  const IngestStats& ingest() const { return validator_.stats(); }
  // Null when off.
  store::TraceStore* store() const { return store_.get(); }
  const store::TraceCommitter* committer() const { return committer_.get(); }
  const store::TailSampler* sampler() const { return sampler_.get(); }
  const obs::ProvenanceLedger* ledger() const { return ledger_.get(); }
  const SelfTracer* self_tracer() const {
    return options_.self_trace ? &tracer_ : nullptr;
  }

 private:
  /// One state file, in write order.
  struct StateFile {
    std::string path;
    std::function<void(std::ostream&)> save;
    std::function<bool(std::istream&, std::string*)> load;
  };
  std::vector<StateFile> StateFiles();

  /// Hands `results` to the committer, then to on_results.
  void Commit(const std::vector<WindowResult>& results);
  /// Wall time since the previous lap when self-tracing, else 0.
  DurationNs Lap();
  /// Splits one Advance()/Flush() call into self-trace stages.
  void RecordAdvance(DurationNs wall, const std::vector<WindowResult>& results);

  ServePipelineOptions options_;
  std::unique_ptr<obs::ProvenanceLedger> ledger_;
  std::unique_ptr<OnlineTraceWeaver> weaver_;
  std::unique_ptr<store::TraceStore> store_;
  std::unique_ptr<store::TailSampler> sampler_;
  std::unique_ptr<store::TraceCommitter> committer_;
  SelfTracer tracer_{nullptr};  ///< Commits only with `self_trace`.
  SpanValidator validator_;     ///< kOff: counts, never alters a span.
  obs::OnlineMetrics metrics_;

  std::uint64_t offset_ = 0;
  TimeNs watermark_ = 0;
  std::chrono::steady_clock::time_point lap_;
  /// tw_stage_wall_ns_total{stage="enumerate"} at the last window batch.
  std::int64_t enumerate_seen_ = 0;
};

}  // namespace traceweaver::serve
