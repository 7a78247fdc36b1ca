#include "serve/pipeline.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <utility>

#include "trace/checkpoint.h"

namespace traceweaver::serve {

ServePipeline::ServePipeline(const CallGraph& graph,
                             ServePipelineOptions options)
    : options_(std::move(options)),
      validator_(SpanValidatorOptions{IngestMode::kOff, options_.metrics}) {
  if (options_.checkpoint_every == 0) options_.checkpoint_every = 1;
  obs::MetricsRegistry* reg = options_.metrics;
  if (reg != nullptr) metrics_ = obs::OnlineMetrics(*reg);
  const bool with_store = !options_.store_dir.empty();
  if (with_store && options_.provenance) {
    ledger_ = std::make_unique<obs::ProvenanceLedger>(
        obs::ProvenanceLedgerOptions{}, reg);
  }
  OnlineOptions& online = options_.online;
  online.metrics = online.weaver.metrics = reg;
  online.provenance = ledger_.get();
  weaver_ = std::make_unique<OnlineTraceWeaver>(graph, online);
  if (!with_store) return;

  options_.store.metrics = reg;
  store_ = std::make_unique<store::TraceStore>(options_.store_dir,
                                               options_.store);
  store::CommitterOptions copts;
  copts.window = online.window;
  copts.margin = online.margin;
  copts.provenance = ledger_.get();
  if (options_.tail_sample >= 0.0) {
    sampler_ = std::make_unique<store::TailSampler>(
        store::TailSamplerOptions{options_.tail_sample, online.window}, reg);
    copts.sampler = sampler_.get();
  }
  committer_ = std::make_unique<store::TraceCommitter>(copts, store_.get());
  tracer_ = SelfTracer(store_.get());
}

std::vector<ServePipeline::StateFile> ServePipeline::StateFiles() {
  const std::string& dir = options_.checkpoint_dir;
  std::vector<StateFile> files;
  if (committer_ != nullptr) {
    files.push_back({dir + "/committer.jsonl",
                     [this](std::ostream& o) { committer_->SaveState(o); },
                     [this](std::istream& in, std::string* e) {
                       return committer_->LoadState(in, e);
                     }});
  }
  if (sampler_ != nullptr) {
    files.push_back({dir + "/sampler.jsonl",
                     [this](std::ostream& o) { sampler_->SaveState(o); },
                     [this](std::istream& in, std::string* e) {
                       return sampler_->LoadState(in, e);
                     }});
  }
  files.push_back(
      {dir + "/checkpoint.jsonl",
       [this](std::ostream& o) {
         weaver_->SaveCheckpoint(o, {{"source_offset", offset_}});
       },
       [this](std::istream& in, std::string* e) {
         std::map<std::string, std::uint64_t> extra;
         if (!weaver_->LoadCheckpoint(in, e, &extra)) return false;
         offset_ = extra["source_offset"];
         return true;
       }});
  return files;
}

std::optional<ServePipeline::OpenStats> ServePipeline::Open(
    bool resume, std::string* error) {
  OpenStats stats;
  lap_ = std::chrono::steady_clock::now();
  if (store_ != nullptr) {
    std::string why;
    const auto opened = store_->Open(&why);
    if (!opened) {
      if (error != nullptr) {
        *error = "cannot open store " + options_.store_dir + ": " + why;
      }
      return std::nullopt;
    }
    stats.store = *opened;
  }
  if (!resume || options_.checkpoint_dir.empty()) return stats;

  const std::vector<StateFile> files = StateFiles();
  std::vector<std::string> paths;
  for (const StateFile& f : files) paths.push_back(f.path);
  if (!RecoverFilesAtomic(paths, OnlineTraceWeaver::kCheckpointSchema,
                          error)) {
    return std::nullopt;
  }
  if (std::none_of(paths.begin(), paths.end(), [](const std::string& p) {
        return std::ifstream(p).good();
      })) {
    return stats;  // Nothing checkpointed yet.
  }
  // All or nothing: a failure ends the run before it sees a span.
  for (const StateFile& f : files) {
    std::ifstream in(f.path, std::ios::binary);
    std::string why = "missing";
    if (!in || !f.load(in, &why)) {
      if (error != nullptr) *error = "cannot resume: " + f.path + ": " + why;
      return std::nullopt;
    }
  }
  watermark_ = weaver_->high_watermark();
  metrics_.restores.Inc();
  stats.resumed = true;
  stats.source_offset = offset_;
  return stats;
}

bool ServePipeline::Step(Span span, std::uint64_t source_offset,
                         std::string* error) {
  tracer_.Record(SelfStage::kIngest, Lap());  // The caller's read + parse.
  validator_.Admit(span);
  weaver_->Ingest(span);
  if (committer_ != nullptr) committer_->OnSpan(span);
  tracer_.Record(SelfStage::kValidate, Lap());
  // client_send drives the watermark: a conservative lower bound
  // (client_send <= client_recv) on completion-ordered streams, so
  // windows never close while their candidates are still in flight.
  // The running max keeps Advance()'s regression counter reserved for
  // genuine source regressions.
  watermark_ = std::max(watermark_, span.client_send);
  const std::vector<WindowResult> results = weaver_->Advance(watermark_);
  RecordAdvance(Lap(), results);
  Commit(results);
  offset_ = source_offset;
  // Counted from the start of the stream, not from the last checkpoint,
  // so a run resumed after a graceful stop seals where this one would.
  bool ok = true;
  if (!options_.checkpoint_dir.empty() &&
      weaver_->stats().ingested % options_.checkpoint_every == 0) {
    ok = Checkpoint(error);
  }
  // One self trace per closed window; a multi-window batch drains the
  // accumulated stage buckets into its first window.
  if (options_.self_trace) {
    for (const WindowResult& r : results) tracer_.CommitWindow(r.window_start);
  }
  Lap();
  return ok;
}

bool ServePipeline::Checkpoint(std::string* error) {
  // Seal first: everything the saved offset counts as consumed must be
  // durable before the offset moves. A failure keeps the previous
  // checkpoint, so the offset never outruns the store.
  bool ok = store_ == nullptr || store_->Seal(error);
  if (ok && !options_.checkpoint_dir.empty()) {
    std::vector<FileWrite> writes;
    for (StateFile& f : StateFiles()) {
      writes.push_back({std::move(f.path), std::move(f.save)});
    }
    ok = WriteFilesAtomic(writes, error);
    if (ok) metrics_.checkpoints.Inc();
  }
  tracer_.Record(SelfStage::kSeal, Lap());
  return ok;
}

bool ServePipeline::Finish(bool end_of_stream, std::string* error) {
  if (end_of_stream) {
    const std::vector<WindowResult> tail = weaver_->Flush();
    RecordAdvance(Lap(), tail);
    Commit(tail);
    if (committer_ != nullptr) committer_->Finalize();
    // Before the final seal, so the self traces land durably too.
    if (options_.self_trace) {
      for (const WindowResult& r : tail) tracer_.CommitWindow(r.window_start);
    }
  }
  validator_.Finish();
  return Checkpoint(error);
}

void ServePipeline::Commit(const std::vector<WindowResult>& results) {
  if (committer_ != nullptr) committer_->OnResults(results);
  tracer_.Record(SelfStage::kCommit, Lap());
  if (options_.on_results) options_.on_results(results);
}

DurationNs ServePipeline::Lap() {
  if (!options_.self_trace) return 0;
  const auto now = std::chrono::steady_clock::now();
  const auto wall = now - lap_;
  lap_ = now;
  return std::chrono::duration_cast<std::chrono::nanoseconds>(wall).count();
}

void ServePipeline::RecordAdvance(DurationNs wall,
                                  const std::vector<WindowResult>& results) {
  if (!options_.self_trace) return;
  // Windowing is the call minus its window closes; a close splits into
  // enumerate (the stage-timer delta), graft (from the results) and
  // solve, the rest (score + assignment + bookkeeping in the weaver).
  DurationNs close = 0;
  DurationNs graft = 0;
  for (const WindowResult& r : results) {
    close += r.close_wall_ns;
    graft += r.graft_wall_ns;
  }
  DurationNs enumerate = 0;
  if (!results.empty() && options_.metrics != nullptr) {
    const std::int64_t seen = options_.metrics->Snapshot().Value(
        "tw_stage_wall_ns_total", "stage=\"enumerate\"");
    enumerate = std::max<std::int64_t>(0, seen - enumerate_seen_);
    enumerate_seen_ = seen;
  }
  enumerate = std::min(enumerate, std::max<DurationNs>(0, close - graft));
  tracer_.Record(SelfStage::kWindow, std::max<DurationNs>(0, wall - close));
  tracer_.Record(SelfStage::kEnumerate, enumerate);
  tracer_.Record(SelfStage::kSolve,
                 std::max<DurationNs>(0, close - graft - enumerate));
  tracer_.Record(SelfStage::kGraft, graft);
}

}  // namespace traceweaver::serve
