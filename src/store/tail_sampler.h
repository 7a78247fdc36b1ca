// Confidence-driven tail sampling at the store boundary (DESIGN.md §4k).
//
// Production trace volumes make storing every trace untenable; naive
// head sampling throws traces away before knowing whether they matter.
// This sampler decides *after* reconstruction, when the committer is
// about to seal a trace: anomalous traces are always kept, confident
// boring ones are probabilistically shed before they reach the store.
//
// Keep policy, evaluated in order (first match wins; the order is part
// of the contract -- see DESIGN.md §4k):
//
//   1. orphan        -- fragments and suspect orphans carry the evidence
//                       of capture gaps / reconstruction mistakes.
//   2. shed_adjacent -- a trace whose window lies near an overload shed
//                       documents the pressure event; keep everything
//                       within 2 windows of one.
//   3. low_grade     -- grade below B or confidence below 0.5:
//                       uncertain reconstructions must stay auditable.
//   4. high_latency  -- duration >= 50 ms (the tail the sampler is named
//                       for).
//   5. random        -- everything else is confident and boring: keep
//                       with probability keep_rate, decided by hashing
//                       the trace id against a fixed seed (no RNG state,
//                       so a kill -9 replay re-decides identically).
//
// The thresholds are constants in tail_sampler.cc. Every decision is a
// pure function of (record, last shed window); the only mutable inputs
// ride SaveState/LoadState next to the serve checkpoint, so a resumed run
// reproduces the exact store contents.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>

#include "obs/metrics.h"
#include "trace/trace_record.h"

namespace traceweaver::store {

struct TailSamplerOptions {
  /// Keep probability for confident, boring, on-time traces (rule 5).
  double keep_rate = 0.1;
  /// Must mirror the online weaver's window: it sizes the shed-adjacency
  /// horizon (rule 2).
  DurationNs window = Seconds(2);
};

class TailSampler {
 public:
  /// Schema tag of the saved sampler state (SaveState/LoadState).
  static constexpr const char* kStateSchema = "traceweaver.sampler.v1";

  explicit TailSampler(TailSamplerOptions options,
                       obs::MetricsRegistry* metrics = nullptr);

  /// Marks an overload shed at `window_end`; traces ending within the
  /// shed-adjacency horizon of it are kept unconditionally.
  void NoteShed(TimeNs window_end);

  struct Decision {
    bool keep = true;
    /// Stable verdict name: one of "orphan", "shed_adjacent",
    /// "low_grade", "high_latency", "random" (kept) or "boring" (shed).
    /// Rides the provenance `sampled_out` event detail.
    const char* reason = "random";
  };

  /// Decides (and counts) the fate of a trace about to be committed.
  Decision Decide(const TraceRecord& record);

  std::size_t considered() const { return considered_; }
  std::size_t shed() const { return shed_; }
  std::size_t kept() const { return considered_ - shed_; }
  std::size_t kept_interesting() const { return kept_interesting_; }
  std::size_t kept_random() const { return kept_random_; }

  /// Serializes counters and the shed horizon as CRC-guarded
  /// `traceweaver.sampler.v1` JSONL, written by the serve loop next to
  /// the committer state so a restart resumes bit-identical decisions.
  void SaveState(std::ostream& out) const;
  /// Restores a SaveState snapshot; false (state untouched) on
  /// truncated/corrupt/mismatched input, with a reason in *error.
  bool LoadState(std::istream& in, std::string* error = nullptr);

 private:
  /// The state record's fields (trace/checkpoint.h), Self const when
  /// saving; `last_shed_end` is the on-disk spelling (-1 for none).
  template <class F, class Self>
  static void StateFields(F& f, Self& self, TimeNs& last_shed_end);

  TailSamplerOptions options_;
  TimeNs last_shed_end_ = std::numeric_limits<TimeNs>::min();
  std::size_t considered_ = 0;
  std::size_t shed_ = 0;
  std::size_t kept_interesting_ = 0;  ///< Kept by rules 1-4.
  std::size_t kept_random_ = 0;       ///< Kept by the rule-5 coin.

  obs::Counter m_considered_;
  obs::Counter m_shed_;
  obs::Counter m_shed_spans_;
  obs::Counter m_kept_interesting_;
  obs::Counter m_kept_random_;
};

}  // namespace traceweaver::store
