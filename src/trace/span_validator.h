// Span ingestion validation / sanitization (the robustness layer in front
// of reconstruction).
//
// The paper's deployment model -- eBPF/sidecar capture at the network
// layer (§3) -- guarantees imperfect input in production: capture clocks
// at different vantage points are skewed, TCP streams get truncated,
// records are dropped and duplicated. The reconstruction pipeline assumes
// well-formed spans (monotone timestamps, unique ids, named services), so
// every ingest path (JSONL reader, wire capture -> span assembly,
// simulator output) runs its population through a SpanValidator first.
//
// Two modes:
//   * kLenient (default): repair what is repairable -- clamp same-clock
//     timestamp inversions (server_send < server_recv, client_recv <
//     client_send: both timestamps of such a pair come from one capture
//     clock, so an inversion is corruption), drop exact duplicate records
//     (the same RPC captured twice), remap id collisions between distinct
//     spans to fresh ids, clamp out-of-range replica indices -- and
//     quarantine only what is not (empty caller/callee/endpoint names).
//   * kStrict: never modify a span; anything inconsistent is quarantined
//     (duplicates keep the first occurrence).
//
// Cross-vantage timestamp inversions (server_recv < client_send,
// client_recv < server_send) are evidence of capture-clock skew rather
// than corruption; lenient mode deliberately passes them through
// unmodified (rewriting them would destroy the delay distributions the
// reconstruction learns from). Instead the validator records their
// magnitudes and derives a suggested Parameters::constraint_slack_ns
// from the observed skew distribution, so the feasibility constraints in
// candidate enumeration stop pruning the *correct* candidate under skew.
//
// Everything the validator does is counted (IngestStats) and, when a
// MetricsRegistry is supplied, exported as the `tw_ingest_*` family
// (docs/METRICS.md) which BuildRunReport rolls into the run report.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "trace/span.h"

namespace traceweaver::obs {
class MetricsRegistry;    // obs/metrics.h
class ProvenanceLedger;   // obs/provenance.h
}

namespace traceweaver {

enum class IngestMode {
  kOff,      ///< Pass everything through untouched (counting only input).
  kLenient,  ///< Repair what is repairable, quarantine the rest.
  kStrict,   ///< Never modify; quarantine anything inconsistent.
};

/// Outcome of admitting one span.
enum class SpanVerdict {
  kAccepted,     ///< Clean: passed through bit-identical.
  kRepaired,     ///< Modified (clamped / remapped) and kept.
  kQuarantined,  ///< Rejected; available via SpanValidator::quarantine().
};

/// Replica indices outside [0, kMaxReplica] are out of range.
inline constexpr int kMaxReplica = 1 << 20;

struct SpanValidatorOptions {
  IngestMode mode = IngestMode::kLenient;
  /// Optional registry the final stats are flushed into by Finish().
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional decision-provenance sink (obs/provenance.h): every repair
  /// (clamp, id remap) and rejection (duplicate drop, quarantine) is
  /// recorded against the span's final id. Null disables recording;
  /// verdicts are identical either way. Not owned.
  obs::ProvenanceLedger* provenance = nullptr;
};

/// Counts of everything the validator saw and did. All counts are in
/// spans (not fields) except where noted.
struct IngestStats {
  std::uint64_t input = 0;        ///< Spans offered to Admit().
  std::uint64_t accepted = 0;     ///< Passed through untouched.
  std::uint64_t repaired = 0;     ///< Kept after modification.
  std::uint64_t quarantined = 0;  ///< Rejected.
  /// Malformed serialized lines that never produced a span; recorded by
  /// the caller of the JSONL reader via RecordParseErrors().
  std::uint64_t parse_errors = 0;

  // --- Breakdown (a span can contribute to several). ---
  std::uint64_t timestamps_clamped = 0;   ///< Non-monotone chains repaired.
  std::uint64_t timestamps_rejected = 0;  ///< Strict-mode inversions.
  std::uint64_t duplicate_ids = 0;        ///< Collisions detected.
  /// Lenient: id collisions between *distinct* spans given fresh ids.
  std::uint64_t duplicates_remapped = 0;
  /// Keep-first drops: strict drops every collision; lenient drops only
  /// exact duplicate records (identical payload = the same RPC captured
  /// twice, so a second copy would fabricate a phantom request).
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t replicas_clamped = 0;     ///< Out-of-range replica fields.
  std::uint64_t replicas_rejected = 0;    ///< Strict-mode replica rejects.
  std::uint64_t empty_names = 0;          ///< Empty caller/callee/endpoint.

  // --- Skew observations (cross-vantage inversions only). ---
  std::uint64_t skew_samples = 0;
  std::int64_t max_skew_ns = 0;
  /// Suggested Parameters::constraint_slack_ns covering the observed skew
  /// distribution (2x its p99 magnitude); 0 when no skew was observed.
  std::int64_t suggested_slack_ns = 0;

  /// Per-(caller service, callee service) inversion summary, so a warning
  /// can name the worst pair instead of blaming the whole deployment.
  struct PairSkew {
    std::string caller;
    std::string callee;
    std::uint64_t samples = 0;
    std::int64_t max_skew_ns = 0;
    std::int64_t p99_skew_ns = 0;
  };
  /// Sorted worst-first (by p99 magnitude, then caller/callee name);
  /// filled by Finish(). Empty when no inversions were observed.
  std::vector<PairSkew> skew_pairs;

  std::uint64_t Kept() const { return accepted + repaired; }
};

/// Streaming validator: feed spans through Admit() (or a whole population
/// through Sanitize()), then call Finish() once to derive the suggested
/// slack and flush `tw_ingest_*` metrics.
class SpanValidator {
 public:
  explicit SpanValidator(SpanValidatorOptions options = {});

  /// Validates (and under kLenient possibly repairs) one span in place.
  /// Returns the verdict; on kQuarantined the span is copied into
  /// quarantine() and should not be used.
  SpanVerdict Admit(Span& s);

  /// Batch convenience: admits every span, preserving order of the kept
  /// ones. Pre-scans ids so lenient duplicate remaps can never collide
  /// with a later span's genuine id.
  std::vector<Span> Sanitize(std::vector<Span> spans);

  /// Counts malformed serialized records the caller's parser dropped
  /// before a Span ever existed (surfaced in stats and metrics).
  void RecordParseErrors(std::uint64_t n) { stats_.parse_errors += n; }

  /// Derives suggested_slack_ns from the collected skew samples and, if a
  /// registry was configured, flushes every count into `tw_ingest_*`.
  /// Idempotent per validator (flushes at most once). Returns the stats.
  const IngestStats& Finish();

  const IngestStats& stats() const { return stats_; }
  const std::vector<Span>& quarantine() const { return quarantine_; }
  const SpanValidatorOptions& options() const { return options_; }

 private:
  SpanVerdict AdmitLenient(Span& s);
  SpanVerdict AdmitStrict(const Span& s);
  /// Records cross-vantage inversion magnitudes of `s` as skew evidence.
  void ObserveSkew(const Span& s);
  SpanId FreshId();

  SpanValidatorOptions options_;
  IngestStats stats_;
  std::vector<Span> quarantine_;
  /// First-seen span per id, kept so a collision can be classified as an
  /// exact duplicate record (drop) vs. a distinct span (remap).
  std::unordered_map<SpanId, Span> seen_;
  std::vector<std::int64_t> skew_magnitudes_;
  /// Inversion magnitudes bucketed per (caller service, callee service).
  std::map<std::pair<std::string, std::string>, std::vector<std::int64_t>>
      pair_magnitudes_;
  SpanId next_remap_id_ = 0;  ///< 0 = derive from max seen id.
  bool finished_ = false;
};

}  // namespace traceweaver
