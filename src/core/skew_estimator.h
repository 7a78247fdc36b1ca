// Online per-vantage-pair clock-offset estimation and correction
// (DESIGN.md §4i).
//
// Capture vantages stamp events with independent clocks, so the two sides
// of one RPC disagree by a per-(service, replica) offset. Reconstruction's
// feasibility constraints and delay models compare timestamps *within* one
// vantage, where a constant offset cancels -- but span assembly and gap
// extraction also cross vantages, and there a 100µs offset is enough to
// collapse trace accuracy (the capture-regime rows of BENCH_quality.json).
//
// The estimator consumes exactly the evidence the SpanValidator already
// passes through unmodified: for every caller->callee observation it sees
// the cross-vantage request gap g_req = server_recv - client_send and
// response gap g_resp = client_recv - server_send, both stamped by two
// different clocks. With offset d = (callee clock) - (caller clock) and
// nonnegative network delays,
//
//   g_req  = net_req  + d   >= d      =>  d <= min g_req
//   g_resp = net_resp - d   >= -d     =>  d >= -min g_resp
//
// so the per-pair offset lies in [-min g_resp, min g_req]. The estimate is
// the *minimal consistent correction*: 0 whenever the interval contains 0
// (clean clocks stay untouched, which keeps clean-input assignments
// byte-identical), the nearest interval edge when the whole interval is on
// one side (constant skew), and the interval midpoint when jitter makes
// the interval empty (the NTP-style symmetric estimate). Floors use a
// small buffer of the k smallest gaps with an index-based quantile so a
// few garbled records cannot hijack the minimum. A Welford accumulator
// over the per-span midpoints d_i = (g_req_i - g_resp_i)/2 tracks each
// pair's spread, which sizes the per-edge feasibility slack
// (Parameters::edge_slack_ns): var(d) = (var(g_req)+var(g_resp))/4, so
// sd(d) estimates the per-event jitter scale directly.
//
// Pairwise offsets are then reconciled into one *global frame* per
// vantage: offsets are edges of a graph over vantages (d_AB = f_B - f_A),
// solved by a deterministic BFS spanning tree anchored at the
// lexicographically smallest vantage of each component. Every timestamp
// captured at vantage v is shifted by -f_v -- correcting each span
// pairwise instead would re-skew the caller's own frame and break the
// intra-vantage gaps that were never wrong.
//
// All state (counts, Welford moments, gap buffers) serializes as
// `"ckpt":"skew"` lines inside the traceweaver.checkpoint.v1 stream, so
// the serve loop's kill -9 resume is bit-identical with the estimator on.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "trace/span.h"

namespace traceweaver::obs {
class MetricsRegistry;  // obs/metrics.h
}

namespace traceweaver {

/// One capture vantage: the (service, replica) whose clock stamped the
/// observation. Root spans use the workload generator's ("client", 0).
using VantageKey = std::pair<std::string, int>;

/// Accumulated skew evidence for one ordered (caller, callee) vantage
/// pair. Offsets are "callee clock minus caller clock" in ns.
struct PairSkewStats {
  /// Size of the k-smallest gap buffers (and so the deepest outlier the
  /// index quantile can skip).
  static constexpr std::size_t kGapBuffer = 16;
  /// One buffer index of outlier skip is earned per this many samples.
  static constexpr std::uint64_t kSamplesPerSkip = 256;
  /// Pairs with fewer observations than this report offset 0 and no edge
  /// slack (not enough evidence to move timestamps).
  static constexpr std::uint64_t kMinSamples = 8;

  std::uint64_t samples = 0;
  /// Observations with a negative cross-vantage gap (the SpanValidator's
  /// inversion evidence); > 0 is the signature of real skew.
  std::uint64_t inversions = 0;
  /// Welford moments over the per-span midpoints d_i = (g_req-g_resp)/2.
  double offset_mean = 0.0;
  double offset_m2 = 0.0;
  /// k smallest request/response gaps seen, ascending.
  std::vector<std::int64_t> min_request_gaps;
  std::vector<std::int64_t> min_response_gaps;

  void Observe(std::int64_t request_gap_ns, std::int64_t response_gap_ns);

  /// Sample stddev of the midpoints; estimates the per-event jitter scale.
  double OffsetSpreadNs() const;
  /// Robust floors of the observed gaps (index quantile over the buffer).
  std::int64_t RequestFloorNs() const;
  std::int64_t ResponseFloorNs() const;
  /// Minimal consistent pair offset (see file comment); 0 when the
  /// feasible interval contains 0 or evidence is thin.
  std::int64_t OffsetNs() const;
};

/// Streaming skew estimator + corrector. Not thread-safe; each pipeline
/// owns one (the optimizer never touches it concurrently).
class SkewEstimator {
 public:
  /// Edge-slack floor for pairs that showed inversions: the frame solve
  /// leaves a residual of about one minimum network delay per hop, which
  /// spread alone underestimates for near-constant skew.
  static constexpr long long kMinEdgeSlackNs = 50'000;

  /// Record-level evidence: one assembled span contributes its request and
  /// response cross-vantage gaps for the (caller, callee) vantage pair.
  void ObserveSpan(const Span& s);
  /// Event-level evidence (span assembly feeds this before emitting spans).
  void ObserveGaps(const VantageKey& caller, const VantageKey& callee,
                   std::int64_t request_gap_ns, std::int64_t response_gap_ns);

  /// Offset of `callee`'s clock relative to `caller`'s; 0 when unknown.
  std::int64_t PairOffsetNs(const VantageKey& caller,
                            const VantageKey& callee) const;

  /// Global frame offset of vantage `v` (subtract from every timestamp
  /// stamped at `v` to enter the common frame); 0 when unknown. Lazily
  /// re-solves the frame graph after new observations.
  std::int64_t FrameOffsetNs(const VantageKey& v) const;

  /// Shifts `s` into the common frame: caller-side stamps by the caller
  /// vantage's frame offset, callee-side by the callee's. Returns true if
  /// any timestamp moved.
  bool CorrectSpan(Span& s) const;
  /// Corrects a population in place; returns how many spans moved.
  std::size_t CorrectSpans(std::vector<Span>& spans) const;

  /// Per-(caller service, callee service) feasibility slack derived from
  /// the observed spread, for Parameters::edge_slack_ns. Only pairs that
  /// showed inversions contribute (clean edges keep the global slack), and
  /// replica pairs of one service edge aggregate by max.
  std::map<std::pair<std::string, std::string>, long long> EdgeSlacks()
      const;

  const std::map<std::pair<VantageKey, VantageKey>, PairSkewStats>& pairs()
      const {
    return pairs_;
  }
  std::uint64_t observations() const { return observations_; }
  /// Largest |frame offset| across known vantages (0 when none).
  std::int64_t MaxFrameOffsetNs() const;

  /// Serializes every pair as a `"ckpt":"skew"` JSON line (checkpoint.h
  /// field conventions; doubles as %.17g so restore is bit-exact).
  std::vector<std::string> CheckpointLines() const;
  /// Restores one pair from a `"ckpt":"skew"` line written by
  /// CheckpointLines(); false on malformed input (estimator untouched).
  bool LoadCheckpointLine(const std::string& line);

  /// Flushes the tw_skew_* family (docs/METRICS.md) into `registry`.
  void FlushMetrics(obs::MetricsRegistry& registry) const;

 private:
  void SolveFrames() const;

  std::map<std::pair<VantageKey, VantageKey>, PairSkewStats> pairs_;
  std::uint64_t observations_ = 0;
  /// Frame solve cache, invalidated by new evidence.
  mutable bool frames_valid_ = false;
  mutable std::map<VantageKey, std::int64_t> frames_;
};

}  // namespace traceweaver
