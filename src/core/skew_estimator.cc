#include "core/skew_estimator.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "obs/metrics.h"
#include "trace/checkpoint.h"

namespace traceweaver {
namespace {

/// Edge slack = max(kSlackMultiplier * sd(d), kMinEdgeSlackNs), following
/// the parameters.h guidance of ~4x the jitter stddev.
constexpr double kSlackMultiplier = 4.0;

/// Inserts `gap` into the ascending k-smallest buffer, evicting the
/// largest element on overflow.
void InsertGap(std::vector<std::int64_t>& buffer, std::int64_t gap) {
  const auto at = std::lower_bound(buffer.begin(), buffer.end(), gap);
  if (at == buffer.end() && buffer.size() >= PairSkewStats::kGapBuffer) {
    return;
  }
  buffer.insert(at, gap);
  if (buffer.size() > PairSkewStats::kGapBuffer) buffer.pop_back();
}

/// Index-quantile floor: the smallest gap, stepping one buffer slot
/// deeper per kSamplesPerSkip observations so isolated garbled records
/// stop defining the minimum once the population is large.
std::int64_t Floor(const std::vector<std::int64_t>& buffer,
                   std::uint64_t samples) {
  if (buffer.empty()) return 0;
  const std::size_t skip = static_cast<std::size_t>(
      samples / PairSkewStats::kSamplesPerSkip);
  return buffer[std::min(skip, buffer.size() - 1)];
}

std::string JoinGaps(const std::vector<std::int64_t>& gaps) {
  std::string out;
  for (std::size_t i = 0; i < gaps.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(gaps[i]);
  }
  return out;
}

bool ParseGaps(const std::string& joined, std::vector<std::int64_t>* out) {
  out->clear();
  if (joined.empty()) return true;
  const char* p = joined.c_str();
  while (*p != '\0') {
    char* end = nullptr;
    const long long v = std::strtoll(p, &end, 10);
    if (end == p) return false;
    out->push_back(v);
    if (*end == ',') {
      p = end + 1;
    } else if (*end == '\0') {
      break;
    } else {
      return false;
    }
  }
  return out->size() <= PairSkewStats::kGapBuffer &&
         std::is_sorted(out->begin(), out->end());
}

/// The `"ckpt":"skew"` record's fields (trace/checkpoint.h); the gap
/// buffers travel as JoinGaps strings.
template <class F, class Key, class Stats, class Gaps>
void SkewFields(F& f, Key& caller, Key& callee, Stats& stats, Gaps& req_gaps,
                Gaps& resp_gaps) {
  f("caller", caller.first);
  f("caller_replica", caller.second);
  f("callee", callee.first);
  f("callee_replica", callee.second);
  f("samples", stats.samples);
  f("inversions", stats.inversions);
  f("offset_mean", stats.offset_mean);
  f("offset_m2", stats.offset_m2);
  f("req_gaps", req_gaps);
  f("resp_gaps", resp_gaps);
}

}  // namespace

void PairSkewStats::Observe(std::int64_t request_gap_ns,
                            std::int64_t response_gap_ns) {
  ++samples;
  if (request_gap_ns < 0) ++inversions;
  if (response_gap_ns < 0) ++inversions;
  const double d = (static_cast<double>(request_gap_ns) -
                    static_cast<double>(response_gap_ns)) /
                   2.0;
  const double delta = d - offset_mean;
  offset_mean += delta / static_cast<double>(samples);
  offset_m2 += delta * (d - offset_mean);
  InsertGap(min_request_gaps, request_gap_ns);
  InsertGap(min_response_gaps, response_gap_ns);
}

double PairSkewStats::OffsetSpreadNs() const {
  if (samples < 2) return 0.0;
  return std::sqrt(offset_m2 / static_cast<double>(samples - 1));
}

std::int64_t PairSkewStats::RequestFloorNs() const {
  return Floor(min_request_gaps, samples);
}

std::int64_t PairSkewStats::ResponseFloorNs() const {
  return Floor(min_response_gaps, samples);
}

std::int64_t PairSkewStats::OffsetNs() const {
  if (samples < kMinSamples) return 0;
  const std::int64_t lo = -ResponseFloorNs();  // d >= -min g_resp
  const std::int64_t hi = RequestFloorNs();    // d <= min g_req
  // Clocks that could be synchronized (0 inside the feasible interval)
  // are left alone, which keeps clean input byte-identical.
  if (lo <= 0 && 0 <= hi) return 0;
  // Otherwise the midpoint, the symmetric (NTP-style) estimate. With a
  // non-empty interval it splits the one-way-delay asymmetry evenly, so
  // the residual error is bounded by half the difference between the two
  // directions' minimum network delays; when jitter empties the interval
  // the midpoint still tracks a constant offset under unbiased noise.
  return (lo + hi) / 2;
}

void SkewEstimator::ObserveSpan(const Span& s) {
  ObserveGaps({s.caller, s.caller_replica}, {s.callee, s.callee_replica},
              s.server_recv - s.client_send, s.client_recv - s.server_send);
}

void SkewEstimator::ObserveGaps(const VantageKey& caller,
                                const VantageKey& callee,
                                std::int64_t request_gap_ns,
                                std::int64_t response_gap_ns) {
  pairs_[{caller, callee}].Observe(request_gap_ns, response_gap_ns);
  ++observations_;
  frames_valid_ = false;
}

std::int64_t SkewEstimator::PairOffsetNs(const VantageKey& caller,
                                         const VantageKey& callee) const {
  const auto it = pairs_.find({caller, callee});
  if (it == pairs_.end()) return 0;
  return it->second.OffsetNs();
}

void SkewEstimator::SolveFrames() const {
  frames_.clear();
  // Pairwise offsets are edges d_AB = f_B - f_A of an undirected graph
  // over vantages; a BFS spanning tree per component fixes every frame
  // relative to the component's lexicographically smallest vantage
  // (frame 0). Map iteration keeps anchor choice and edge order
  // deterministic; on inconsistent cycles the first-reached tree edge
  // wins.
  std::map<VantageKey, std::vector<std::pair<VantageKey, std::int64_t>>>
      adjacency;
  for (const auto& [key, stats] : pairs_) {
    if (stats.samples < PairSkewStats::kMinSamples) continue;
    const std::int64_t offset = stats.OffsetNs();
    adjacency[key.first].emplace_back(key.second, offset);
    adjacency[key.second].emplace_back(key.first, -offset);
  }
  std::vector<VantageKey> queue;
  for (const auto& [anchor, unused] : adjacency) {
    if (frames_.count(anchor) > 0) continue;
    queue.clear();
    queue.push_back(anchor);
    frames_[anchor] = 0;
    for (std::size_t q = 0; q < queue.size(); ++q) {
      const VantageKey current = queue[q];
      const std::int64_t base = frames_.at(current);
      for (const auto& [next, offset] : adjacency.at(current)) {
        if (frames_.emplace(next, base + offset).second) {
          queue.push_back(next);
        }
      }
    }
  }
  frames_valid_ = true;
}

std::int64_t SkewEstimator::FrameOffsetNs(const VantageKey& v) const {
  if (!frames_valid_) SolveFrames();
  const auto it = frames_.find(v);
  return it == frames_.end() ? 0 : it->second;
}

bool SkewEstimator::CorrectSpan(Span& s) const {
  const std::int64_t caller_off =
      FrameOffsetNs({s.caller, s.caller_replica});
  const std::int64_t callee_off =
      FrameOffsetNs({s.callee, s.callee_replica});
  if (caller_off == 0 && callee_off == 0) return false;
  s.client_send -= caller_off;
  s.client_recv -= caller_off;
  s.server_recv -= callee_off;
  s.server_send -= callee_off;
  return true;
}

std::size_t SkewEstimator::CorrectSpans(std::vector<Span>& spans) const {
  std::size_t corrected = 0;
  for (Span& s : spans) {
    if (CorrectSpan(s)) ++corrected;
  }
  return corrected;
}

std::map<std::pair<std::string, std::string>, long long>
SkewEstimator::EdgeSlacks() const {
  std::map<std::pair<std::string, std::string>, long long> out;
  for (const auto& [key, stats] : pairs_) {
    // Only pairs that produced inversions need slack: without inversions
    // the constraints never pruned a true candidate, and widening windows
    // on clean edges only invites wrong ones.
    if (stats.samples < PairSkewStats::kMinSamples || stats.inversions == 0) {
      continue;
    }
    const long long slack = std::max<long long>(
        static_cast<long long>(
            std::ceil(kSlackMultiplier * stats.OffsetSpreadNs())),
        kMinEdgeSlackNs);
    long long& slot = out[{key.first.first, key.second.first}];
    slot = std::max(slot, slack);
  }
  return out;
}

std::int64_t SkewEstimator::MaxFrameOffsetNs() const {
  if (!frames_valid_) SolveFrames();
  std::int64_t max_off = 0;
  for (const auto& [vantage, offset] : frames_) {
    max_off = std::max<std::int64_t>(max_off, std::llabs(offset));
  }
  return max_off;
}

std::vector<std::string> SkewEstimator::CheckpointLines() const {
  std::vector<std::string> lines;
  lines.reserve(pairs_.size());
  for (const auto& [key, stats] : pairs_) {
    const std::string req_gaps = JoinGaps(stats.min_request_gaps);
    const std::string resp_gaps = JoinGaps(stats.min_response_gaps);
    std::string line;
    RecordWriter r(line, "skew");
    SkewFields(r, key.first, key.second, stats, req_gaps, resp_gaps);
    r.Finish();
    lines.push_back(std::move(line));
  }
  return lines;
}

bool SkewEstimator::LoadCheckpointLine(const std::string& line) {
  VantageKey caller, callee;
  PairSkewStats stats;
  std::string req_gaps, resp_gaps;
  RecordReader r(line);
  SkewFields(r, caller, callee, stats, req_gaps, resp_gaps);
  if (!r.ok() || !ParseGaps(req_gaps, &stats.min_request_gaps) ||
      !ParseGaps(resp_gaps, &stats.min_response_gaps)) {
    return false;
  }
  observations_ += stats.samples;
  pairs_[{std::move(caller), std::move(callee)}] = std::move(stats);
  frames_valid_ = false;
  return true;
}

void SkewEstimator::FlushMetrics(obs::MetricsRegistry& registry) const {
  std::uint64_t samples = 0, inversions = 0;
  for (const auto& [key, stats] : pairs_) {
    samples += stats.samples;
    inversions += stats.inversions;
  }
  long long max_slack = 0;
  for (const auto& [edge, slack] : EdgeSlacks()) {
    max_slack = std::max(max_slack, slack);
  }
  registry
      .GetGauge("tw_skew_pairs", "",
                "Vantage pairs with accumulated skew evidence.", "1")
      .Set(static_cast<std::int64_t>(pairs_.size()));
  registry
      .GetGauge("tw_skew_samples", "",
                "Cross-vantage gap observations accumulated.", "1")
      .Set(static_cast<std::int64_t>(samples));
  registry
      .GetGauge("tw_skew_inversions", "",
                "Observations with a negative cross-vantage gap.", "1")
      .Set(static_cast<std::int64_t>(inversions));
  registry
      .GetGauge("tw_skew_max_frame_offset_ns", "",
                "Largest |per-vantage frame offset| in the current solve.",
                "ns")
      .Set(MaxFrameOffsetNs());
  registry
      .GetGauge("tw_skew_max_edge_slack_ns", "",
                "Largest derived per-edge feasibility slack.", "ns")
      .Set(max_slack);
}

}  // namespace traceweaver
