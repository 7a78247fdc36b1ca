#include "trace/span_validator.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/provenance.h"

namespace traceweaver {
namespace {

/// True if any replica index is outside [0, kMaxReplica].
bool ReplicasOutOfRange(const Span& s) {
  return s.caller_replica < 0 || s.caller_replica > kMaxReplica ||
         s.callee_replica < 0 || s.callee_replica > kMaxReplica;
}

bool NamesEmpty(const Span& s) {
  return s.caller.empty() || s.callee.empty() || s.endpoint.empty();
}

/// True if two records describe the same captured RPC (every wire and
/// ground-truth field equal) -- i.e. a duplicated record, not an id
/// collision between distinct spans.
bool SameRecord(const Span& a, const Span& b) {
  return a.id == b.id && a.caller == b.caller && a.callee == b.callee &&
         a.endpoint == b.endpoint && a.client_send == b.client_send &&
         a.server_recv == b.server_recv && a.server_send == b.server_send &&
         a.client_recv == b.client_recv &&
         a.caller_replica == b.caller_replica &&
         a.callee_replica == b.callee_replica &&
         a.caller_thread == b.caller_thread &&
         a.handler_thread == b.handler_thread &&
         a.true_parent == b.true_parent && a.true_trace == b.true_trace;
}

}  // namespace

SpanValidator::SpanValidator(SpanValidatorOptions options)
    : options_(options) {}

void SpanValidator::ObserveSkew(const Span& s) {
  // Only cross-vantage inversions are skew evidence: the two endpoints of
  // an RPC are captured by different clocks. A callee-local inversion
  // (server_send < server_recv) comes from one clock and is corruption.
  const std::int64_t request_gap = s.server_recv - s.client_send;
  const std::int64_t response_gap = s.client_recv - s.server_send;
  for (const std::int64_t gap : {request_gap, response_gap}) {
    if (gap >= 0) continue;
    const std::int64_t magnitude = -gap;
    skew_magnitudes_.push_back(magnitude);
    pair_magnitudes_[{s.caller, s.callee}].push_back(magnitude);
    ++stats_.skew_samples;
    stats_.max_skew_ns = std::max(stats_.max_skew_ns, magnitude);
  }
}

SpanId SpanValidator::FreshId() {
  if (next_remap_id_ == 0) next_remap_id_ = 1;
  while (seen_.count(next_remap_id_) != 0 ||
         next_remap_id_ == kInvalidSpanId) {
    ++next_remap_id_;
  }
  return next_remap_id_++;
}

SpanVerdict SpanValidator::AdmitStrict(const Span& s) {
  const obs::ProvRecorder prov(options_.provenance);
  if (NamesEmpty(s)) {
    ++stats_.empty_names;
    prov.Record(obs::ProvEventType::kValidatorQuarantine, s.id, 0,
                "empty_names");
    return SpanVerdict::kQuarantined;
  }
  if (ReplicasOutOfRange(s)) {
    ++stats_.replicas_rejected;
    prov.Record(obs::ProvEventType::kValidatorQuarantine, s.id, 0,
                "replicas");
    return SpanVerdict::kQuarantined;
  }
  if (!TimestampsConsistent(s)) {
    ObserveSkew(s);
    ++stats_.timestamps_rejected;
    prov.Record(obs::ProvEventType::kValidatorQuarantine, s.id, 0,
                "timestamps");
    return SpanVerdict::kQuarantined;
  }
  const auto [it, inserted] = seen_.try_emplace(s.id, s);
  if (!inserted) {
    ++stats_.duplicate_ids;
    ++stats_.duplicates_dropped;  // Keep-first: this occurrence goes.
    prov.Record(obs::ProvEventType::kValidatorDrop, s.id);
    return SpanVerdict::kQuarantined;
  }
  return SpanVerdict::kAccepted;
}

SpanVerdict SpanValidator::AdmitLenient(Span& s) {
  const obs::ProvRecorder prov(options_.provenance);
  if (NamesEmpty(s)) {
    // A span with no caller/callee/endpoint cannot be placed in any call
    // graph; there is nothing to repair it toward.
    ++stats_.empty_names;
    prov.Record(obs::ProvEventType::kValidatorQuarantine, s.id, 0,
                "empty_names");
    return SpanVerdict::kQuarantined;
  }
  bool repaired = false;
  bool replicas_clamped = false;
  bool timestamps_clamped = false;
  if (ReplicasOutOfRange(s)) {
    s.caller_replica =
        std::clamp(s.caller_replica, 0, kMaxReplica);
    s.callee_replica =
        std::clamp(s.callee_replica, 0, kMaxReplica);
    ++stats_.replicas_clamped;
    replicas_clamped = true;
    repaired = true;
  }
  if (!TimestampsConsistent(s)) {
    ObserveSkew(s);
    // Repair only same-clock inversions: each endpoint's two timestamps
    // come from one capture clock, so server_send < server_recv (or
    // client_recv < client_send) is corruption and gets clamped. A
    // cross-vantage inversion (server_recv < client_send) is clock skew
    // between two capture points -- rewriting those timestamps would
    // destroy the real delay distributions the reconstruction learns
    // from, so they pass through and the observed skew instead feeds
    // suggested_slack_ns (loosening the feasibility constraints is the
    // correct absorption mechanism for skew).
    bool corrupt = false;
    if (s.server_send < s.server_recv) {
      s.server_send = s.server_recv;
      corrupt = true;
    }
    if (s.client_recv < s.client_send) {
      s.client_recv = s.client_send;
      corrupt = true;
    }
    if (corrupt) {
      ++stats_.timestamps_clamped;
      timestamps_clamped = true;
      repaired = true;
    }
  }
  const auto [it, inserted] = seen_.try_emplace(s.id, s);
  if (!inserted) {
    ++stats_.duplicate_ids;
    if (SameRecord(s, it->second)) {
      // The same RPC captured twice: a second copy under any id would
      // fabricate a request that never happened, so keep-first.
      ++stats_.duplicates_dropped;
      prov.Record(obs::ProvEventType::kValidatorDrop, s.id);
      return SpanVerdict::kQuarantined;
    }
    const SpanId old_id = s.id;
    s.id = FreshId();
    seen_.emplace(s.id, s);
    ++stats_.duplicates_remapped;
    prov.Record(obs::ProvEventType::kValidatorRemap, s.id,
                static_cast<std::int64_t>(old_id));
    repaired = true;
  }
  // Clamp events keyed by the *final* id so they travel with the span the
  // pipeline actually commits.
  if (replicas_clamped) {
    prov.Record(obs::ProvEventType::kValidatorClamp, s.id, 0, "replicas");
  }
  if (timestamps_clamped) {
    prov.Record(obs::ProvEventType::kValidatorClamp, s.id, 0, "timestamps");
  }
  return repaired ? SpanVerdict::kRepaired : SpanVerdict::kAccepted;
}

SpanVerdict SpanValidator::Admit(Span& s) {
  ++stats_.input;
  SpanVerdict verdict = SpanVerdict::kAccepted;
  switch (options_.mode) {
    case IngestMode::kOff:
      break;
    case IngestMode::kStrict:
      verdict = AdmitStrict(s);
      break;
    case IngestMode::kLenient:
      verdict = AdmitLenient(s);
      break;
  }
  switch (verdict) {
    case SpanVerdict::kAccepted:
      ++stats_.accepted;
      break;
    case SpanVerdict::kRepaired:
      ++stats_.repaired;
      break;
    case SpanVerdict::kQuarantined:
      ++stats_.quarantined;
      quarantine_.push_back(s);
      break;
  }
  return verdict;
}

std::vector<Span> SpanValidator::Sanitize(std::vector<Span> spans) {
  // Pre-scan ids so duplicate remaps never collide with a genuine id
  // appearing later in the batch.
  SpanId max_id = 0;
  for (const Span& s : spans) {
    if (s.id != kInvalidSpanId) max_id = std::max(max_id, s.id);
  }
  if (max_id >= next_remap_id_) next_remap_id_ = max_id + 1;

  std::vector<Span> kept;
  kept.reserve(spans.size());
  for (Span& s : spans) {
    if (Admit(s) != SpanVerdict::kQuarantined) kept.push_back(std::move(s));
  }
  return kept;
}

const IngestStats& SpanValidator::Finish() {
  if (finished_) return stats_;
  finished_ = true;

  if (!skew_magnitudes_.empty()) {
    // Suggested feasibility slack: 2x the p99 skew magnitude. The p99
    // (index-based on the sorted magnitudes) is robust to a few garbled
    // outliers; the factor-2 headroom follows the parameters.h guidance of
    // setting slack to a small multiple of the observed jitter scale.
    std::sort(skew_magnitudes_.begin(), skew_magnitudes_.end());
    const std::size_t idx = static_cast<std::size_t>(
        0.99 * static_cast<double>(skew_magnitudes_.size() - 1));
    stats_.suggested_slack_ns = 2 * skew_magnitudes_[idx];

    // The same magnitudes bucketed per service pair, worst pair first, so
    // warnings can point at the skewed edge instead of the whole
    // deployment. Map order keeps ties deterministic.
    for (auto& [pair, magnitudes] : pair_magnitudes_) {
      std::sort(magnitudes.begin(), magnitudes.end());
      IngestStats::PairSkew row;
      row.caller = pair.first;
      row.callee = pair.second;
      row.samples = magnitudes.size();
      row.max_skew_ns = magnitudes.back();
      row.p99_skew_ns = magnitudes[static_cast<std::size_t>(
          0.99 * static_cast<double>(magnitudes.size() - 1))];
      stats_.skew_pairs.push_back(std::move(row));
    }
    std::stable_sort(stats_.skew_pairs.begin(), stats_.skew_pairs.end(),
                     [](const IngestStats::PairSkew& a,
                        const IngestStats::PairSkew& b) {
                       return a.p99_skew_ns > b.p99_skew_ns;
                     });
  }

  if (options_.metrics != nullptr) {
    obs::MetricsRegistry& reg = *options_.metrics;
    const auto counter = [&reg](const char* name, const char* help) {
      return reg.GetCounter(name, "", help, "1");
    };
    counter("tw_ingest_spans_total", "Spans offered to the validator.")
        .Inc(stats_.input);
    counter("tw_ingest_accepted_total", "Spans passed through untouched.")
        .Inc(stats_.accepted);
    counter("tw_ingest_repaired_total", "Spans kept after repair.")
        .Inc(stats_.repaired);
    counter("tw_ingest_quarantined_total", "Spans rejected at ingest.")
        .Inc(stats_.quarantined);
    counter("tw_ingest_parse_errors_total",
            "Malformed serialized records dropped before span assembly.")
        .Inc(stats_.parse_errors);
    counter("tw_ingest_timestamps_clamped_total",
            "Spans with non-monotone timestamps repaired by clamping.")
        .Inc(stats_.timestamps_clamped);
    counter("tw_ingest_timestamps_rejected_total",
            "Strict mode: spans quarantined for timestamp inversions.")
        .Inc(stats_.timestamps_rejected);
    counter("tw_ingest_duplicate_ids_total", "Span-id collisions detected.")
        .Inc(stats_.duplicate_ids);
    counter("tw_ingest_duplicates_remapped_total",
            "Lenient mode: collided spans given fresh ids.")
        .Inc(stats_.duplicates_remapped);
    counter("tw_ingest_duplicates_dropped_total",
            "Strict mode: keep-first duplicate drops.")
        .Inc(stats_.duplicates_dropped);
    counter("tw_ingest_replicas_clamped_total",
            "Out-of-range replica indices clamped.")
        .Inc(stats_.replicas_clamped);
    counter("tw_ingest_empty_names_total",
            "Spans quarantined for empty caller/callee/endpoint.")
        .Inc(stats_.empty_names);
    obs::Histogram skew = reg.GetHistogram(
        "tw_ingest_skew_ns", "",
        "Observed cross-vantage clock-skew magnitudes.", "ns");
    for (const std::int64_t m : skew_magnitudes_) {
      skew.Observe(static_cast<std::uint64_t>(m));
    }
    reg.GetGauge("tw_ingest_suggested_slack_ns", "",
                 "Suggested Parameters::constraint_slack_ns derived from "
                 "the observed skew distribution.",
                 "ns")
        .Set(stats_.suggested_slack_ns);
    reg.GetGauge("tw_ingest_skew_pairs", "",
                 "Service pairs with observed cross-vantage inversions.",
                 "1")
        .Set(static_cast<std::int64_t>(stats_.skew_pairs.size()));
  }
  return stats_;
}

}  // namespace traceweaver
