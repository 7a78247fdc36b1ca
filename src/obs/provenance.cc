#include "obs/provenance.h"

#include <algorithm>
#include <array>

#include "util/json.h"

namespace traceweaver::obs {
namespace {

/// Wire names, indexed by ProvEventType. docs/API.md lists the same
/// vocabulary; tools/check_docs.py cross-checks the two.
constexpr const char* kEventTypeNames[kProvEventTypeCount] = {
    "validator_clamp",  "validator_remap", "validator_drop",
    "validator_quarantine", "skew_correct", "admission_drop",
    "window_shed",      "degraded_solve",  "late_graft",
    "late_expire",      "late_drop",       "settled",
    "orphan_commit",    "finalized",       "sampled_out",
};

/// Indexes into kProvEventJsonKeys.
enum EventKey { kTypeKey, kSpanKey, kValueKey, kDetailKey };

}  // namespace

const char* ProvEventTypeName(ProvEventType type) {
  const auto i = static_cast<std::size_t>(type);
  return i < kProvEventTypeCount ? kEventTypeNames[i] : "unknown";
}

std::optional<ProvEventType> ProvEventTypeFromName(const std::string& name) {
  for (std::size_t i = 0; i < kProvEventTypeCount; ++i) {
    if (name == kEventTypeNames[i]) return static_cast<ProvEventType>(i);
  }
  return std::nullopt;
}

std::string ProvEventToJson(const ProvEvent& event) {
  std::string out = "{";
  json::AppendStrField(out, "t", ProvEventTypeName(event.type));
  out += ",\"span\":";
  out += std::to_string(static_cast<std::uint64_t>(event.span));
  out += ",\"v\":";
  out += std::to_string(event.value);
  if (!event.detail.empty()) {
    out += ',';
    json::AppendStrField(out, "d", event.detail);
  }
  out += '}';
  return out;
}

std::optional<ProvEvent> ProvEventFromJson(std::string_view text) {
  std::array<std::size_t, kProvEventJsonKeys.size()> at;
  json::FindValues(text, kProvEventJsonKeys, at);
  return ProvEventFromValues(text, at);
}

std::optional<ProvEvent> ProvEventFromValues(
    std::string_view text, std::span<const std::size_t> at) {
  std::string name;
  if (!json::ReadStr(text, at[kTypeKey], &name)) return std::nullopt;
  const auto type = ProvEventTypeFromName(name);
  if (!type) return std::nullopt;
  ProvEvent event;
  event.type = *type;
  if (!json::ReadU64(text, at[kSpanKey], &event.span) ||
      !json::ReadI64(text, at[kValueKey], &event.value)) {
    return std::nullopt;
  }
  if (!json::ReadStr(text, at[kDetailKey], &event.detail)) {
    event.detail.clear();
  }
  return event;
}

ProvenanceLedger::ProvenanceLedger(ProvenanceLedgerOptions options,
                                   MetricsRegistry* metrics)
    : options_(options) {
  if (metrics == nullptr) return;
  for (std::size_t i = 0; i < kProvEventTypeCount; ++i) {
    events_[i] = metrics->GetCounter(
        "tw_prov_events_total",
        "type=\"" + std::string(kEventTypeNames[i]) + "\"",
        "Provenance events recorded, by decision type", "1");
  }
  dropped_metric_ = metrics->GetCounter(
      "tw_prov_events_dropped_total", "",
      "Provenance events dropped because the ledger was full", "1");
  pending_gauge_ = metrics->GetGauge(
      "tw_prov_pending_events", "",
      "Provenance events awaiting their span's commit", "1");
}

void ProvenanceLedger::Record(ProvEventType type, SpanId span,
                              std::int64_t value, std::string detail) {
  if (pending_ >= options_.max_events) {
    ++dropped_;
    dropped_metric_.Inc();
    return;
  }
  ProvEvent event;
  event.type = type;
  event.span = span;
  event.value = value;
  event.detail = std::move(detail);
  by_span_[span].push_back(std::move(event));
  ++pending_;
  ++recorded_;
  events_[static_cast<std::size_t>(type)].Inc();
  pending_gauge_.Set(static_cast<std::int64_t>(pending_));
}

ProvEvent ProvenanceLedger::Emit(ProvEventType type, SpanId span,
                                 std::int64_t value, std::string detail) {
  ++recorded_;
  events_[static_cast<std::size_t>(type)].Inc();
  ProvEvent event;
  event.type = type;
  event.span = span;
  event.value = value;
  event.detail = std::move(detail);
  return event;
}

std::vector<ProvEvent> ProvenanceLedger::Take(SpanId span) {
  const auto it = by_span_.find(span);
  if (it == by_span_.end()) return {};
  std::vector<ProvEvent> events = std::move(it->second);
  by_span_.erase(it);
  pending_ -= events.size();
  pending_gauge_.Set(static_cast<std::int64_t>(pending_));
  return events;
}

std::vector<std::string> ProvenanceLedger::CheckpointLines() const {
  std::vector<SpanId> ids;
  ids.reserve(by_span_.size());
  for (const auto& [id, events] : by_span_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  std::vector<std::string> lines;
  lines.reserve(pending_);
  for (const SpanId id : ids) {
    for (const ProvEvent& event : by_span_.at(id)) {
      std::string line = "{\"ckpt\":\"prov\",";
      // Reuse the event layout past the tag so one parser serves both.
      line += ProvEventToJson(event).substr(1);
      lines.push_back(std::move(line));
    }
  }
  return lines;
}

void ProvenanceLedger::RestorePending(std::vector<ProvEvent> events) {
  by_span_.clear();
  pending_ = 0;
  dropped_ = 0;
  for (ProvEvent& event : events) {
    const SpanId span = event.span;
    by_span_[span].push_back(std::move(event));
    ++pending_;
  }
  recorded_ = pending_;
  pending_gauge_.Set(static_cast<std::int64_t>(pending_));
}

}  // namespace traceweaver::obs
