// Decision provenance: the per-span ledger of everything the streaming
// pipeline decided on a span's way from ingest to commit (DESIGN.md §4j).
//
// Aggregate tw_* counters say *how often* the pipeline clamped, shed or
// degraded; they cannot answer "why does *this* trace look like this?".
// The ledger closes that gap: every consequential decision -- a validator
// repair, a skew correction (with the applied offset), an admission drop,
// a window shed, the degradation rung a parent was solved at, a late-span
// graft or expiry, and the committer's settle outcome -- is recorded as a
// compact typed event keyed by span id. When the committer seals a trace
// it drains the events of every member span into the record's
// `traceweaver.provenance.v1` block, which rides the trace through the
// store and out of `GET /traces/{id}/provenance`.
//
// Design constraints, mirroring the metrics layer (obs/metrics.h):
//
//   * Hot paths hold a POD ProvRecorder handle; a default-constructed
//     (disabled) handle makes Record() a single branch, so instrumented
//     code carries no "is provenance on?" conditionals of its own.
//   * Recording never influences control flow: reconstruction output is
//     bit-identical with the ledger attached or not.
//   * Events carry no wall-clock readings -- only stream-derived values
//     (offsets, rungs, ids, data-timebase timestamps) -- so a kill -9
//     resume re-records byte-identical provenance.
//   * Bounded memory: a full ledger drops new events and counts the loss
//     (tw_prov_events_dropped_total) instead of growing without bound on
//     streams whose spans never commit.
//
// Pending (not yet committed) events serialize as `"ckpt":"prov"` lines
// inside the traceweaver.checkpoint.v1 stream (core/online.h), so a
// killed serve loop loses nothing.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "trace/span.h"

namespace traceweaver::obs {

/// Every decision kind the pipeline records. Names (ProvEventTypeName)
/// are the wire/docs vocabulary -- docs/API.md lists all of them and
/// tools/check_docs.py cross-checks the two.
enum class ProvEventType {
  kValidatorClamp,       ///< Same-clock timestamps / replica index clamped.
  kValidatorRemap,       ///< Id collision remapped (value = old id).
  kValidatorDrop,        ///< Exact duplicate record dropped.
  kValidatorQuarantine,  ///< Rejected at ingest (detail = reason).
  kSkewCorrect,   ///< Shifted into the common clock frame (value = callee
                  ///< frame offset ns, detail = "service@replica").
  kAdmissionDrop, ///< Rejected by the admission controller (over budget).
  kWindowShed,    ///< Shed with its whole window (value = window start).
  kDegradedSolve, ///< Parent committed at degradation rung > 0 (value).
  kLateGraft,     ///< Late span grafted into a parent (value = parent id).
  kLateExpire,    ///< Late span expired to orphan (value = deadline).
  kLateDrop,      ///< Evicted from the full late pool.
  kSettled,       ///< Trace settled normally (value = span count).
  kOrphanCommit,  ///< Committed as an orphan fragment (value = span count).
  kFinalized,     ///< Committed at end-of-stream (value = span count).
  kSampledOut,    ///< Shed by the tail sampler before store commit
                  ///< (value = span count, detail = keep-policy verdict).
};
inline constexpr std::size_t kProvEventTypeCount = 15;

/// Stable wire name of a type, e.g. "skew_correct".
const char* ProvEventTypeName(ProvEventType type);
/// Inverse of ProvEventTypeName; nullopt for unknown names.
std::optional<ProvEventType> ProvEventTypeFromName(const std::string& name);

/// One recorded decision. `value` and `detail` are type-dependent (see
/// the enum comments); both default to empty/zero.
struct ProvEvent {
  ProvEventType type = ProvEventType::kSettled;
  SpanId span = kInvalidSpanId;
  std::int64_t value = 0;
  std::string detail;

  bool operator==(const ProvEvent&) const = default;
};

/// One event as a JSON object, fixed key order:
/// {"t":"<name>","span":<id>,"v":<value>[,"d":"<detail>"]} ("d" omitted
/// when empty).
std::string ProvEventToJson(const ProvEvent& event);
/// Parses ProvEventToJson output (extra fields such as a checkpoint tag
/// are ignored); nullopt on malformed input.
std::optional<ProvEvent> ProvEventFromJson(std::string_view text);

/// The keys ProvEventFromJson reads.
inline constexpr std::array<std::string_view, 4> kProvEventJsonKeys = {
    "t", "span", "v", "d"};
/// ProvEventFromJson for an event whose keys a json::FindValues walk has
/// already found: positions[k] is the value position of
/// kProvEventJsonKeys[k] in `text`.
std::optional<ProvEvent> ProvEventFromValues(
    std::string_view text, std::span<const std::size_t> positions);

struct ProvenanceLedgerOptions {
  /// Hard cap on pending (recorded but not yet taken) events; overflow
  /// drops the new event and counts it.
  std::size_t max_events = std::size_t{1} << 18;
};

/// The ledger: pending events keyed by span id, drained at commit time.
/// Not thread-safe -- owned and driven by the single-threaded serve loop
/// (the HTTP readers only ever see committed records).
class ProvenanceLedger {
 public:
  explicit ProvenanceLedger(ProvenanceLedgerOptions options = {},
                            MetricsRegistry* metrics = nullptr);

  /// Records one pending event for `span` (dropped, and counted, when the
  /// ledger is full).
  void Record(ProvEventType type, SpanId span, std::int64_t value = 0,
              std::string detail = {});

  /// Builds (and counts) an event without storing it -- for commit-time
  /// outcomes that go straight onto the record being sealed.
  ProvEvent Emit(ProvEventType type, SpanId span, std::int64_t value = 0,
                 std::string detail = {});

  /// Moves out every pending event of `span` in recorded order; empty
  /// when none.
  std::vector<ProvEvent> Take(SpanId span);

  bool Has(SpanId span) const { return by_span_.count(span) > 0; }
  std::size_t pending_events() const { return pending_; }
  std::size_t pending_spans() const { return by_span_.size(); }
  std::uint64_t recorded() const { return recorded_; }
  std::uint64_t dropped() const { return dropped_; }

  /// Serializes every pending event as a `"ckpt":"prov"` JSON line,
  /// sorted by span id (recorded order within a span) so identical state
  /// always produces identical bytes.
  std::vector<std::string> CheckpointLines() const;

  /// Replaces the pending state with `events` (a successful checkpoint
  /// restore). Counters (recorded/dropped) restart from the restored
  /// pending set; tw_prov_* metrics are not re-incremented.
  void RestorePending(std::vector<ProvEvent> events);

 private:
  ProvenanceLedgerOptions options_;
  std::unordered_map<SpanId, std::vector<ProvEvent>> by_span_;
  std::size_t pending_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;

  // tw_prov_* handles (inert when constructed without a registry).
  Counter events_[kProvEventTypeCount];
  Counter dropped_metric_;
  Gauge pending_gauge_;
};

/// Inert-bundle recorder handle (the PR 2 pattern): hot paths hold one by
/// value and call Record() unconditionally; a null ledger makes that a
/// single branch.
class ProvRecorder {
 public:
  ProvRecorder() = default;
  explicit ProvRecorder(ProvenanceLedger* ledger) : ledger_(ledger) {}

  void Record(ProvEventType type, SpanId span, std::int64_t value = 0,
              std::string detail = {}) const {
    if (ledger_ != nullptr) {
      ledger_->Record(type, span, value, std::move(detail));
    }
  }

  explicit operator bool() const { return ledger_ != nullptr; }
  ProvenanceLedger* ledger() const { return ledger_; }

 private:
  ProvenanceLedger* ledger_ = nullptr;
};

}  // namespace traceweaver::obs
