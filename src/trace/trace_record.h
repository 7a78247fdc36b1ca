// The committed-trace record: the unit the trace store persists and the
// HTTP query service returns (schema `traceweaver.trace.v1`).
//
// A TraceRecord is one reconstructed request trace at rest: the root span,
// every span the stitcher attached beneath it, the parent edges chosen by
// the optimizer, and the quality summary (A-D grade, calibrated
// confidence) the serving layer indexes on. Records serialize to a single
// JSON line so segment files stay line-oriented and can ride the
// CRC-guarded checkpoint container (trace/checkpoint.h).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/provenance.h"
#include "trace/span.h"

namespace traceweaver {

struct TraceRecord {
  /// Schema tag embedded in every serialized record.
  static constexpr const char* kSchema = "traceweaver.trace.v1";

  /// Trace id == root span id (the repo-wide convention: a reconstructed
  /// trace is identified by its root).
  SpanId trace_id = kInvalidSpanId;
  std::string root_service;   ///< Callee of the root span.
  std::string root_endpoint;
  TimeNs start = 0;  ///< min client_send over the trace's spans.
  TimeNs end = 0;    ///< max client_recv over the trace's spans.

  // --- Quality summary (obs/quality.h; defaults when quality was off). ---
  char grade = 'D';              ///< A (best) .. D.
  double confidence = 0.0;       ///< Per-trace product confidence.
  double min_confidence = 0.0;   ///< Weakest-link assignment confidence.
  /// Root has a non-client caller: a fragment whose true parent was never
  /// reconstructed (benign capture gap or suspicious broken link).
  bool orphan = false;
  bool suspect = false;          ///< Orphan judged a likely mistake.

  /// Spans in SpanStartOrder of the root-first tree walk used at commit
  /// time (root always first).
  std::vector<Span> spans;
  /// Parent edges (child id -> parent id), sorted by child id. The root
  /// carries no edge. Skipped plan positions simply have no edge.
  std::vector<std::pair<SpanId, SpanId>> parents;

  /// Decision provenance (schema `traceweaver.provenance.v1` when served
  /// standalone): every pipeline decision recorded for this trace's
  /// spans, in span commit-walk order, with the committer's settle
  /// outcome last. Empty when the pipeline ran without a ledger; the
  /// serialized block is omitted entirely then, so records are
  /// byte-identical to the pre-provenance format.
  std::vector<obs::ProvEvent> provenance;

  DurationNs Duration() const { return end - start; }
};

/// Serializes a record as one JSON line (no trailing newline), schema
/// `traceweaver.trace.v1`: fixed key order, ids as decimal integers,
/// confidences as %.6f.
std::string TraceRecordToJson(const TraceRecord& record);
/// The same line; *provenance_at is set to where the value of its
/// `provenance` key starts, or npos when the record has no provenance
/// (the block is then omitted).
std::string TraceRecordToJson(const TraceRecord& record,
                              std::size_t* provenance_at);

/// Parses a line written by TraceRecordToJson. Returns nullopt on
/// malformed input (wrong schema tag, missing fields, bad span elements).
std::optional<TraceRecord> TraceRecordFromJson(std::string_view line);
/// The same parse; on success it also sets *provenance_at to where the
/// value of the line's `provenance` key starts (json::FindValue's answer,
/// found by the same walk), or npos when the record has no provenance
/// block.
std::optional<TraceRecord> TraceRecordFromJson(std::string_view line,
                                               std::size_t* provenance_at);

}  // namespace traceweaver
