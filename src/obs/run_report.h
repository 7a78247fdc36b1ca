// Machine- and human-readable summary of one reconstruction run, built
// from a MetricsRegistry snapshot: what ingestion sanitized or
// quarantined, where the time went per stage, how
// enumeration/batching/ranking/MWIS/GMM behaved, per-service outcomes,
// §4.2 phantom-span usage, the trace-quality family (`tw_quality_*`,
// obs/quality.h), the clock-skew estimator (`tw_skew_*`,
// core/skew_estimator.h), the streaming-resilience family
// (`tw_online_*`, core/online.h), the decision-provenance ledger
// (`tw_prov_*`, obs/provenance.h) and the tail sampler (`tw_sample_*`,
// store/tail_sampler.h). Render as JSON (stable schema
// `traceweaver.run_report.v7`, golden-tested) or as an aligned text
// table for terminals.
//
// Every report field is one row of ReportFields(); the builder, the JSON
// writer and the text table all walk that one table.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace traceweaver::obs {

/// How a report field is read from a snapshot and rendered.
enum class FieldKind {
  kValue,      ///< Counter or gauge `metric{labels}`.
  kHistogram,  ///< Histogram `metric{labels}`.
  kSum,        ///< Counter family `metric`, summed across its labels.
  /// `metric` / `labels`, both dotted names of earlier fields (0 when the
  /// denominator is 0).
  kRatio,
  // Variable-length parts, built and rendered by hand from the family
  // `metric`:
  kStages,      ///< `stages` rows, pipeline order, zero rows included.
  kServices,    ///< `services` rows, one per service label.
  kProvEvents,  ///< `provenance.events` rows, non-zero event types.
};

/// One report field: JSON key `key` inside the dotted object path `path`
/// ("" = top level).
struct ReportField {
  const char* path;
  const char* key;
  const char* metric;
  const char* labels = "";
  FieldKind kind = FieldKind::kValue;
};

/// Every report field, in JSON order.
std::span<const ReportField> ReportFields();

/// One field's value in a built report.
struct FieldValue {
  std::int64_t value = 0;       ///< kValue and kSum.
  double ratio = 0.0;           ///< kRatio.
  HistogramSnapshot histogram;  ///< kHistogram.
};

struct RunReport {
  /// values[i] belongs to ReportFields()[i].
  std::vector<FieldValue> values =
      std::vector<FieldValue>(ReportFields().size());

  struct StageRow {
    std::string stage;
    std::int64_t wall_ns = 0;
    std::int64_t cpu_ns = 0;
    double share = 0.0;  ///< Fraction of the summed stage wall time.
  };
  std::vector<StageRow> stages;

  struct ServiceRow {
    std::string service;
    std::int64_t parents = 0;
    std::int64_t mapped = 0;
    std::int64_t top_choice = 0;
    std::int64_t candidates = 0;
  };
  std::vector<ServiceRow> services;

  struct ProvRow {
    std::string type;  ///< Event-type wire name ("skew_correct", ...).
    std::int64_t count = 0;
  };
  std::vector<ProvRow> provenance_events;

  /// Accessors by dotted name ("enumeration.parents", "quality.grades.a").
  /// Each throws std::out_of_range for a name that is not a field of its
  /// kind, so a misspelled name can never read as 0.
  std::int64_t Get(std::string_view name) const;  ///< kValue or kSum.
  double Ratio(std::string_view name) const;
  const HistogramSnapshot& Histogram(std::string_view name) const;
};

/// Builds the report from a snapshot of a registry the pipeline recorded
/// into (see PipelineMetrics for the names consumed).
RunReport BuildRunReport(const RegistrySnapshot& snapshot);

/// Stable JSON rendering (schema `traceweaver.run_report.v7`).
std::string RunReportJson(const RunReport& report);

/// Text rendering for terminals: the stage and service tables, and one
/// line per object path, hidden when all of its values are zero.
std::string RunReportTable(const RunReport& report);

}  // namespace traceweaver::obs
