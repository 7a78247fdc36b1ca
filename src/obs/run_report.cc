#include "obs/run_report.h"

#include <algorithm>
#include <initializer_list>
#include <sstream>
#include <stdexcept>

#include "obs/pipeline_metrics.h"
#include "util/json.h"
#include "util/table.h"

namespace traceweaver::obs {
namespace {

using enum FieldKind;

/// The report schema. A ratio follows the fields it divides.
constexpr ReportField kFields[] = {
    {"run", "runs", "tw_runs_total"},
    {"run", "spans", "tw_run_spans_total"},
    {"run", "containers", "tw_run_containers_total"},
    {"run", "threads", "tw_threads"},
    {"run", "wall_ns", "tw_run_wall_ns_total"},
    {"ingest", "input", "tw_ingest_spans_total"},
    {"ingest", "accepted", "tw_ingest_accepted_total"},
    {"ingest", "repaired", "tw_ingest_repaired_total"},
    {"ingest", "quarantined", "tw_ingest_quarantined_total"},
    {"ingest", "parse_errors", "tw_ingest_parse_errors_total"},
    {"ingest", "timestamps_clamped", "tw_ingest_timestamps_clamped_total"},
    {"ingest", "duplicate_ids", "tw_ingest_duplicate_ids_total"},
    {"ingest", "suggested_slack_ns", "tw_ingest_suggested_slack_ns"},
    {"", "stages", "tw_stage_wall_ns_total", "", kStages},
    {"stage_total", "wall_ns", "tw_stage_wall_ns_total", "", kSum},
    {"stage_total", "coverage_of_run_wall", "stage_total.wall_ns",
     "run.wall_ns", kRatio},
    {"", "services", "tw_service_parents_total", "", kServices},
    {"enumeration", "parents", "tw_parents_total"},
    {"enumeration", "leaves", "tw_parents_leaf_total"},
    {"enumeration", "mapped", "tw_parents_mapped_total"},
    {"enumeration", "top_choice", "tw_parents_top_choice_total"},
    {"enumeration", "candidates", "tw_candidates_total"},
    {"enumeration", "dfs_nodes", "tw_enum_dfs_nodes_total"},
    {"enumeration", "branch_limited", "tw_enum_branch_limited_total"},
    {"enumeration", "total_capped", "tw_enum_total_capped_total"},
    {"enumeration", "candidates_per_parent", "tw_candidates_per_parent", "",
     kHistogram},
    {"batching", "batches", "tw_batches_total"},
    {"batching", "imperfect", "tw_batches_imperfect_total"},
    {"batching", "solve_runs", "tw_solve_runs_total"},
    {"batching", "batch_size", "tw_batch_size", "", kHistogram},
    {"delay_model", "keys_seeded", "tw_delay_keys_seeded_total"},
    {"delay_model", "keys_refit", "tw_delay_keys_refit_total"},
    {"delay_model", "keys_final", "tw_delay_keys_final_total"},
    {"delay_model", "mixture_keys", "tw_delay_mixture_keys_final_total"},
    {"delay_model", "components", "tw_delay_components_final_total"},
    {"delay_model", "gmm_fits", "tw_gmm_fits_total"},
    {"delay_model", "em_iterations", "tw_gmm_em_iterations_total"},
    {"delay_model", "gmm_components", "tw_gmm_components", "", kHistogram},
    {"ranking", "tasks", "tw_rank_tasks_total"},
    {"ranking", "tasks_skipped", "tw_rank_tasks_skipped_total"},
    {"ranking", "margin_milli", "tw_rank_margin_milli", "", kHistogram},
    {"mwis", "solves", "tw_mwis_solves_total"},
    {"mwis", "vertices", "tw_mwis_vertices_total"},
    {"mwis", "edges", "tw_mwis_edges_total"},
    {"mwis", "bb_nodes", "tw_mwis_bb_nodes_total"},
    {"mwis", "fallbacks", "tw_mwis_fallbacks_total"},
    {"mwis", "fallback_rate", "mwis.fallbacks", "mwis.solves", kRatio},
    {"iteration", "iterations", "tw_iterations_total"},
    {"iteration", "converged", "tw_converged_total"},
    {"dynamism", "containers", "tw_dynamism_containers_total"},
    {"dynamism", "skip_budget", "tw_skip_budget_total"},
    {"dynamism", "skips_chosen", "tw_skips_chosen_total"},
    {"quality", "assignments", "tw_quality_assignments_total"},
    {"quality", "unmapped", "tw_quality_unmapped_total"},
    {"quality", "traces", "tw_quality_traces_total"},
    {"quality.grades", "a", "tw_quality_grade_total", "grade=\"a\""},
    {"quality.grades", "b", "tw_quality_grade_total", "grade=\"b\""},
    {"quality.grades", "c", "tw_quality_grade_total", "grade=\"c\""},
    {"quality.grades", "d", "tw_quality_grade_total", "grade=\"d\""},
    {"quality", "confidence_milli", "tw_quality_confidence_milli", "",
     kHistogram},
    {"quality", "entropy_milli", "tw_quality_entropy_milli", "", kHistogram},
    {"quality", "trace_confidence_milli", "tw_quality_trace_confidence_milli",
     "", kHistogram},
    {"quality.monitor", "windows", "tw_quality_monitor_windows_total"},
    {"quality.monitor", "drift", "tw_quality_monitor_drift_total"},
    {"skew", "pairs", "tw_skew_pairs"},
    {"skew", "samples", "tw_skew_samples"},
    {"skew", "inversions", "tw_skew_inversions"},
    {"skew", "max_frame_offset_ns", "tw_skew_max_frame_offset_ns"},
    {"skew", "max_edge_slack_ns", "tw_skew_max_edge_slack_ns"},
    {"online", "spans_ingested", "tw_online_spans_ingested_total"},
    {"online", "windows_closed", "tw_online_windows_closed_total"},
    {"online", "parents_committed", "tw_online_parents_committed_total"},
    {"online.shedding", "windows_shed", "tw_online_windows_shed_total"},
    {"online.shedding", "spans_shed", "tw_online_spans_shed_total"},
    {"online.shedding", "admission_drops",
     "tw_online_admission_drops_total"},
    {"online.shedding", "buffer_spans", "tw_online_buffer_spans"},
    {"online.shedding", "buffer_bytes", "tw_online_buffer_bytes"},
    {"online.degradation", "deadline_misses",
     "tw_online_deadline_misses_total"},
    {"online.degradation", "steps_up", "tw_online_degrade_steps_total",
     "direction=\"up\""},
    {"online.degradation", "steps_down", "tw_online_degrade_steps_total",
     "direction=\"down\""},
    {"online.degradation", "level", "tw_online_degradation_level"},
    {"online.late", "spans", "tw_online_late_spans_total"},
    {"online.late", "grafted", "tw_online_late_grafted_total"},
    {"online.late", "orphans", "tw_online_late_orphans_total"},
    {"online.late", "dropped", "tw_online_late_dropped_total"},
    {"online.late", "watermark_regressions",
     "tw_online_watermark_regressions_total"},
    {"online.checkpointing", "checkpoints", "tw_online_checkpoints_total"},
    {"online.checkpointing", "restores", "tw_online_restores_total"},
    {"online", "window_close_ns", "tw_online_window_close_ns", "",
     kHistogram},
    {"provenance", "recorded", "tw_prov_events_total", "", kSum},
    {"provenance", "dropped", "tw_prov_events_dropped_total"},
    {"provenance", "pending_events", "tw_prov_pending_events"},
    {"provenance", "events", "tw_prov_events_total", "", kProvEvents},
    {"sampler", "considered", "tw_sample_considered_total"},
    {"sampler", "shed", "tw_sample_shed_total"},
    {"sampler", "shed_spans", "tw_sample_shed_spans_total"},
    {"sampler", "kept_interesting", "tw_sample_kept_interesting_total"},
    {"sampler", "kept_random", "tw_sample_kept_random_total"},
};

/// Index of the field named `name` ("<path>.<key>"); throws unless its
/// kind is in `kinds`.
std::size_t FieldIndex(std::string_view name,
                       std::initializer_list<FieldKind> kinds) {
  for (std::size_t i = 0; i < std::size(kFields); ++i) {
    const ReportField& f = kFields[i];
    if (std::string(f.path) + "." + f.key != name) continue;
    for (const FieldKind k : kinds) {
      if (f.kind == k) return i;
    }
  }
  throw std::out_of_range("run report has no such field: " +
                          std::string(name));
}

/// Extracts the value of `key` from a Prometheus label body such as
/// `service="frontend"`. Values never contain quotes in our registries.
std::string LabelValue(const std::string& labels, const std::string& key) {
  const std::string needle = key + "=\"";
  const std::size_t at = labels.find(needle);
  if (at == std::string::npos) return "";
  const std::size_t start = at + needle.size();
  const std::size_t end = labels.find('"', start);
  if (end == std::string::npos) return "";
  return labels.substr(start, end - start);
}

double Fraction(std::int64_t num, std::int64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

// ---------------------------------------------------------------------
// JSON output: hand-rolled so it is deterministic (fixed key order, fixed
// float formatting) and golden-testable.

/// Incremental writer for one JSON object/array level; keeps the comma
/// bookkeeping out of the report code.
class Json {
 public:
  explicit Json(std::string* out) : out_(out) {}

  void Open(char c) {
    *out_ += c;
    first_.push_back(true);
  }
  void Close(char c) {
    *out_ += c;
    first_.pop_back();
  }
  void Key(std::string_view k) {
    Elem();
    *out_ += json::Str(k);
    *out_ += ':';
  }
  void Field(std::string_view k, std::int64_t v) {
    Key(k);
    *out_ += std::to_string(v);
  }
  void Field(std::string_view k, std::uint64_t v) {
    Key(k);
    *out_ += std::to_string(v);
  }
  void Field(std::string_view k, double v) {
    Key(k);
    *out_ += json::Fixed(v);
  }
  void Field(std::string_view k, std::string_view v) {
    Key(k);
    *out_ += json::Str(v);
  }
  void Elem() {
    if (!first_.empty()) {
      if (!first_.back()) *out_ += ',';
      first_.back() = false;
    }
  }

 private:
  std::string* out_;
  std::vector<bool> first_;
};

void HistogramFields(Json& j, std::string_view key,
                     const HistogramSnapshot& h) {
  j.Key(key);
  j.Open('{');
  j.Field("count", h.count);
  j.Field("sum", h.sum);
  j.Field("mean", h.Mean());
  j.Field("p50_le", h.Quantile(0.5));
  j.Field("p95_le", h.Quantile(0.95));
  j.Field("max_le", h.Quantile(1.0));
  j.Close('}');
}

/// Closes and opens objects so that the open ones become `path`'s
/// dotted segments.
void MoveTo(Json& j, std::vector<std::string_view>& open,
            std::string_view path) {
  std::vector<std::string_view> want;
  while (!path.empty()) {
    const std::size_t dot = path.find('.');
    want.push_back(path.substr(0, dot));
    path = dot == std::string_view::npos ? "" : path.substr(dot + 1);
  }
  std::size_t common = 0;
  while (common < open.size() && common < want.size() &&
         open[common] == want[common]) {
    ++common;
  }
  for (; open.size() > common; open.pop_back()) j.Close('}');
  for (; common < want.size(); ++common) {
    j.Key(want[common]);
    j.Open('{');
    open.push_back(want[common]);
  }
}

std::string FmtNs(std::int64_t ns) {
  return Fmt(static_cast<double>(ns) / 1e6, 2);  // milliseconds
}

/// "mean 1.5, p50<=3, p95<=15, max<=31" summary of a histogram at
/// log-bucket resolution; "-" when empty.
std::string HistSummary(const HistogramSnapshot& h) {
  if (h.count == 0) return "-";
  std::ostringstream out;
  out << "mean " << Fmt(h.Mean(), 1) << ", p50<=" << h.Quantile(0.5)
      << ", p95<=" << h.Quantile(0.95) << ", max<=" << h.Quantile(1.0);
  return out.str();
}

/// "<path>: key value, key (histogram), ..." over every field at `path`,
/// or "" when all of them are zero.
std::string PathLine(const RunReport& r, std::string_view path) {
  std::ostringstream out;
  out << path << ':';
  const char* sep = " ";
  bool any = false;
  for (std::size_t i = 0; i < std::size(kFields); ++i) {
    const ReportField& f = kFields[i];
    const FieldValue& v = r.values[i];
    if (f.path != path) continue;
    out << sep << f.key;
    sep = ", ";
    switch (f.kind) {
      case kValue:
      case kSum:
        out << ' ' << v.value;
        any |= v.value != 0;
        break;
      case kRatio:
        out << ' ' << FmtPct(v.ratio);
        any |= v.ratio != 0.0;
        break;
      case kHistogram:
        out << " (" << HistSummary(v.histogram) << ')';
        any |= v.histogram.count != 0;
        break;
      case kProvEvents:
        for (const RunReport::ProvRow& row : r.provenance_events) {
          out << ' ' << row.type << '=' << row.count;
        }
        any |= !r.provenance_events.empty();
        break;
      default:
        break;
    }
  }
  return any ? out.str() + '\n' : "";
}

}  // namespace

std::span<const ReportField> ReportFields() { return kFields; }

std::int64_t RunReport::Get(std::string_view name) const {
  return values[FieldIndex(name, {kValue, kSum})].value;
}

double RunReport::Ratio(std::string_view name) const {
  return values[FieldIndex(name, {kRatio})].ratio;
}

const HistogramSnapshot& RunReport::Histogram(std::string_view name) const {
  return values[FieldIndex(name, {kHistogram})].histogram;
}

RunReport BuildRunReport(const RegistrySnapshot& s) {
  RunReport r;
  for (std::size_t i = 0; i < std::size(kFields); ++i) {
    const ReportField& f = kFields[i];
    FieldValue& v = r.values[i];
    switch (f.kind) {
      case kValue:
        v.value = s.Value(f.metric, f.labels);
        break;
      case kHistogram:
        if (const MetricSnapshot* m = s.Find(f.metric, f.labels)) {
          v.histogram = m->histogram;
        }
        break;
      case kSum:
        v.value = s.SumAcrossLabels(f.metric);
        break;
      case kRatio:
        v.ratio = Fraction(r.Get(f.metric), r.Get(f.labels));
        break;
      case kStages: {
        std::int64_t sum = 0;
        for (std::size_t st = 0; st < kStageCount; ++st) {
          const char* stage = StageName(static_cast<Stage>(st));
          const std::string label = "stage=\"" + std::string(stage) + "\"";
          r.stages.push_back({stage, s.Value(f.metric, label),
                              s.Value("tw_stage_cpu_ns_total", label), 0.0});
          sum += r.stages.back().wall_ns;
        }
        for (RunReport::StageRow& row : r.stages) {
          row.share = Fraction(row.wall_ns, sum);
        }
        break;
      }
      case kServices:
        for (const MetricSnapshot* m : s.Family(f.metric)) {
          r.services.push_back(
              {LabelValue(m->labels, "service"), m->value,
               s.Value("tw_service_parents_mapped_total", m->labels),
               s.Value("tw_service_parents_top_choice_total", m->labels),
               s.Value("tw_service_candidates_total", m->labels)});
        }
        break;
      case kProvEvents:
        for (const MetricSnapshot* m : s.Family(f.metric)) {
          if (m->value != 0) {
            r.provenance_events.push_back(
                {LabelValue(m->labels, "type"), m->value});
          }
        }
        break;
    }
  }
  return r;
}

std::string RunReportJson(const RunReport& r) {
  std::string out;
  Json j(&out);
  j.Open('{');
  j.Field("schema", "traceweaver.run_report.v7");
  std::vector<std::string_view> open;
  for (std::size_t i = 0; i < std::size(kFields); ++i) {
    const ReportField& f = kFields[i];
    const FieldValue& v = r.values[i];
    MoveTo(j, open, f.path);
    switch (f.kind) {
      case kValue:
      case kSum:
        j.Field(f.key, v.value);
        break;
      case kRatio:
        j.Field(f.key, v.ratio);
        break;
      case kHistogram:
        HistogramFields(j, f.key, v.histogram);
        break;
      case kStages:
        j.Key(f.key);
        j.Open('[');
        for (const RunReport::StageRow& row : r.stages) {
          j.Elem();
          j.Open('{');
          j.Field("stage", row.stage);
          j.Field("wall_ns", row.wall_ns);
          j.Field("cpu_ns", row.cpu_ns);
          j.Field("share", row.share);
          j.Close('}');
        }
        j.Close(']');
        break;
      case kServices:
        j.Key(f.key);
        j.Open('[');
        for (const RunReport::ServiceRow& row : r.services) {
          j.Elem();
          j.Open('{');
          j.Field("service", row.service);
          j.Field("parents", row.parents);
          j.Field("mapped", row.mapped);
          j.Field("top_choice", row.top_choice);
          j.Field("candidates", row.candidates);
          j.Close('}');
        }
        j.Close(']');
        break;
      case kProvEvents:
        j.Key(f.key);
        j.Open('[');
        for (const RunReport::ProvRow& row : r.provenance_events) {
          j.Elem();
          j.Open('{');
          j.Field("type", row.type);
          j.Field("count", row.count);
          j.Close('}');
        }
        j.Close(']');
        break;
    }
  }
  MoveTo(j, open, "");
  j.Close('}');
  out += '\n';
  return out;
}

std::string RunReportTable(const RunReport& r) {
  std::ostringstream out;
  out << "=== TraceWeaver run report ===\n";
  std::vector<std::string_view> printed;
  for (const ReportField& f : kFields) {
    if (f.kind == kStages) {
      TextTable stages;
      stages.SetHeader({"stage", "wall ms", "cpu ms", "share"});
      for (const RunReport::StageRow& row : r.stages) {
        stages.AddRow({row.stage, FmtNs(row.wall_ns), FmtNs(row.cpu_ns),
                       FmtPct(row.share)});
      }
      out << '\n' << stages.Render() << '\n';
    } else if (f.kind == kServices && !r.services.empty()) {
      TextTable services;
      services.SetHeader(
          {"service", "parents", "mapped", "top-choice", "candidates"});
      for (const RunReport::ServiceRow& row : r.services) {
        services.AddRow({row.service, std::to_string(row.parents),
                         std::to_string(row.mapped),
                         std::to_string(row.top_choice),
                         std::to_string(row.candidates)});
      }
      out << '\n' << services.Render() << '\n';
    } else if (*f.path != '\0' &&
               std::find(printed.begin(), printed.end(), f.path) ==
                   printed.end()) {
      printed.push_back(f.path);
      out << PathLine(r, f.path);
    }
  }
  return out.str();
}

}  // namespace traceweaver::obs
