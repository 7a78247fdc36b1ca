#include "obs/run_report.h"

#include <algorithm>
#include <sstream>

#include "obs/pipeline_metrics.h"
#include "util/json.h"
#include "util/table.h"

namespace traceweaver::obs {
namespace {

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

HistogramSnapshot FindHistogram(const RegistrySnapshot& snapshot,
                                const std::string& name) {
  const MetricSnapshot* m = snapshot.Find(name);
  return m != nullptr ? m->histogram : HistogramSnapshot{};
}

double Ratio(std::int64_t num, std::int64_t den) {
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
  void Key(const std::string& k) {
    Comma();
    *out_ += json::Str(k);
    *out_ += ':';
  }
  void Field(const std::string& k, std::int64_t v) {
    Key(k);
    *out_ += std::to_string(v);
  }
  void Field(const std::string& k, std::uint64_t v) {
    Key(k);
    *out_ += std::to_string(v);
  }
  void Field(const std::string& k, double v) {
    Key(k);
    *out_ += json::Fixed(v);
  }
  void Field(const std::string& k, const std::string& v) {
    Key(k);
    *out_ += json::Str(v);
  }
  void Elem() { Comma(); }

 private:
  void Comma() {
    if (!first_.empty()) {
      if (!first_.back()) *out_ += ',';
      first_.back() = false;
    }
  }
  std::string* out_;
  std::vector<bool> first_;
};

void HistogramFields(Json& j, const std::string& key,
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

std::string FmtNs(std::int64_t ns) {
  return Fmt(static_cast<double>(ns) / 1e6, 2);  // milliseconds
}

/// "p50<=3 p95<=15 max<=31" summary of a histogram at log-bucket
/// resolution; "-" when empty.
std::string HistSummary(const HistogramSnapshot& h) {
  if (h.count == 0) return "-";
  std::ostringstream out;
  out << "mean " << Fmt(h.Mean(), 1) << ", p50<=" << h.Quantile(0.5)
      << ", p95<=" << h.Quantile(0.95) << ", max<=" << h.Quantile(1.0);
  return out.str();
}

}  // namespace

RunReport BuildRunReport(const RegistrySnapshot& s) {
  RunReport r;
  r.runs = s.Value("tw_runs_total");
  r.spans = s.Value("tw_run_spans_total");
  r.containers = s.Value("tw_run_containers_total");
  r.threads = s.Value("tw_threads");
  r.wall_ns = s.Value("tw_run_wall_ns_total");

  r.ingest.input = s.Value("tw_ingest_spans_total");
  r.ingest.accepted = s.Value("tw_ingest_accepted_total");
  r.ingest.repaired = s.Value("tw_ingest_repaired_total");
  r.ingest.quarantined = s.Value("tw_ingest_quarantined_total");
  r.ingest.parse_errors = s.Value("tw_ingest_parse_errors_total");
  r.ingest.timestamps_clamped =
      s.Value("tw_ingest_timestamps_clamped_total");
  r.ingest.duplicate_ids = s.Value("tw_ingest_duplicate_ids_total");
  r.ingest.suggested_slack_ns = s.Value("tw_ingest_suggested_slack_ns");

  for (std::size_t st = 0; st < kStageCount; ++st) {
    const std::string label =
        "stage=\"" + std::string(StageName(static_cast<Stage>(st))) + "\"";
    RunReport::StageRow row;
    row.stage = StageName(static_cast<Stage>(st));
    row.wall_ns = s.Value("tw_stage_wall_ns_total", label);
    row.cpu_ns = s.Value("tw_stage_cpu_ns_total", label);
    r.stage_wall_sum_ns += row.wall_ns;
    r.stages.push_back(std::move(row));
  }
  for (RunReport::StageRow& row : r.stages) {
    row.share = Ratio(row.wall_ns, r.stage_wall_sum_ns);
  }
  r.stage_coverage = Ratio(r.stage_wall_sum_ns, r.wall_ns);

  for (const MetricSnapshot* m : s.Family("tw_service_parents_total")) {
    RunReport::ServiceRow row;
    row.service = LabelValue(m->labels, "service");
    row.parents = m->value;
    row.mapped = s.Value("tw_service_parents_mapped_total", m->labels);
    row.top_choice =
        s.Value("tw_service_parents_top_choice_total", m->labels);
    row.candidates = s.Value("tw_service_candidates_total", m->labels);
    r.services.push_back(std::move(row));
  }

  r.enumeration.parents = s.Value("tw_parents_total");
  r.enumeration.leaves = s.Value("tw_parents_leaf_total");
  r.enumeration.mapped = s.Value("tw_parents_mapped_total");
  r.enumeration.top_choice = s.Value("tw_parents_top_choice_total");
  r.enumeration.candidates = s.Value("tw_candidates_total");
  r.enumeration.dfs_nodes = s.Value("tw_enum_dfs_nodes_total");
  r.enumeration.branch_limited = s.Value("tw_enum_branch_limited_total");
  r.enumeration.total_capped = s.Value("tw_enum_total_capped_total");
  r.enumeration.per_parent = FindHistogram(s, "tw_candidates_per_parent");

  r.batching.batches = s.Value("tw_batches_total");
  r.batching.imperfect = s.Value("tw_batches_imperfect_total");
  r.batching.solve_runs = s.Value("tw_solve_runs_total");
  r.batching.size = FindHistogram(s, "tw_batch_size");

  r.delay_model.keys_seeded = s.Value("tw_delay_keys_seeded_total");
  r.delay_model.keys_refit = s.Value("tw_delay_keys_refit_total");
  r.delay_model.keys_final = s.Value("tw_delay_keys_final_total");
  r.delay_model.mixture_keys = s.Value("tw_delay_mixture_keys_final_total");
  r.delay_model.components = s.Value("tw_delay_components_final_total");
  r.delay_model.gmm_fits = s.Value("tw_gmm_fits_total");
  r.delay_model.em_iterations = s.Value("tw_gmm_em_iterations_total");
  r.delay_model.gmm_components = FindHistogram(s, "tw_gmm_components");

  r.ranking.tasks = s.Value("tw_rank_tasks_total");
  r.ranking.tasks_skipped = s.Value("tw_rank_tasks_skipped_total");
  r.ranking.margin_milli = FindHistogram(s, "tw_rank_margin_milli");

  r.mwis.solves = s.Value("tw_mwis_solves_total");
  r.mwis.vertices = s.Value("tw_mwis_vertices_total");
  r.mwis.edges = s.Value("tw_mwis_edges_total");
  r.mwis.bb_nodes = s.Value("tw_mwis_bb_nodes_total");
  r.mwis.fallbacks = s.Value("tw_mwis_fallbacks_total");

  r.iteration.iterations = s.Value("tw_iterations_total");
  r.iteration.converged = s.Value("tw_converged_total");

  r.dynamism.containers = s.Value("tw_dynamism_containers_total");
  r.dynamism.skip_budget = s.Value("tw_skip_budget_total");
  r.dynamism.skips_chosen = s.Value("tw_skips_chosen_total");

  r.quality.assignments = s.Value("tw_quality_assignments_total");
  r.quality.unmapped = s.Value("tw_quality_unmapped_total");
  r.quality.traces = s.Value("tw_quality_traces_total");
  r.quality.grade_a = s.Value("tw_quality_grade_total", "grade=\"a\"");
  r.quality.grade_b = s.Value("tw_quality_grade_total", "grade=\"b\"");
  r.quality.grade_c = s.Value("tw_quality_grade_total", "grade=\"c\"");
  r.quality.grade_d = s.Value("tw_quality_grade_total", "grade=\"d\"");
  r.quality.monitor_windows = s.Value("tw_quality_monitor_windows_total");
  r.quality.monitor_drift = s.Value("tw_quality_monitor_drift_total");
  r.quality.confidence_milli = FindHistogram(s, "tw_quality_confidence_milli");
  r.quality.entropy_milli = FindHistogram(s, "tw_quality_entropy_milli");
  r.quality.trace_confidence_milli =
      FindHistogram(s, "tw_quality_trace_confidence_milli");

  r.skew.pairs = s.Value("tw_skew_pairs");
  r.skew.samples = s.Value("tw_skew_samples");
  r.skew.inversions = s.Value("tw_skew_inversions");
  r.skew.max_frame_offset_ns = s.Value("tw_skew_max_frame_offset_ns");
  r.skew.max_edge_slack_ns = s.Value("tw_skew_max_edge_slack_ns");

  r.online.spans_ingested = s.Value("tw_online_spans_ingested_total");
  r.online.windows_closed = s.Value("tw_online_windows_closed_total");
  r.online.parents_committed = s.Value("tw_online_parents_committed_total");
  r.online.windows_shed = s.Value("tw_online_windows_shed_total");
  r.online.spans_shed = s.Value("tw_online_spans_shed_total");
  r.online.admission_drops = s.Value("tw_online_admission_drops_total");
  r.online.buffer_spans = s.Value("tw_online_buffer_spans");
  r.online.buffer_bytes = s.Value("tw_online_buffer_bytes");
  r.online.deadline_misses = s.Value("tw_online_deadline_misses_total");
  r.online.degrade_up =
      s.Value("tw_online_degrade_steps_total", "direction=\"up\"");
  r.online.degrade_down =
      s.Value("tw_online_degrade_steps_total", "direction=\"down\"");
  r.online.degradation_level = s.Value("tw_online_degradation_level");
  r.online.late_spans = s.Value("tw_online_late_spans_total");
  r.online.late_grafted = s.Value("tw_online_late_grafted_total");
  r.online.late_orphans = s.Value("tw_online_late_orphans_total");
  r.online.late_dropped = s.Value("tw_online_late_dropped_total");
  r.online.watermark_regressions =
      s.Value("tw_online_watermark_regressions_total");
  r.online.checkpoints = s.Value("tw_online_checkpoints_total");
  r.online.restores = s.Value("tw_online_restores_total");
  r.online.window_close_ns = FindHistogram(s, "tw_online_window_close_ns");

  for (const MetricSnapshot* m : s.Family("tw_prov_events_total")) {
    if (m->value == 0) continue;
    // Labels are exactly `type="<name>"` (obs/provenance.cc).
    std::string type = m->labels;
    if (type.rfind("type=\"", 0) == 0 && type.size() > 7) {
      type = type.substr(6, type.size() - 7);
    }
    r.provenance.events.push_back({std::move(type), m->value});
    r.provenance.recorded += m->value;
  }
  r.provenance.dropped = s.Value("tw_prov_events_dropped_total");
  r.provenance.pending_events = s.Value("tw_prov_pending_events");

  r.sampler.considered = s.Value("tw_sample_considered_total");
  r.sampler.shed = s.Value("tw_sample_shed_total");
  r.sampler.shed_spans = s.Value("tw_sample_shed_spans_total");
  r.sampler.kept_interesting = s.Value("tw_sample_kept_interesting_total");
  r.sampler.kept_random = s.Value("tw_sample_kept_random_total");
  return r;
}

std::string RunReportJson(const RunReport& r) {
  std::string out;
  Json j(&out);
  j.Open('{');
  j.Field("schema", std::string("traceweaver.run_report.v7"));

  j.Key("run");
  j.Open('{');
  j.Field("runs", r.runs);
  j.Field("spans", r.spans);
  j.Field("containers", r.containers);
  j.Field("threads", r.threads);
  j.Field("wall_ns", r.wall_ns);
  j.Close('}');

  j.Key("ingest");
  j.Open('{');
  j.Field("input", r.ingest.input);
  j.Field("accepted", r.ingest.accepted);
  j.Field("repaired", r.ingest.repaired);
  j.Field("quarantined", r.ingest.quarantined);
  j.Field("parse_errors", r.ingest.parse_errors);
  j.Field("timestamps_clamped", r.ingest.timestamps_clamped);
  j.Field("duplicate_ids", r.ingest.duplicate_ids);
  j.Field("suggested_slack_ns", r.ingest.suggested_slack_ns);
  j.Close('}');

  j.Key("stages");
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

  j.Key("stage_total");
  j.Open('{');
  j.Field("wall_ns", r.stage_wall_sum_ns);
  j.Field("coverage_of_run_wall", r.stage_coverage);
  j.Close('}');

  j.Key("services");
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

  j.Key("enumeration");
  j.Open('{');
  j.Field("parents", r.enumeration.parents);
  j.Field("leaves", r.enumeration.leaves);
  j.Field("mapped", r.enumeration.mapped);
  j.Field("top_choice", r.enumeration.top_choice);
  j.Field("candidates", r.enumeration.candidates);
  j.Field("dfs_nodes", r.enumeration.dfs_nodes);
  j.Field("branch_limited", r.enumeration.branch_limited);
  j.Field("total_capped", r.enumeration.total_capped);
  HistogramFields(j, "candidates_per_parent", r.enumeration.per_parent);
  j.Close('}');

  j.Key("batching");
  j.Open('{');
  j.Field("batches", r.batching.batches);
  j.Field("imperfect", r.batching.imperfect);
  j.Field("solve_runs", r.batching.solve_runs);
  HistogramFields(j, "batch_size", r.batching.size);
  j.Close('}');

  j.Key("delay_model");
  j.Open('{');
  j.Field("keys_seeded", r.delay_model.keys_seeded);
  j.Field("keys_refit", r.delay_model.keys_refit);
  j.Field("keys_final", r.delay_model.keys_final);
  j.Field("mixture_keys", r.delay_model.mixture_keys);
  j.Field("components", r.delay_model.components);
  j.Field("gmm_fits", r.delay_model.gmm_fits);
  j.Field("em_iterations", r.delay_model.em_iterations);
  HistogramFields(j, "gmm_components", r.delay_model.gmm_components);
  j.Close('}');

  j.Key("ranking");
  j.Open('{');
  j.Field("tasks", r.ranking.tasks);
  j.Field("tasks_skipped", r.ranking.tasks_skipped);
  HistogramFields(j, "margin_milli", r.ranking.margin_milli);
  j.Close('}');

  j.Key("mwis");
  j.Open('{');
  j.Field("solves", r.mwis.solves);
  j.Field("vertices", r.mwis.vertices);
  j.Field("edges", r.mwis.edges);
  j.Field("bb_nodes", r.mwis.bb_nodes);
  j.Field("fallbacks", r.mwis.fallbacks);
  j.Field("fallback_rate", Ratio(r.mwis.fallbacks, r.mwis.solves));
  j.Close('}');

  j.Key("iteration");
  j.Open('{');
  j.Field("iterations", r.iteration.iterations);
  j.Field("converged", r.iteration.converged);
  j.Close('}');

  j.Key("dynamism");
  j.Open('{');
  j.Field("containers", r.dynamism.containers);
  j.Field("skip_budget", r.dynamism.skip_budget);
  j.Field("skips_chosen", r.dynamism.skips_chosen);
  j.Close('}');

  j.Key("quality");
  j.Open('{');
  j.Field("assignments", r.quality.assignments);
  j.Field("unmapped", r.quality.unmapped);
  j.Field("traces", r.quality.traces);
  j.Key("grades");
  j.Open('{');
  j.Field("a", r.quality.grade_a);
  j.Field("b", r.quality.grade_b);
  j.Field("c", r.quality.grade_c);
  j.Field("d", r.quality.grade_d);
  j.Close('}');
  HistogramFields(j, "confidence_milli", r.quality.confidence_milli);
  HistogramFields(j, "entropy_milli", r.quality.entropy_milli);
  HistogramFields(j, "trace_confidence_milli",
                  r.quality.trace_confidence_milli);
  j.Key("monitor");
  j.Open('{');
  j.Field("windows", r.quality.monitor_windows);
  j.Field("drift", r.quality.monitor_drift);
  j.Close('}');
  j.Close('}');

  j.Key("skew");
  j.Open('{');
  j.Field("pairs", r.skew.pairs);
  j.Field("samples", r.skew.samples);
  j.Field("inversions", r.skew.inversions);
  j.Field("max_frame_offset_ns", r.skew.max_frame_offset_ns);
  j.Field("max_edge_slack_ns", r.skew.max_edge_slack_ns);
  j.Close('}');

  j.Key("online");
  j.Open('{');
  j.Field("spans_ingested", r.online.spans_ingested);
  j.Field("windows_closed", r.online.windows_closed);
  j.Field("parents_committed", r.online.parents_committed);
  j.Key("shedding");
  j.Open('{');
  j.Field("windows_shed", r.online.windows_shed);
  j.Field("spans_shed", r.online.spans_shed);
  j.Field("admission_drops", r.online.admission_drops);
  j.Field("buffer_spans", r.online.buffer_spans);
  j.Field("buffer_bytes", r.online.buffer_bytes);
  j.Close('}');
  j.Key("degradation");
  j.Open('{');
  j.Field("deadline_misses", r.online.deadline_misses);
  j.Field("steps_up", r.online.degrade_up);
  j.Field("steps_down", r.online.degrade_down);
  j.Field("level", r.online.degradation_level);
  j.Close('}');
  j.Key("late");
  j.Open('{');
  j.Field("spans", r.online.late_spans);
  j.Field("grafted", r.online.late_grafted);
  j.Field("orphans", r.online.late_orphans);
  j.Field("dropped", r.online.late_dropped);
  j.Field("watermark_regressions", r.online.watermark_regressions);
  j.Close('}');
  j.Key("checkpointing");
  j.Open('{');
  j.Field("checkpoints", r.online.checkpoints);
  j.Field("restores", r.online.restores);
  j.Close('}');
  HistogramFields(j, "window_close_ns", r.online.window_close_ns);
  j.Close('}');

  j.Key("provenance");
  j.Open('{');
  j.Field("recorded", r.provenance.recorded);
  j.Field("dropped", r.provenance.dropped);
  j.Field("pending_events", r.provenance.pending_events);
  j.Key("events");
  j.Open('[');
  for (const RunReport::ProvRow& row : r.provenance.events) {
    j.Elem();
    j.Open('{');
    j.Field("type", row.type);
    j.Field("count", row.count);
    j.Close('}');
  }
  j.Close(']');
  j.Close('}');

  j.Key("sampler");
  j.Open('{');
  j.Field("considered", r.sampler.considered);
  j.Field("shed", r.sampler.shed);
  j.Field("shed_spans", r.sampler.shed_spans);
  j.Field("kept_interesting", r.sampler.kept_interesting);
  j.Field("kept_random", r.sampler.kept_random);
  j.Close('}');

  j.Close('}');
  out += '\n';
  return out;
}

std::string RunReportTable(const RunReport& r) {
  std::ostringstream out;
  out << "=== TraceWeaver run report ===\n";
  out << "runs " << r.runs << "   spans " << r.spans << "   containers "
      << r.containers << "   threads " << r.threads << "   wall "
      << FmtNs(r.wall_ns) << " ms\n";
  out << "ingest: " << r.ingest.input << " spans in, " << r.ingest.accepted
      << " clean, " << r.ingest.repaired << " repaired, "
      << r.ingest.quarantined << " quarantined, " << r.ingest.parse_errors
      << " parse errors";
  if (r.ingest.suggested_slack_ns > 0) {
    out << "; suggested constraint_slack_ns " << r.ingest.suggested_slack_ns;
  }
  out << "\n\n";

  TextTable stages;
  stages.SetHeader({"stage", "wall ms", "cpu ms", "share"});
  for (const RunReport::StageRow& row : r.stages) {
    stages.AddRow({row.stage, FmtNs(row.wall_ns), FmtNs(row.cpu_ns),
                   FmtPct(row.share)});
  }
  stages.AddRow({"total", FmtNs(r.stage_wall_sum_ns), "",
                 FmtPct(r.stage_coverage) + " of run wall"});
  out << stages.Render() << '\n';

  if (!r.services.empty()) {
    TextTable services;
    services.SetHeader(
        {"service", "parents", "mapped", "top-choice", "candidates"});
    for (const RunReport::ServiceRow& row : r.services) {
      services.AddRow({row.service, std::to_string(row.parents),
                       std::to_string(row.mapped),
                       std::to_string(row.top_choice),
                       std::to_string(row.candidates)});
    }
    out << services.Render() << '\n';
  }

  out << "enumeration: " << r.enumeration.parents << " parents ("
      << r.enumeration.leaves << " leaves), " << r.enumeration.candidates
      << " candidates, " << r.enumeration.dfs_nodes << " DFS nodes, "
      << r.enumeration.branch_limited << " branch-limited, "
      << r.enumeration.total_capped << " capped; per-parent "
      << HistSummary(r.enumeration.per_parent) << '\n';
  out << "batching: " << r.batching.batches << " batches ("
      << r.batching.imperfect << " imperfect), " << r.batching.solve_runs
      << " solve runs; size " << HistSummary(r.batching.size) << '\n';
  out << "delay model: " << r.delay_model.keys_seeded << " keys seeded, "
      << r.delay_model.keys_refit << " refit, " << r.delay_model.keys_final
      << " final (" << r.delay_model.mixture_keys << " mixtures, "
      << r.delay_model.components << " components)\n";
  out << "gmm: " << r.delay_model.gmm_fits << " BIC sweeps, "
      << r.delay_model.em_iterations << " EM iterations; components "
      << HistSummary(r.delay_model.gmm_components) << '\n';
  out << "ranking: " << r.ranking.tasks << " tasks scored, "
      << r.ranking.tasks_skipped << " skipped clean; margin (1e-3) "
      << HistSummary(r.ranking.margin_milli) << '\n';
  out << "mwis: " << r.mwis.solves << " solves, " << r.mwis.vertices
      << " vertices, " << r.mwis.edges << " edges, " << r.mwis.bb_nodes
      << " B&B nodes, " << r.mwis.fallbacks << " greedy fallbacks ("
      << FmtPct(Ratio(r.mwis.fallbacks, r.mwis.solves)) << ")\n";
  out << "iteration: " << r.iteration.iterations << " rank/solve rounds, "
      << r.iteration.converged << " early fixpoints\n";
  out << "dynamism: " << r.dynamism.containers << " containers, skip budget "
      << r.dynamism.skip_budget << ", " << r.dynamism.skips_chosen
      << " phantom skips chosen\n";
  if (r.quality.assignments > 0 || r.quality.traces > 0) {
    out << "quality: " << r.quality.assignments << " assignments ("
        << r.quality.unmapped << " unmapped), confidence (1e-3) "
        << HistSummary(r.quality.confidence_milli) << '\n';
    out << "quality traces: " << r.quality.traces << " graded, a/b/c/d "
        << r.quality.grade_a << "/" << r.quality.grade_b << "/"
        << r.quality.grade_c << "/" << r.quality.grade_d
        << "; confidence (1e-3) "
        << HistSummary(r.quality.trace_confidence_milli) << '\n';
    if (r.quality.monitor_windows > 0) {
      out << "quality monitor: " << r.quality.monitor_windows
          << " windows, " << r.quality.monitor_drift << " drifted\n";
    }
  }
  if (r.online.spans_ingested > 0 || r.online.windows_closed > 0) {
    out << "online: " << r.online.spans_ingested << " ingested, "
        << r.online.windows_closed << " windows closed, "
        << r.online.parents_committed << " parents committed; close (ns) "
        << HistSummary(r.online.window_close_ns) << '\n';
    out << "online shedding: " << r.online.windows_shed << " windows / "
        << r.online.spans_shed << " spans shed, "
        << r.online.admission_drops << " admission drops; buffer "
        << r.online.buffer_spans << " spans, " << r.online.buffer_bytes
        << " bytes\n";
    out << "online degradation: level " << r.online.degradation_level
        << ", " << r.online.deadline_misses << " deadline misses, "
        << r.online.degrade_up << " up / " << r.online.degrade_down
        << " down\n";
    out << "online late: " << r.online.late_spans << " late ("
        << r.online.late_grafted << " grafted, " << r.online.late_orphans
        << " orphans, " << r.online.late_dropped << " dropped), "
        << r.online.watermark_regressions << " watermark regressions; "
        << r.online.checkpoints << " checkpoints, " << r.online.restores
        << " restores\n";
  }
  if (r.provenance.recorded > 0 || r.provenance.dropped > 0) {
    out << "provenance: " << r.provenance.recorded << " events recorded ("
        << r.provenance.dropped << " dropped, "
        << r.provenance.pending_events << " pending):";
    for (const RunReport::ProvRow& row : r.provenance.events) {
      out << ' ' << row.type << '=' << row.count;
    }
    out << '\n';
  }
  if (r.sampler.considered > 0) {
    out << "tail sampler: " << r.sampler.considered << " considered, "
        << r.sampler.kept_interesting << " kept interesting, "
        << r.sampler.kept_random << " kept by coin, " << r.sampler.shed
        << " shed (" << r.sampler.shed_spans << " spans)\n";
  }
  return out.str();
}

std::string SnapshotJson(const RegistrySnapshot& snapshot) {
  std::string out;
  Json j(&out);
  j.Open('{');
  j.Field("schema", std::string("traceweaver.metrics.v1"));
  j.Key("metrics");
  j.Open('[');
  for (const MetricSnapshot& m : snapshot.metrics) {
    j.Elem();
    j.Open('{');
    j.Field("name", m.name);
    if (!m.labels.empty()) j.Field("labels", m.labels);
    switch (m.type) {
      case MetricType::kCounter:
        j.Field("type", std::string("counter"));
        j.Field("value", m.value);
        break;
      case MetricType::kGauge:
        j.Field("type", std::string("gauge"));
        j.Field("value", m.value);
        break;
      case MetricType::kHistogram: {
        j.Field("type", std::string("histogram"));
        j.Field("count", m.histogram.count);
        j.Field("sum", m.histogram.sum);
        // Sparse bucket list: [upper_bound, count] pairs for non-empty
        // buckets only (full 48-vector is mostly zeros).
        j.Key("buckets");
        j.Open('[');
        for (std::size_t b = 0; b < m.histogram.buckets.size(); ++b) {
          if (m.histogram.buckets[b] == 0) continue;
          j.Elem();
          j.Open('[');
          j.Elem();
          out += std::to_string(HistogramBucketUpperBound(b));
          j.Elem();
          out += std::to_string(m.histogram.buckets[b]);
          j.Close(']');
        }
        j.Close(']');
        break;
      }
    }
    if (!m.unit.empty()) j.Field("unit", m.unit);
    j.Close('}');
  }
  j.Close(']');
  j.Close('}');
  out += '\n';
  return out;
}

}  // namespace traceweaver::obs
