#include "obs/pipeline_metrics.h"

namespace traceweaver::obs {
namespace {

std::string ServiceLabel(const std::string& service) {
  return "service=\"" + service + "\"";
}

}  // namespace

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kViews:     return "views";
    case Stage::kSetup:     return "setup";
    case Stage::kEnumerate: return "enumerate";
    case Stage::kBatch:     return "batch";
    case Stage::kSeed:      return "seed";
    case Stage::kAllocate:  return "allocate";
    case Stage::kRank:      return "rank";
    case Stage::kSolve:     return "solve";
    case Stage::kRefit:     return "refit";
    case Stage::kStitch:    return "stitch";
    case Stage::kQuality:   return "quality";
  }
  return "unknown";
}

PipelineMetrics::PipelineMetrics(MetricsRegistry& reg) : registry(&reg) {
  runs = reg.GetCounter("tw_runs_total", "",
                        "Reconstruct() calls completed", "1");
  run_wall_ns = reg.GetCounter("tw_run_wall_ns_total", "",
                               "End-to-end reconstruction wall time", "ns");
  run_spans = reg.GetCounter("tw_run_spans_total", "",
                             "Spans ingested across runs", "1");
  run_containers = reg.GetCounter("tw_run_containers_total", "",
                                  "Container views optimized", "1");
  threads = reg.GetGauge("tw_threads", "",
                         "Worker threads of the last run", "1");

  for (std::size_t s = 0; s < kStageCount; ++s) {
    const std::string label =
        "stage=\"" + std::string(StageName(static_cast<Stage>(s))) + "\"";
    stage_wall_ns[s] = reg.GetCounter(
        "tw_stage_wall_ns_total", label,
        "Wall time spent inside a pipeline stage", "ns");
    stage_cpu_ns[s] = reg.GetCounter(
        "tw_stage_cpu_ns_total", label,
        "Calling-thread CPU time spent inside a pipeline stage", "ns");
  }

  parents = reg.GetCounter("tw_parents_total", "",
                           "Incoming spans with a non-empty plan", "1");
  parents_leaf = reg.GetCounter("tw_parents_leaf_total", "",
                                "Incoming spans with no backend calls", "1");
  parents_mapped = reg.GetCounter("tw_parents_mapped_total", "",
                                  "Parents given a chosen mapping", "1");
  parents_top_choice = reg.GetCounter(
      "tw_parents_top_choice_total", "",
      "Parents whose chosen mapping was also top-ranked", "1");
  candidates = reg.GetCounter("tw_candidates_total", "",
                              "Candidate mappings enumerated", "1");
  enum_dfs_nodes = reg.GetCounter("tw_enum_dfs_nodes_total", "",
                                  "DFS nodes visited during enumeration",
                                  "1");
  enum_branch_limited = reg.GetCounter(
      "tw_enum_branch_limited_total", "",
      "Plan positions whose feasible children hit the branch cap", "1");
  enum_total_capped = reg.GetCounter(
      "tw_enum_total_capped_total", "",
      "Parents whose enumeration hit the total candidate cap", "1");
  candidates_per_parent = reg.GetHistogram(
      "tw_candidates_per_parent", "",
      "Candidate mappings enumerated per parent span", "1");

  batches = reg.GetCounter("tw_batches_total", "", "Optimization batches",
                           "1");
  batches_imperfect = reg.GetCounter(
      "tw_batches_imperfect_total", "",
      "Batches closed by the size cap instead of a perfect cut", "1");
  solve_runs = reg.GetCounter(
      "tw_solve_runs_total", "",
      "Independent perfect-cut runs solved (parallel units)", "1");
  batch_size = reg.GetHistogram("tw_batch_size", "",
                                "Parent spans per optimization batch", "1");

  delay_keys_seeded = reg.GetCounter(
      "tw_delay_keys_seeded_total", "",
      "Delay keys given a seed distribution (§4.1 step 3)", "1");
  delay_keys_refit = reg.GetCounter(
      "tw_delay_keys_refit_total", "",
      "Delay keys whose distribution changed in a refit", "1");
  delay_keys_final = reg.GetCounter(
      "tw_delay_keys_final_total", "",
      "Delay keys in the final per-container model", "1");
  delay_mixture_keys = reg.GetCounter(
      "tw_delay_mixture_keys_final_total", "",
      "Final delay keys holding a multi-component mixture", "1");
  delay_components = reg.GetCounter(
      "tw_delay_components_final_total", "",
      "Mixture components across the final model", "1");
  gmm.fits = reg.GetCounter("tw_gmm_fits_total", "",
                            "BIC sweeps (FitGmmBicSweep calls)", "1");
  gmm.em_iterations = reg.GetCounter(
      "tw_gmm_em_iterations_total", "",
      "EM iterations executed across all candidate fits", "1");
  gmm.fits_reused = reg.GetCounter(
      "tw_gmm_fits_reused_total", "",
      "Delay keys that reused the carried prior mixture instead of a fit",
      "1");
  gmm.em_capped = reg.GetCounter(
      "tw_gmm_em_capped_total", "",
      "EM runs stopped at the iteration cap, not the tolerance", "1");
  gmm.components = reg.GetHistogram(
      "tw_gmm_components", "", "BIC-selected component counts", "1");

  rank_tasks = reg.GetCounter("tw_rank_tasks_total", "",
                              "Parent tasks scored and ranked", "1");
  rank_tasks_skipped = reg.GetCounter(
      "tw_rank_tasks_skipped_total", "",
      "Tasks skipped by incremental re-ranking (clean handlers)", "1");
  rank_margin_milli = reg.GetHistogram(
      "tw_rank_margin_milli", "",
      "Score margin top1-top2 per ranked task, in 1e-3 log-likelihood "
      "units",
      "1e-3");

  mwis_solves = reg.GetCounter("tw_mwis_solves_total", "",
                               "Batch conflict graphs solved", "1");
  mwis_vertices = reg.GetCounter("tw_mwis_vertices_total", "",
                                 "MWIS vertices across all solves", "1");
  mwis_edges = reg.GetCounter("tw_mwis_edges_total", "",
                              "MWIS conflict edges across all solves", "1");
  mwis_bb_nodes = reg.GetCounter(
      "tw_mwis_bb_nodes_total", "",
      "Branch-and-bound nodes explored across all solves", "1");
  mwis_fallbacks = reg.GetCounter(
      "tw_mwis_fallbacks_total", "",
      "Solves that exhausted the node budget (greedy fallback)", "1");

  arena_scratch_bytes = reg.GetCounter(
      "tw_arena_scratch_bytes_total", "",
      "Bytes handed out by enumeration/solve scratch arenas", "By");
  arena_allocations = reg.GetCounter(
      "tw_arena_allocations_total", "",
      "Allocations served by enumeration/solve scratch arenas", "1");
  arena_high_water = reg.GetHistogram(
      "tw_arena_high_water_bytes", "",
      "Peak live bytes of one arena scope (task or solve run)", "By");
  arena_reserved = reg.GetHistogram(
      "tw_arena_reserved_bytes", "",
      "Bytes reserved from the heap by one arena scope", "By");

  iterations = reg.GetCounter("tw_iterations_total", "",
                              "Rank/solve iterations executed", "1");
  converged = reg.GetCounter(
      "tw_converged_total", "",
      "Containers that reached a delay-model fixpoint early", "1");

  dynamism_containers = reg.GetCounter(
      "tw_dynamism_containers_total", "",
      "Containers with §4.2 skip handling active", "1");
  skip_budget = reg.GetCounter(
      "tw_skip_budget_total", "",
      "Skip-span budget from incoming/outgoing discrepancies", "1");
  skips_chosen = reg.GetCounter(
      "tw_skips_chosen_total", "",
      "Phantom (skipped) positions in chosen mappings", "1");
}

Counter PipelineMetrics::ServiceParents(const std::string& service) const {
  if (registry == nullptr) return {};
  return registry->GetCounter("tw_service_parents_total",
                              ServiceLabel(service),
                              "Parent spans per service", "1");
}

Counter PipelineMetrics::ServiceMapped(const std::string& service) const {
  if (registry == nullptr) return {};
  return registry->GetCounter("tw_service_parents_mapped_total",
                              ServiceLabel(service),
                              "Mapped parent spans per service", "1");
}

Counter PipelineMetrics::ServiceTopChoice(const std::string& service) const {
  if (registry == nullptr) return {};
  return registry->GetCounter(
      "tw_service_parents_top_choice_total", ServiceLabel(service),
      "Parents mapped to their top-ranked candidate per service", "1");
}

Counter PipelineMetrics::ServiceCandidates(const std::string& service) const {
  if (registry == nullptr) return {};
  return registry->GetCounter("tw_service_candidates_total",
                              ServiceLabel(service),
                              "Candidate mappings enumerated per service",
                              "1");
}

OnlineMetrics::OnlineMetrics(MetricsRegistry& reg) : registry(&reg) {
  windows_closed = reg.GetCounter("tw_online_windows_closed_total", "",
                                  "Streaming windows closed", "1");
  spans_ingested = reg.GetCounter("tw_online_spans_ingested_total", "",
                                  "Spans ingested by the online weaver", "1");
  parents_committed = reg.GetCounter(
      "tw_online_parents_committed_total", "",
      "Parents committed across closed windows", "1");
  window_close_ns = reg.GetHistogram(
      "tw_online_window_close_ns", "",
      "Wall time to close one window (reconstruct + commit)", "ns");

  windows_shed = reg.GetCounter(
      "tw_online_windows_shed_total", "",
      "Whole windows shed by the admission controller", "1");
  spans_shed = reg.GetCounter(
      "tw_online_spans_shed_total", "",
      "Spans shed with their window (emitted as orphans)", "1");
  admission_drops = reg.GetCounter(
      "tw_online_admission_drops_total", "",
      "Arriving spans rejected with a single window over budget", "1");
  buffer_spans = reg.GetGauge("tw_online_buffer_spans", "",
                              "Spans currently buffered", "1");
  buffer_bytes = reg.GetGauge("tw_online_buffer_bytes", "",
                              "Approximate bytes currently buffered", "By");

  deadline_misses = reg.GetCounter(
      "tw_online_deadline_misses_total", "",
      "Window closes that exceeded window_close_deadline", "1");
  degrade_steps_up = reg.GetCounter(
      "tw_online_degrade_steps_total", "direction=\"up\"",
      "Degradation-ladder escalations", "1");
  degrade_steps_down = reg.GetCounter(
      "tw_online_degrade_steps_total", "direction=\"down\"",
      "Degradation-ladder recoveries", "1");
  degradation_level = reg.GetGauge(
      "tw_online_degradation_level", "",
      "Current rung of the overload degradation ladder (0 = full)", "1");

  late_spans = reg.GetCounter(
      "tw_online_late_spans_total", "",
      "Spans arriving after their window closed", "1");
  late_grafted = reg.GetCounter(
      "tw_online_late_grafted_total", "",
      "Late spans grafted into a committed parent's free slot", "1");
  late_orphans = reg.GetCounter(
      "tw_online_late_orphans_total", "",
      "Late spans emitted as benign orphans", "1");
  late_dropped = reg.GetCounter(
      "tw_online_late_dropped_total", "",
      "Late spans dropped by the bounded late-pool", "1");
  watermark_regressions = reg.GetCounter(
      "tw_online_watermark_regressions_total", "",
      "Advance() calls with a watermark below the high-water mark", "1");

  checkpoints = reg.GetCounter("tw_online_checkpoints_total", "",
                               "Checkpoints written by the serve loop", "1");
  restores = reg.GetCounter("tw_online_restores_total", "",
                            "Successful checkpoint restores", "1");
}

}  // namespace traceweaver::obs
