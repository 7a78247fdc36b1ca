// The reconstruction pipeline's metric bundle: every counter, gauge and
// histogram the instrumented pipeline records, pre-registered against one
// MetricsRegistry so hot paths touch only POD handles.
//
// Metric names follow the scheme documented in docs/METRICS.md:
// `tw_<area>_<quantity>[_<unit>][_total]`, with at most one label
// dimension (`stage` for stage timers, `service` for per-service
// families). Counters end in `_total`, byte/time units are spelled out
// (`_ns`), histograms carry no suffix.
#pragma once

#include <cstddef>
#include <string>

#include "obs/metrics.h"

namespace traceweaver::obs {

/// Pipeline stages timed by StageTimer (label value = StageName()).
enum class Stage {
  kViews,      ///< SpanStore build + container view extraction.
  kSetup,      ///< Pool/task construction + dynamism detection.
  kEnumerate,  ///< Candidate DFS enumeration (§4.1 step 1).
  kBatch,      ///< Perfect-cut batching (§4.1 step 2).
  kSeed,       ///< Seed delay distributions (§4.1 step 3, iteration 1).
  kAllocate,   ///< Skip-budget water-filling (§4.2).
  kRank,       ///< Candidate scoring + top-K ranking (§4.1 step 4).
  kSolve,      ///< Per-batch MWIS joint optimization (§4.1 step 5).
  kRefit,      ///< GMM refits on inferred gaps (§4.1 step 6).
  kStitch,     ///< Assignment merge + pinned-link overrides.
  kQuality,    ///< Trace-quality report computation (obs/quality.h).
};
inline constexpr std::size_t kStageCount = 11;

const char* StageName(Stage stage);

/// Counters recorded from inside stats/gmm.cc (forward-declared there so
/// tw_stats needs only this bundle, not the whole pipeline set).
struct GmmCounters {
  Counter fits;           ///< tw_gmm_fits_total: BIC sweeps completed.
  Counter em_iterations;  ///< tw_gmm_em_iterations_total: EM rounds run.
  /// tw_gmm_fits_reused_total: keys that took a carried prior mixture
  /// (passed the drift check) instead of a BIC sweep.
  Counter fits_reused;
  /// tw_gmm_em_capped_total: EM runs stopped by the iteration cap rather
  /// than the tolerance.
  Counter em_capped;
  Histogram components;   ///< tw_gmm_components: BIC-selected sizes.
};

struct PipelineMetrics {
  /// Inert bundle: every handle is a no-op. Lets instrumented code hold a
  /// reference unconditionally instead of branching on "metrics on?".
  PipelineMetrics() = default;

  /// Registers every pipeline metric on `registry`. Idempotent: bundles
  /// built against the same registry share slots.
  explicit PipelineMetrics(MetricsRegistry& registry);

  MetricsRegistry* registry = nullptr;

  // --- Run level (recorded by the TraceWeaver facade). ---
  Counter runs;            ///< tw_runs_total
  Counter run_wall_ns;     ///< tw_run_wall_ns_total
  Counter run_spans;       ///< tw_run_spans_total
  Counter run_containers;  ///< tw_run_containers_total
  Gauge threads;           ///< tw_threads

  // --- Per-stage timing, indexed by Stage. ---
  Counter stage_wall_ns[kStageCount];  ///< tw_stage_wall_ns_total{stage=}
  Counter stage_cpu_ns[kStageCount];   ///< tw_stage_cpu_ns_total{stage=}

  // --- Candidate enumeration (§4.1 step 1). ---
  Counter parents;              ///< tw_parents_total: spans with a plan.
  Counter parents_leaf;         ///< tw_parents_leaf_total
  Counter parents_mapped;       ///< tw_parents_mapped_total
  Counter parents_top_choice;   ///< tw_parents_top_choice_total
  Counter candidates;           ///< tw_candidates_total
  Counter enum_dfs_nodes;       ///< tw_enum_dfs_nodes_total
  Counter enum_branch_limited;  ///< tw_enum_branch_limited_total
  Counter enum_total_capped;    ///< tw_enum_total_capped_total
  Histogram candidates_per_parent;  ///< tw_candidates_per_parent

  // --- Batching (§4.1 step 2). ---
  Counter batches;            ///< tw_batches_total
  Counter batches_imperfect;  ///< tw_batches_imperfect_total
  Counter solve_runs;         ///< tw_solve_runs_total: perfect-cut runs.
  Histogram batch_size;       ///< tw_batch_size

  // --- Delay model (§4.1 step 3/6). ---
  Counter delay_keys_seeded;     ///< tw_delay_keys_seeded_total
  Counter delay_keys_refit;      ///< tw_delay_keys_refit_total (dirty).
  Counter delay_keys_final;      ///< tw_delay_keys_final_total
  Counter delay_mixture_keys;    ///< tw_delay_mixture_keys_final_total
  Counter delay_components;      ///< tw_delay_components_final_total
  GmmCounters gmm;

  // --- Ranking (§4.1 step 4). ---
  Counter rank_tasks;            ///< tw_rank_tasks_total: tasks scored.
  Counter rank_tasks_skipped;    ///< tw_rank_tasks_skipped_total (clean).
  Histogram rank_margin_milli;   ///< tw_rank_margin_milli: (top1-top2)*1e3.

  // --- Joint optimization (§4.1 step 5). ---
  Counter mwis_solves;     ///< tw_mwis_solves_total
  Counter mwis_vertices;   ///< tw_mwis_vertices_total
  Counter mwis_edges;      ///< tw_mwis_edges_total
  Counter mwis_bb_nodes;   ///< tw_mwis_bb_nodes_total
  Counter mwis_fallbacks;  ///< tw_mwis_fallbacks_total

  // --- Arena scratch (enumeration / conflict-graph assembly). ---
  Counter arena_scratch_bytes;  ///< tw_arena_scratch_bytes_total
  Counter arena_allocations;    ///< tw_arena_allocations_total
  Histogram arena_high_water;   ///< tw_arena_high_water_bytes (per scope).
  Histogram arena_reserved;     ///< tw_arena_reserved_bytes (per scope).

  // --- Iteration (§4.1 step 6). ---
  Counter iterations;  ///< tw_iterations_total
  Counter converged;   ///< tw_converged_total: early model fixpoints.

  // --- Dynamism (§4.2). ---
  Counter dynamism_containers;  ///< tw_dynamism_containers_total
  Counter skip_budget;          ///< tw_skip_budget_total
  Counter skips_chosen;         ///< tw_skips_chosen_total: phantom spans.

  // --- Per-service families (cold registration, once per container). ---
  Counter ServiceParents(const std::string& service) const;
  Counter ServiceMapped(const std::string& service) const;
  Counter ServiceTopChoice(const std::string& service) const;
  Counter ServiceCandidates(const std::string& service) const;
};

/// The streaming (online-mode) metric bundle: everything the resilient
/// serving loop records -- window lifecycle, load shedding, the overload
/// degradation ladder, late-span handling, watermark sanity and
/// checkpointing. Same inert-bundle pattern as PipelineMetrics.
struct OnlineMetrics {
  OnlineMetrics() = default;
  explicit OnlineMetrics(MetricsRegistry& registry);

  MetricsRegistry* registry = nullptr;

  // --- Window lifecycle. ---
  Counter windows_closed;     ///< tw_online_windows_closed_total
  Counter spans_ingested;     ///< tw_online_spans_ingested_total
  Counter parents_committed;  ///< tw_online_parents_committed_total
  Histogram window_close_ns;  ///< tw_online_window_close_ns

  // --- Bounded memory / admission control. ---
  Counter windows_shed;     ///< tw_online_windows_shed_total
  Counter spans_shed;       ///< tw_online_spans_shed_total
  Counter admission_drops;  ///< tw_online_admission_drops_total
  Gauge buffer_spans;       ///< tw_online_buffer_spans
  Gauge buffer_bytes;       ///< tw_online_buffer_bytes

  // --- Overload degradation ladder. ---
  Counter deadline_misses;     ///< tw_online_deadline_misses_total
  Counter degrade_steps_up;    ///< tw_online_degrade_steps_total{direction="up"}
  Counter degrade_steps_down;  ///< tw_online_degrade_steps_total{direction="down"}
  Gauge degradation_level;     ///< tw_online_degradation_level

  // --- Late / out-of-order spans. ---
  Counter late_spans;             ///< tw_online_late_spans_total
  Counter late_grafted;           ///< tw_online_late_grafted_total
  Counter late_orphans;           ///< tw_online_late_orphans_total
  Counter late_dropped;           ///< tw_online_late_dropped_total
  Counter watermark_regressions;  ///< tw_online_watermark_regressions_total

  // --- Checkpoint / restore (recorded by the serve loop). ---
  Counter checkpoints;  ///< tw_online_checkpoints_total
  Counter restores;     ///< tw_online_restores_total
};

}  // namespace traceweaver::obs
