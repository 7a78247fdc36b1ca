// The per-container optimization pipeline (§4.1 steps 1-6, §4.2).
//
// For one service container, the optimizer:
//   1. enumerates feasible candidate mappings per incoming span,
//   2. splits incoming spans into batches at perfect cuts,
//   3. builds delay distributions (seed Gaussians, later GMMs; WAP5-seeded
//      under dynamism),
//   4. ranks candidates with the distributions,
//   5. solves each batch's conflict graph as max-weight independent set,
//   6. iterates 3-5 with the inferred mappings refining the distributions.
// Skip-span budgets for dynamism are sized from per-backend discrepancies
// and spread across batches by water-filling (§4.2).
//
// There is one data path (DESIGN.md §4g). Each candidate pool's
// client_send/client_recv timestamps are copied into contiguous columns
// for the window scans and seed series; each task's candidate gaps are
// extracted once into a gap table and scored with one batched LogPdf per
// plan position; enumeration scratch comes from a per-worker arena. The
// batch scorer adds its terms in the scalar ScoreMapping's order, so the
// explain drill-down, which rescores through ScoreMapping, reproduces
// every ranked score bit for bit.
//
// The ablation toggles in OptimizerOptions correspond to Fig. 5's lines:
// dependency-order constraints, iteration, and joint (batched) optimization
// can each be disabled independently.
#pragma once

#include <cstddef>
#include <vector>

#include "callgraph/call_graph.h"
#include "core/candidates.h"
#include "core/delay_model.h"
#include "core/parameters.h"
#include "stats/gmm.h"
#include "trace/trace.h"
#include "trace/trace_store.h"

namespace traceweaver::obs {
struct PipelineMetrics;  // obs/pipeline_metrics.h
}

namespace traceweaver {

class ThreadPool;
struct ExplainCapture;  // core/explain.h

struct OptimizerOptions {
  Parameters params;

  /// Worker pool shared across the pipeline stages (per-task enumeration
  /// and ranking, per-run batch solving, per-key GMM refits). Not owned;
  /// must outlive the optimization. Null runs every stage serially.
  /// Output is bit-identical for any pool size (see DESIGN.md,
  /// "Concurrency model").
  ThreadPool* pool = nullptr;

  /// Ablation toggles (Fig. 5).
  bool use_order_constraints = true;  ///< Line 3: invocation-order pruning.
  bool iterate = true;                ///< Line 4: GMM refinement iterations.
  bool use_joint_optimization = true; ///< Line 5: batched MIS vs greedy.

  /// Enable §4.2 skip-span handling when discrepancies are observed.
  bool enable_dynamism = true;

  /// Thread-affinity hints (§7 future work). kSoft adds a fixed ranking
  /// bonus (core/candidates.cc) to children sent from the parent's pickup
  /// thread; kHard prunes all other children (only sound under the vPath
  /// threading model).
  enum class ThreadAffinity { kIgnore, kSoft, kHard };
  ThreadAffinity thread_affinity = ThreadAffinity::kIgnore;

  /// Known child->parent links from partially instrumented services
  /// (§2.2.6). Pinned children are withheld from every other parent's
  /// candidate pools and their positions are fixed during enumeration;
  /// TraceWeaver reconstructs only the gaps. Not owned; must outlive the
  /// optimization.
  const ParentAssignment* pinned = nullptr;

  GmmFitOptions gmm;

  /// Observability sink: pre-registered metric handles the pipeline
  /// records into (counts, stage timings, histograms). Null disables
  /// recording; reconstruction output is bit-identical either way --
  /// instrumentation only observes. Not owned; must outlive the
  /// optimization. Handles are thread-safe, so one bundle serves all
  /// concurrently optimized containers.
  const obs::PipelineMetrics* metrics = nullptr;

  /// Collect per-batch quality statistics (ContainerResult::batch_stats):
  /// the MWIS objective of the final solution next to the greedy
  /// heuristic's, feeding the trace-quality subsystem (obs/quality.h).
  /// Observation only -- the extra greedy solve never touches the chosen
  /// assignment, so output stays bit-identical either way.
  bool collect_quality = false;

  /// When set, the container owning this incoming span fills `explain_out`
  /// with its candidate table (per-position score decompositions against
  /// the final delay model, ranks, MWIS conflict neighbors) at the end of
  /// the optimization. Cold path; reconstruction output is unaffected.
  SpanId explain_parent = kInvalidSpanId;
  ExplainCapture* explain_out = nullptr;  ///< Not owned; may be null.
};

/// Reconstruction output for one incoming span.
struct ParentResult {
  SpanId parent = kInvalidSpanId;
  /// Ranked candidate mappings, best first (top K).
  std::vector<CandidateMapping> ranked;
  /// Index into `ranked` of the mapping the joint optimization selected;
  /// -1 if the span could not be mapped.
  int chosen = -1;
  /// Total feasible candidates enumerated (before the top-K cut); the
  /// ambiguity denominator of the quality layer.
  std::size_t candidates_considered = 0;
  /// Index of the batch (within the container) this span was solved in.
  std::size_t batch = 0;

  bool Mapped() const { return chosen >= 0; }
  /// True when the selected mapping was also the top-ranked one (input to
  /// the §6.3.2 confidence score).
  bool ChoseTop() const { return chosen == 0; }
};

struct ContainerResult {
  ServiceInstance instance;
  /// One entry per incoming span that has a non-empty plan.
  std::vector<ParentResult> parents;
  /// Incoming spans that are leaves (no backend calls) -- trivially done.
  std::size_t leaf_parents = 0;
  std::size_t batches = 0;
  std::size_t imperfect_batches = 0;
  std::size_t mis_fallbacks = 0;  ///< Batches where B&B hit its budget.

  /// Per-batch solve quality, filled only when
  /// OptimizerOptions::collect_quality is on (one entry per batch, final
  /// iteration). The greedy objective lower-bounds the exact one; their
  /// gap signals how contested the batch's joint optimization was.
  struct BatchStats {
    double chosen_weight = 0.0;  ///< MWIS objective of the final solution.
    double greedy_weight = 0.0;  ///< Greedy weight/(degree+1) + 1-swap.
    bool optimal = true;   ///< B&B completed within its node budget.
    bool joint = true;     ///< False on the greedy-ablation path.
    bool solved = false;   ///< A solve ran (batch had live vertices).
  };
  std::vector<BatchStats> batch_stats;

  /// Duplicate-twin adoptions (child id -> parent id), sorted by child:
  /// unassigned spans folded onto the parent of an assigned same-pool
  /// sibling within Parameters::duplicate_twin_window_ns (retry/hedge
  /// duplicates racing one plan position). Empty when the window is 0.
  std::vector<std::pair<SpanId, SpanId>> adopted;

  /// The delay model behind the final ranking (empty when the container
  /// had no tasks). The online weaver carries it into the next window's
  /// optimization of the same container as its prior.
  DelayModel model;

  /// Merges the chosen mappings (and twin adoptions) into `out`
  /// (child id -> parent id).
  void AppendAssignment(ParentAssignment& out) const;
};

/// Runs the full pipeline for one container view.
///
/// `prior` is the container's delay model from an earlier optimization
/// (not owned; may be null). At each refit, a key whose new gap samples
/// pass the drift check against the prior (DetectDrift) takes the
/// prior's mixture instead of a fresh BIC sweep;
/// drifted keys, keys with too few samples and keys the prior lacks are
/// fitted by EM. A null prior fits every key from scratch.
ContainerResult OptimizeContainer(const ContainerView& view,
                                  const CallGraph& graph,
                                  const OptimizerOptions& options,
                                  const DelayModel* prior = nullptr);

}  // namespace traceweaver
