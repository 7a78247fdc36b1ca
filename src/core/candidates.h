// Candidate-mapping enumeration, scoring, and gap extraction
// (§4.1 steps 1 and 4).
//
// For an incoming (parent) span with an InvocationPlan, a candidate mapping
// assigns one outgoing (child) span -- or a skip marker, under dynamism --
// to every plan position, subject to the §4.1 feasibility constraints:
//   (i)  every child's request leaves after the parent's request arrived;
//   (ii) every child's response returns before the parent's response left;
//   (iii) with dependency order on, a stage's calls depart only after every
//         call of the previous stage completed.
// Enumeration is a DFS over plan positions with a per-position branch cap
// (children nearest the enabling event first) and a total cap; the
// optimizer then ranks the survivors with DelayModel scores and keeps the
// top K.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "callgraph/call_graph.h"
#include "core/delay_model.h"
#include "trace/span.h"
#include "util/arena.h"

namespace traceweaver {

/// Marker for a skipped plan position inside a candidate mapping.
constexpr SpanId kSkippedChild = kInvalidSpanId;

struct CandidateMapping {
  /// One entry per plan position (InvocationPlan::Positions() order);
  /// kSkippedChild where the position is skipped.
  std::vector<SpanId> children;
  double score = 0.0;
  std::size_t skips = 0;

  bool Complete() const { return skips == 0; }
};

/// Aggregate facts about one enumeration, for observability. Accumulated
/// (not reset) so one instance can span all parents of a container; the
/// caller folds totals into the metrics registry.
struct EnumerationStats {
  std::uint64_t dfs_nodes = 0;       ///< DFS calls made.
  std::uint64_t branch_limited = 0;  ///< Positions that hit the branch cap.
  std::uint64_t total_capped = 0;    ///< Enumerations that hit total_cap.
};

struct EnumerationOptions {
  /// Apply cross-stage sequencing constraints (ablation line 3 disables).
  bool use_order_constraints = true;
  /// Allow skipping *any* position (fuzzy/dynamism mode, §4.2). Optional
  /// positions (BackendCall::optional) are always skippable.
  bool allow_all_skips = false;
  /// Per-position branching cap; feasible children closest in time are
  /// explored first.
  std::size_t branch_cap = 8;
  /// Cap on complete candidate mappings enumerated per incoming span
  /// before ranking to top K.
  std::size_t total_cap = 96;
  /// Timing-constraint slack: tolerates capture-clock jitter between the
  /// vantage points of the parent and child records. 0 for exact clocks.
  DurationNs slack = 0;
  /// Optional per-position slack (plan Positions() order) overriding
  /// `slack`, from Parameters::edge_slack_ns resolved per call site. Null
  /// applies the uniform `slack` everywhere.
  const std::vector<DurationNs>* position_slack = nullptr;
  /// Optional per-position forced children (size == plan positions), from
  /// partial instrumentation (§2.2.6): a non-null entry pins that position
  /// to the given span -- no alternatives, no skip -- and TraceWeaver fills
  /// in the gaps around it. Timing feasibility is not re-checked for
  /// pinned children; instrumentation is authoritative.
  const std::vector<const Span*>* forced = nullptr;
  /// Hard thread-affinity pruning (§7 future work): only children whose
  /// sending thread matches the parent's pickup thread are feasible. Only
  /// sound for apps that genuinely follow the vPath threading model; off
  /// by default.
  bool require_thread_match = false;
  /// Precomputed plan positions (plan.Positions()); avoids recomputing the
  /// flattened stage/call list per enumeration when the caller already has
  /// it.
  const std::vector<InvocationPlan::Position>* positions = nullptr;
  /// When set, each emitted mapping also appends its resolved child
  /// pointers (nullptr for skips) here, positions-count entries per
  /// mapping. The DFS already holds the Span pointers, so this spares the
  /// caller an id -> span lookup pass over every candidate.
  std::vector<const Span*>* resolved_out = nullptr;
  /// When set, enumeration work counters are accumulated here.
  EnumerationStats* stats = nullptr;
  /// When set, DFS scratch (the current-mapping stacks and the used-child
  /// set) allocates from this arena instead of the heap. The caller owns
  /// the arena and may Reset() it between enumerations; results are
  /// bit-identical either way. Null uses a small enumeration-local arena.
  ArenaAllocator* scratch = nullptr;
};

/// Pools of available children, one per plan position, each sorted by
/// client_send (SpanClientSendOrder). Pools may be shared across positions
/// with the same (service, endpoint); enumeration never reuses a span.
using PositionPools = std::vector<const std::vector<const Span*>*>;

/// Enumerates feasible candidate mappings for `parent` (unscored).
std::vector<CandidateMapping> EnumerateCandidates(
    const Span& parent, const InvocationPlan& plan,
    const PositionPools& pools, const EnumerationOptions& options);

/// Fallback log P(position skipped) when no per-backend skip rate is known.
inline constexpr double kDefaultSkipLogProb = -6.0;
/// Fallback log P(position present).
inline constexpr double kDefaultKeepLogProb = 0.0;
/// Extra log-penalty applied to skips on top of log(rate). Timing terms are
/// mode-normalized likelihood ratios (<= 0), so this margin sets how
/// atypical a feasible child's timing must be before skipping scores
/// higher: fills within ~1.5 log-likelihood units of the distribution peak
/// beat a skip.
inline constexpr double kSkipMargin = -1.5;

/// Everything the scorers read for one parent task. The optimizer builds it
/// once per (task, ranking iteration): resolving a DelayKey and a skip rate
/// per position per candidate would dominate the innermost loop, and both
/// are identical for every candidate of a task.
struct ScoringContext {
  /// One entry per plan position (InvocationPlan::Positions() order).
  struct PositionScore {
    double skip_lp = kDefaultSkipLogProb;  ///< log P(skipped), margin excluded.
    double keep_lp = kDefaultKeepLogProb;  ///< log P(position present).
    const GaussianMixture* dist = nullptr;  ///< null: fallback Gaussian.
    double max_log_pdf = 0.0;               ///< Peak log-density of `dist`.
  };

  /// Score timing gaps against the stage-enabling event (dependency order
  /// on) or uniformly against the parent arrival (ablation).
  bool use_order_constraints = true;
  /// Soft thread-affinity hint (§7 future work): add a fixed log-score
  /// bonus per child whose sending thread matches the parent's pickup
  /// thread. Unlike the hard mode this only nudges ranking, so it stays
  /// safe when the threading model is only sometimes informative.
  bool thread_bonus = false;
  /// The task's flattened plan positions. Required.
  const std::vector<InvocationPlan::Position>* positions = nullptr;
  /// Per-position discrete terms and delay distributions, parallel to
  /// `positions`. Required.
  const std::vector<PositionScore>* position_scores = nullptr;
  /// Response-gap distribution (mixture null: fallback Gaussian).
  DelayModel::DistView response;
};

/// Folds a known sampling keep-probability `rate` into discrete skip/keep
/// log-probabilities: a position looks absent when it was truly skipped
/// OR its span was sampled out, so with prior skip mass s = exp(skip_lp),
///   skip_lp' = log(s + (1 - s) * (1 - rate)),
///   keep_lp' = keep_lp + log(rate).
/// No-op (arguments untouched) when rate >= 1.0, preserving bit-identity
/// for unsampled streams.
void AdjustForSampling(double rate, double& skip_lp, double& keep_lp);

/// Scores one candidate mapping for `parent`: sum of per-position delay
/// log-densities plus the response-gap term and skip penalties (§4.1 step
/// 4, §4.2). `children` holds one resolved span per ctx.positions entry,
/// nullptr where the position is skipped. This is the reference the batch
/// kernel and the explain drill-down reproduce bit for bit.
double ScoreMapping(const Span& parent, const Span* const* children,
                    const ScoringContext& ctx);

/// Structure-of-arrays view of one task's enumerated candidates: the
/// timing gaps and discrete flags ScoreMapping derives from the resolved
/// child spans, extracted once per task. Gaps depend only on the parent,
/// the plan and the candidate's own children -- never on the delay model --
/// so the table is built once after enumeration and reused across every
/// ranking iteration, and ScoreCandidatesBatch can evaluate one position's
/// gap column with a single batched LogPdf call.
///
/// Layout is column-major by position: slot [pos * num_candidates + cand].
struct CandidateGapTable {
  std::size_t num_candidates = 0;
  std::size_t num_positions = 0;
  /// Gap (child client_send - enabling event) per slot; 0.0 where skipped.
  std::vector<double> gaps;
  /// 1 where the slot holds a real child, 0 where skipped.
  std::vector<std::uint8_t> filled;
  /// 1 where the child's sending thread matches the parent's pickup thread.
  std::vector<std::uint8_t> thread_match;
  /// Response gap per candidate (last child completion -> parent response
  /// departure); 0.0 for all-skip candidates.
  std::vector<double> response_gap;
  /// 1 when the candidate fills at least one position.
  std::vector<std::uint8_t> any_child;
};

/// Builds the gap table for `num_candidates` mappings whose resolved
/// children live in `resolved`, flat [cand * positions.size() + pos]
/// (ParentTask layout). The gaps come from the same walk ScoreMapping
/// scores, so they are exactly the ones it would compute.
CandidateGapTable BuildGapTable(
    const Span& parent,
    const std::vector<InvocationPlan::Position>& positions,
    const Span* const* resolved, std::size_t num_candidates,
    bool use_order_constraints);

/// Scores every candidate of one task in one pass: per position, one
/// batched LogPdf over the gap column, then per-candidate accumulation in
/// exactly ScoreMapping's term order -- scores are bitwise identical to
/// calling ScoreMapping per candidate. `scores` must hold num_candidates
/// slots; `scratch` at least num_candidates doubles.
void ScoreCandidatesBatch(const CandidateGapTable& table,
                          const ScoringContext& ctx,
                          std::span<double> scores,
                          std::span<double> scratch);

/// Per-position score decomposition of one candidate mapping, for the
/// `explain` drill-down. Each row mirrors exactly one additive term of
/// ScoreMapping, so the row sums (plus the response term) reproduce the
/// ranked score bit-for-bit.
struct ScoreBreakdown {
  struct Position {
    std::size_t stage = 0;
    std::size_t call = 0;
    std::string service;   ///< Backend the plan position calls.
    std::string endpoint;
    SpanId child = kSkippedChild;  ///< kSkippedChild when the position skips.
    bool skipped = true;
    double gap_ns = 0.0;    ///< Child send - enabling event (filled only).
    double timing_lp = 0.0; ///< Mode-normalized delay log-pdf (filled only).
    double discrete_lp = 0.0;  ///< skip_lp + margin, or keep_lp.
    double thread_bonus = 0.0;
  };
  std::vector<Position> positions;
  bool has_response = false;  ///< At least one position was filled.
  double response_gap_ns = 0.0;
  double response_lp = 0.0;
  double total = 0.0;  ///< Sum of every term; equals ScoreMapping's result.
};

/// Recomputes one candidate's score with every additive term recorded, on
/// ScoreMapping's own accumulation chain. Cold path (explain drill-down
/// only); given the same ScoringContext the `total` is bitwise identical
/// to ScoreMapping.
ScoreBreakdown ExplainMapping(const Span& parent, const InvocationPlan& plan,
                              const std::vector<const Span*>& resolved_children,
                              const ScoringContext& ctx);

/// A (delay key, observed gap) pair extracted from an accepted mapping;
/// the refit input for the next iteration (§4.1 step 6).
struct GapSample {
  DelayKey key;
  double gap = 0.0;
};

/// Extracts all gap samples implied by an accepted mapping.
std::vector<GapSample> ExtractGaps(
    const Span& parent, const InvocationPlan& plan,
    const std::vector<const Span*>& resolved_children,
    bool use_order_constraints);

}  // namespace traceweaver
