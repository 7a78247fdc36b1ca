// TraceWeaver's tunable parameters (paper Table 1) plus implementation
// knobs with conservative defaults.
#pragma once

#include <algorithm>
#include <cstddef>
#include <map>
#include <string>
#include <utility>

namespace traceweaver {

struct Parameters {
  /// Max size of an optimization batch (Table 1: B = 30; §4.1 step 2 uses
  /// 100 as the hard threshold -- we expose the Table 1 default).
  std::size_t max_batch_size = 30;

  /// Max candidate mappings kept per incoming span (Table 1: K = 5).
  std::size_t max_candidates_per_span = 5;

  /// Max GMM components for delay modeling (Table 1: C = 5). The paper
  /// sweeps 1..20 with BIC; C caps the sweep.
  std::size_t max_gmm_components = 5;

  /// Buckets used for the seed variance estimate (Table 1: R = 10).
  std::size_t seed_buckets = 10;

  /// Iterations of the joint distribution/mapping refinement (§4.1 step 6).
  /// The paper reports quick convergence; 3 is enough in practice.
  std::size_t iterations = 3;

  /// Known capture-sampling keep probability of the span stream (head or
  /// span-level sampling upstream of TraceWeaver). 1.0 (the default)
  /// means "unsampled" and leaves every code path byte-identical to a
  /// build without the knob. Below 1.0, sampled-out children become
  /// *expected absences*: dynamism stays engaged with a skip budget
  /// floored at ceil(X_p * (1 - rate)) per pool, the fallback skip/keep
  /// log-probabilities are re-derived for the thinned stream
  /// (AdjustForSampling, core/candidates.h), and the quality layer
  /// relaxes skip and orphan penalties accordingly.
  double sampling_rate = 1.0;

  /// Duplicate-twin adoption window (ns) for retry/hedge duplicates: after
  /// the joint solve, an *unassigned* child whose (service, endpoint)
  /// pool-mate was assigned to a parent, and whose client_send lies within
  /// this window of that sibling's, is adopted by the same parent when it
  /// fits the parent's processing window. 0 (default) disables adoption
  /// and keeps assignments byte-identical to pre-twin builds.
  long long duplicate_twin_window_ns = 0;

  // ------- implementation knobs (not in Table 1) -------

  /// Node budget for the exact branch-and-bound MWIS solver before falling
  /// back to greedy + local search.
  std::size_t mis_node_budget = 200000;

  /// Feasibility-constraint slack (ns) tolerating capture-clock jitter
  /// between vantage points; raise to ~4x the expected jitter stddev when
  /// capture clocks are noisy.
  long long constraint_slack_ns = 0;

  /// Per-edge override of constraint_slack_ns, keyed (caller service,
  /// callee service): the slack applied when enumerating children of that
  /// edge. Derived from observed per-pair skew spread
  /// (SkewEstimator::EdgeSlacks), so one noisy pair no longer forces the
  /// global slack wide open for every edge. Edges not listed fall back to
  /// constraint_slack_ns.
  std::map<std::pair<std::string, std::string>, long long> edge_slack_ns;

  /// Effective slack for children on edge (caller service -> callee
  /// service).
  long long SlackFor(const std::string& caller,
                     const std::string& callee) const {
    const auto it = edge_slack_ns.find({caller, callee});
    return it != edge_slack_ns.end() ? it->second : constraint_slack_ns;
  }

  /// Returns a copy degraded for overload level `level` (the online
  /// degradation ladder, DESIGN.md §4f). Steps are cumulative and ordered
  /// by accuracy cost per CPU saved:
  ///   level >= 1: top-K shrunk to 3 (ranking + MWIS vertices)
  ///   level >= 2: max batch size shrunk to 15 (solve cost ~ B^2)
  ///   level >= 3: refinement capped at 2 iterations (GMM refits)
  ///   level >= 4: exact B&B MWIS dropped (budget 0 -> greedy + 1-swap)
  /// Level 0 (and negative) returns *this unchanged; levels above
  /// kMaxOverloadLevel clamp.
  Parameters DegradedForOverload(int level) const {
    Parameters p = *this;
    if (level >= 1) {
      p.max_candidates_per_span = std::min<std::size_t>(
          p.max_candidates_per_span, 3);
    }
    if (level >= 2) {
      p.max_batch_size = std::min<std::size_t>(p.max_batch_size, 15);
    }
    if (level >= 3) {
      p.iterations = std::min<std::size_t>(p.iterations, 2);
    }
    if (level >= 4) {
      p.mis_node_budget = 0;  // Every solve falls back to greedy.
    }
    return p;
  }
};

/// Deepest rung of the overload degradation ladder.
inline constexpr int kMaxOverloadLevel = 4;

}  // namespace traceweaver
