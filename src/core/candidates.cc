#include "core/candidates.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace traceweaver {
namespace {

/// Log-score bonus per thread-matched child under the soft
/// thread-affinity hint (ScoringContext::thread_bonus).
constexpr double kThreadMatchBonus = 1.5;

template <typename T>
using ArenaVec = std::vector<T, ArenaStlAllocator<T>>;
using ArenaIdSet =
    std::unordered_set<SpanId, std::hash<SpanId>, std::equal_to<SpanId>,
                       ArenaStlAllocator<SpanId>>;

/// The §4.1 stage bound, stepped position by position in plan order.
/// `stage_lb` is the current stage's enabling event: the parent's arrival
/// for stage 0 and, with dependency order on, the latest completion of any
/// earlier child for later stages. `max_recv` is that latest completion.
/// Enumeration (feasibility windows) and WalkGaps (scoring gaps) both step
/// this one rule, so they agree on every enabling event.
struct StageBound {
  TimeNs stage_lb;
  TimeNs max_recv;

  explicit StageBound(const Span& parent)
      : stage_lb(parent.server_recv), max_recv(parent.server_recv) {}

  /// Enters plan position `pos` (index `i`) and returns its enabling
  /// event; without dependency order every event is the parent's arrival.
  TimeNs Enter(const Span& parent, const InvocationPlan::Position& pos,
               std::size_t i, bool use_order_constraints) {
    if (!use_order_constraints) return parent.server_recv;
    if (pos.call == 0 && i > 0) stage_lb = std::max(stage_lb, max_recv);
    return stage_lb;
  }

  /// The bound after the current position is filled with `child`.
  StageBound Filled(const Span& child) const {
    StageBound next = *this;
    next.max_recv = std::max(max_recv, child.client_recv);
    return next;
  }
};

struct DfsState {
  const Span* parent = nullptr;
  const InvocationPlan* plan = nullptr;
  const PositionPools* pools = nullptr;
  const EnumerationOptions* options = nullptr;
  const std::vector<InvocationPlan::Position>* positions = nullptr;

  // Per-enumeration scratch, arena-backed: these stacks live only for the
  // DFS and are bounded by the plan depth, so they bump-allocate from the
  // caller's (or a small local) arena instead of the heap.
  ArenaVec<SpanId> current;
  ArenaVec<const Span*> current_spans;
  ArenaIdSet used;
  std::size_t skips = 0;
  std::vector<CandidateMapping>* results = nullptr;
  EnumerationStats stats;

  explicit DfsState(ArenaAllocator* arena)
      : current(ArenaStlAllocator<SpanId>(arena)),
        current_spans(ArenaStlAllocator<const Span*>(arena)),
        used(0, std::hash<SpanId>(), std::equal_to<SpanId>(),
             ArenaStlAllocator<SpanId>(arena)) {}
};

/// DFS over plan positions; `bound` carries the enabling event of the
/// current stage (StageBound) for the feasibility window.
void Dfs(DfsState& state, std::size_t pos_idx, StageBound bound) {
  if (state.results->size() >= state.options->total_cap) return;
  ++state.stats.dfs_nodes;
  if (pos_idx == state.positions->size()) {
    CandidateMapping m;
    m.children.assign(state.current.begin(), state.current.end());
    m.skips = state.skips;
    state.results->push_back(std::move(m));
    if (state.options->resolved_out != nullptr) {
      state.options->resolved_out->insert(state.options->resolved_out->end(),
                                          state.current_spans.begin(),
                                          state.current_spans.end());
    }
    return;
  }

  const auto& pos = (*state.positions)[pos_idx];
  const TimeNs lb = bound.Enter(*state.parent, pos, pos_idx,
                                state.options->use_order_constraints);

  // Pinned position (partial instrumentation): take the known child and
  // move on -- no alternatives, no skip.
  if (state.options->forced != nullptr &&
      (*state.options->forced)[pos_idx] != nullptr) {
    const Span* child = (*state.options->forced)[pos_idx];
    state.current.push_back(child->id);
    state.current_spans.push_back(child);
    Dfs(state, pos_idx + 1, bound.Filled(*child));
    state.current_spans.pop_back();
    state.current.pop_back();
    return;
  }

  const std::vector<const Span*>& pool = *(*state.pools)[pos_idx];
  const DurationNs slack = state.options->position_slack != nullptr
                               ? (*state.options->position_slack)[pos_idx]
                               : state.options->slack;
  // Children with client_send in [lb - slack, parent.server_send + slack];
  // nearest first.
  const auto first = std::lower_bound(
      pool.begin(), pool.end(), lb - slack, [](const Span* s, TimeNs t) {
        return s->client_send < t;
      });
  std::size_t branched = 0;
  for (auto it = first; it != pool.end(); ++it) {
    const Span* child = *it;
    if (child->client_send > state.parent->server_send + slack) break;
    if (child->client_recv > state.parent->server_send + slack) continue;
    if (state.options->require_thread_match &&
        child->caller_thread != state.parent->handler_thread) {
      continue;
    }
    if (state.used.count(child->id) > 0) continue;
    if (branched >= state.options->branch_cap) {
      ++state.stats.branch_limited;
      break;
    }
    ++branched;

    state.current.push_back(child->id);
    state.current_spans.push_back(child);
    state.used.insert(child->id);
    Dfs(state, pos_idx + 1, bound.Filled(*child));
    state.used.erase(child->id);
    state.current_spans.pop_back();
    state.current.pop_back();
    if (state.results->size() >= state.options->total_cap) return;
  }

  // Skip branch (after the real candidates, so complete mappings are
  // explored first).
  const BackendCall& call = state.plan->At(pos);
  if (call.optional || state.options->allow_all_skips) {
    state.current.push_back(kSkippedChild);
    state.current_spans.push_back(nullptr);
    ++state.skips;
    Dfs(state, pos_idx + 1, bound);
    --state.skips;
    state.current_spans.pop_back();
    state.current.pop_back();
  }
}

/// The gap walk behind every score term (§4.1 step 4): steps StageBound
/// through the positions in plan order and reports each skipped position,
/// each filled position with its timing gap (child departure - enabling
/// event), and finally the response gap (last child completion -> parent
/// response departure) when any position is filled. Timestamps stay
/// integer until each gap is cast, so every caller sees the same exact
/// gaps.
template <typename OnSkip, typename OnChild, typename OnResponse>
inline void WalkGaps(const Span& parent,
                     const std::vector<InvocationPlan::Position>& positions,
                     const Span* const* children, bool use_order_constraints,
                     OnSkip&& on_skip, OnChild&& on_child,
                     OnResponse&& on_response) {
  StageBound bound(parent);
  bool any_child = false;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const TimeNs trigger =
        bound.Enter(parent, positions[i], i, use_order_constraints);
    const Span* child = children[i];
    if (child == nullptr) {
      on_skip(i);
      continue;
    }
    on_child(i, *child, static_cast<double>(child->client_send - trigger));
    bound = bound.Filled(*child);
    any_child = true;
  }
  if (any_child) {
    on_response(static_cast<double>(parent.server_send - bound.max_recv));
  }
}

/// Mode-normalized log-likelihood ratio of `gap` under `dist` (fallback
/// Gaussian when null): unit-free, <= 0, directly comparable with the
/// discrete skip/keep log-probabilities.
double NormalizedLogPdf(const GaussianMixture* dist, double max_log_pdf,
                        double gap) {
  const double lp = dist != nullptr ? dist->LogPdf(gap)
                                    : DelayModel::FallbackLogPdf(gap);
  return lp - max_log_pdf;
}

/// The one place the order of the score terms is written: per position the
/// skip term, or keep + thread bonus + timing; then the response term.
/// With `rows` set, each term is also recorded there; the running sum is
/// the same chain of additions either way.
double ScoreTerms(const Span& parent, const Span* const* children,
                  const ScoringContext& ctx, ScoreBreakdown* rows) {
  const std::vector<ScoringContext::PositionScore>& table =
      *ctx.position_scores;
  double score = 0.0;
  WalkGaps(
      parent, *ctx.positions, children, ctx.use_order_constraints,
      [&](std::size_t i) {
        const double discrete = table[i].skip_lp + kSkipMargin;
        score += discrete;
        if (rows != nullptr) rows->positions[i].discrete_lp = discrete;
      },
      [&](std::size_t i, const Span& child, double gap) {
        const ScoringContext::PositionScore& ps = table[i];
        score += ps.keep_lp;
        const bool bonus = ctx.thread_bonus &&
                           child.caller_thread == parent.handler_thread;
        if (bonus) score += kThreadMatchBonus;
        const double timing = NormalizedLogPdf(ps.dist, ps.max_log_pdf, gap);
        score += timing;
        if (rows != nullptr) {
          ScoreBreakdown::Position& row = rows->positions[i];
          row.skipped = false;
          row.child = child.id;
          row.discrete_lp = ps.keep_lp;
          if (bonus) row.thread_bonus = kThreadMatchBonus;
          row.gap_ns = gap;
          row.timing_lp = timing;
        }
      },
      [&](double gap) {
        const double lp = NormalizedLogPdf(
            ctx.response.mixture, ctx.response.max_log_pdf, gap);
        score += lp;
        if (rows != nullptr) {
          rows->has_response = true;
          rows->response_gap_ns = gap;
          rows->response_lp = lp;
        }
      });
  return score;
}

}  // namespace

void AdjustForSampling(double rate, double& skip_lp, double& keep_lp) {
  if (rate >= 1.0) return;  // Bit-identical no-op for unsampled streams.
  const double r = std::max(rate, 1e-4);
  const double s = std::exp(skip_lp);
  skip_lp = std::log(s + (1.0 - s) * (1.0 - r));
  keep_lp += std::log(r);
}

std::vector<CandidateMapping> EnumerateCandidates(
    const Span& parent, const InvocationPlan& plan,
    const PositionPools& pools, const EnumerationOptions& options) {
  std::vector<CandidateMapping> results;
  // Stand-alone callers (tests, cold paths) get a small local arena; the
  // optimizer passes a per-worker arena it resets between tasks.
  ArenaAllocator local(4 * 1024);
  ArenaAllocator* arena =
      options.scratch != nullptr ? options.scratch : &local;
  std::vector<InvocationPlan::Position> own_positions;
  if (options.positions == nullptr) own_positions = plan.Positions();
  DfsState state(arena);
  state.parent = &parent;
  state.plan = &plan;
  state.pools = &pools;
  state.options = &options;
  state.positions =
      options.positions != nullptr ? options.positions : &own_positions;
  state.results = &results;
  Dfs(state, 0, StageBound(parent));
  if (options.stats != nullptr) {
    options.stats->dfs_nodes += state.stats.dfs_nodes;
    options.stats->branch_limited += state.stats.branch_limited;
    if (results.size() >= options.total_cap) ++options.stats->total_capped;
  }
  return results;
}

double ScoreMapping(const Span& parent, const Span* const* children,
                    const ScoringContext& ctx) {
  return ScoreTerms(parent, children, ctx, nullptr);
}

CandidateGapTable BuildGapTable(
    const Span& parent,
    const std::vector<InvocationPlan::Position>& positions,
    const Span* const* resolved, std::size_t num_candidates,
    bool use_order_constraints) {
  CandidateGapTable t;
  const std::size_t np = positions.size();
  t.num_candidates = num_candidates;
  t.num_positions = np;
  t.gaps.assign(np * num_candidates, 0.0);
  t.filled.assign(np * num_candidates, 0);
  t.thread_match.assign(np * num_candidates, 0);
  t.response_gap.assign(num_candidates, 0.0);
  t.any_child.assign(num_candidates, 0);

  for (std::size_t c = 0; c < num_candidates; ++c) {
    WalkGaps(
        parent, positions, resolved + c * np, use_order_constraints,
        [](std::size_t) {},
        [&](std::size_t i, const Span& child, double gap) {
          const std::size_t slot = i * num_candidates + c;
          t.filled[slot] = 1;
          if (child.caller_thread == parent.handler_thread) {
            t.thread_match[slot] = 1;
          }
          t.gaps[slot] = gap;
        },
        [&](double gap) {
          t.any_child[c] = 1;
          t.response_gap[c] = gap;
        });
  }
  return t;
}

void ScoreCandidatesBatch(const CandidateGapTable& table,
                          const ScoringContext& ctx,
                          std::span<double> scores,
                          std::span<double> scratch) {
  const std::size_t nc = table.num_candidates;
  const std::size_t np = table.num_positions;
  double* lp = scratch.data();
  for (std::size_t c = 0; c < nc; ++c) scores[c] = 0.0;

  for (std::size_t i = 0; i < np; ++i) {
    const ScoringContext::PositionScore& ps = (*ctx.position_scores)[i];
    const double* gcol = table.gaps.data() + i * nc;
    // One batched evaluation per position column; skipped slots carry a
    // 0.0 gap whose density is computed but never accumulated.
    if (ps.dist != nullptr) {
      ps.dist->LogPdfBatch({gcol, nc}, {lp, nc});
    } else {
      DelayModel::FallbackLogPdfBatch({gcol, nc}, {lp, nc});
    }
    const std::uint8_t* fl = table.filled.data() + i * nc;
    const std::uint8_t* tm = table.thread_match.data() + i * nc;
    // Accumulation mirrors ScoreTerms' adds term by term (skip sum, keep,
    // bonus, normalized timing), so per-candidate totals are bitwise
    // identical.
    const double skip_term = ps.skip_lp + kSkipMargin;
    for (std::size_t c = 0; c < nc; ++c) {
      if (fl[c] == 0) {
        scores[c] += skip_term;
        continue;
      }
      scores[c] += ps.keep_lp;
      if (ctx.thread_bonus && tm[c] != 0) scores[c] += kThreadMatchBonus;
      scores[c] += lp[c] - ps.max_log_pdf;
    }
  }

  if (ctx.response.mixture != nullptr) {
    ctx.response.mixture->LogPdfBatch({table.response_gap.data(), nc},
                                      {lp, nc});
  } else {
    DelayModel::FallbackLogPdfBatch({table.response_gap.data(), nc},
                                    {lp, nc});
  }
  for (std::size_t c = 0; c < nc; ++c) {
    if (table.any_child[c] != 0) {
      scores[c] += lp[c] - ctx.response.max_log_pdf;
    }
  }
}

ScoreBreakdown ExplainMapping(const Span& parent, const InvocationPlan& plan,
                              const std::vector<const Span*>& resolved_children,
                              const ScoringContext& ctx) {
  ScoreBreakdown out;
  out.positions.reserve(ctx.positions->size());
  for (const InvocationPlan::Position& pos : *ctx.positions) {
    const BackendCall& call = plan.At(pos);
    ScoreBreakdown::Position row;
    row.stage = pos.stage;
    row.call = pos.call;
    row.service = call.service;
    row.endpoint = call.endpoint;
    out.positions.push_back(std::move(row));
  }
  out.total = ScoreTerms(parent, resolved_children.data(), ctx, &out);
  return out;
}

std::vector<GapSample> ExtractGaps(
    const Span& parent, const InvocationPlan& plan,
    const std::vector<const Span*>& resolved_children,
    bool use_order_constraints) {
  const auto positions = plan.Positions();
  std::vector<GapSample> samples;
  samples.reserve(positions.size() + 1);
  WalkGaps(
      parent, positions, resolved_children.data(), use_order_constraints,
      [](std::size_t) {},
      [&](std::size_t i, const Span&, double gap) {
        samples.push_back(GapSample{
            DelayKey{parent.callee, parent.endpoint,
                     static_cast<int>(positions[i].stage),
                     static_cast<int>(positions[i].call)},
            gap});
      },
      [&](double gap) {
        samples.push_back(GapSample{
            DelayKey::ResponseGap(parent.callee, parent.endpoint), gap});
      });
  return samples;
}

}  // namespace traceweaver
