#include "core/optimizer.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/batching.h"
#include "core/drift.h"
#include "core/explain.h"
#include "core/mis_solver.h"
#include "obs/pipeline_metrics.h"
#include "obs/stage_timer.h"
#include "stats/water_filling.h"
#include "util/arena.h"
#include "util/thread_pool.h"

namespace traceweaver {
namespace {

using PoolKey = std::pair<std::string, std::string>;  // (service, endpoint)
using HandlerPair = std::pair<std::string, std::string>;

/// Minimum gap samples for a delay key before its distribution is refit
/// on iterations >= 2 (smaller sets keep the seed).
constexpr std::size_t kMinRefitSamples = 8;

/// One incoming span to be mapped, with its plan and per-position pools.
struct ParentTask {
  const Span* span = nullptr;
  const InvocationPlan* plan = nullptr;
  std::vector<InvocationPlan::Position> positions;
  std::vector<int> position_pool;  ///< Interned pool id per position.
  /// Per-position feasibility slack resolved from Parameters::
  /// edge_slack_ns; empty when no edge overrides exist (uniform slack).
  std::vector<DurationNs> position_slack;
  PositionPools pools;
  /// Per-position pinned children from partial instrumentation (empty when
  /// nothing is pinned for this parent).
  std::vector<const Span*> forced;
  std::vector<CandidateMapping> all_candidates;  ///< Enumerated once.
  /// Children of all_candidates resolved to spans, flat
  /// [cand * positions.size() + pos]; null where skipped. Built once so
  /// the gap table and the explain drill-down never do per-candidate id
  /// lookups.
  std::vector<const Span*> resolved;

  /// Timing gaps + discrete flags of all_candidates in column-major
  /// form, extracted once after enumeration. Model-free, so it survives
  /// every ranking iteration unchanged.
  CandidateGapTable gap_table;

  // Reusable per-task scratch (only touched by the thread ranking this
  // task, so parallel ranking stays race-free).
  std::vector<std::pair<double, std::uint32_t>> order;
  std::vector<ScoringContext::PositionScore> pos_scores;
  std::vector<double> scores;      ///< Batch-scoring output, per candidate.
  std::vector<double> lp_scratch;  ///< Batch-scoring scratch, per candidate.
};

const std::vector<const Span*>& EmptyPool() {
  static const std::vector<const Span*> empty;
  return empty;
}

/// Pool spans and per-pool statistics indexed by a dense interned id, so
/// the hot paths index vectors instead of probing
/// map<pair<string,string>, ...>. Ids are assigned in sorted key order for
/// observed pools (so id-order iteration matches the previous map-order
/// behaviour), then first-seen order for plan-only keys with no observed
/// spans.
struct PoolTable {
  std::map<PoolKey, int> ids;
  std::vector<std::vector<const Span*>> spans;  ///< By id; may be empty.
  /// The two timestamps the window scans and seed series read, copied
  /// into contiguous columns parallel to `spans` (client_send order) so
  /// those loops never chase span pointers. Filled by BuildColumns once
  /// the pools are final.
  std::vector<std::vector<TimeNs>> client_send;
  std::vector<std::vector<TimeNs>> client_recv;

  int Intern(const PoolKey& key) {
    auto [it, inserted] = ids.emplace(key, static_cast<int>(spans.size()));
    if (inserted) spans.emplace_back();
    return it->second;
  }
  int Find(const PoolKey& key) const {
    auto it = ids.find(key);
    return it == ids.end() ? -1 : it->second;
  }
  std::size_t size() const { return spans.size(); }

  void BuildColumns() {
    client_send.resize(spans.size());
    client_recv.resize(spans.size());
    for (std::size_t p = 0; p < spans.size(); ++p) {
      client_send[p].reserve(spans[p].size());
      client_recv[p].reserve(spans[p].size());
      for (const Span* s : spans[p]) {
        client_send[p].push_back(s->client_send);
        client_recv[p].push_back(s->client_recv);
      }
    }
  }
};

/// Everything shared across the pipeline stages for one container.
struct Workspace {
  const ContainerView* view = nullptr;
  const CallGraph* graph = nullptr;
  const OptimizerOptions* opts = nullptr;
  ThreadPool* pool = nullptr;  ///< Null = serial.
  /// Metric handles; points at an inert bundle when observability is off,
  /// so recording sites never branch on configuration.
  const obs::PipelineMetrics* pm = nullptr;

  PoolTable pools;
  std::unordered_map<SpanId, const Span*> span_by_id;
  std::vector<ParentTask> tasks;       ///< Sorted by SpanStartOrder.
  std::vector<const Span*> task_spans; ///< Parallel to tasks, for batching.

  /// Pinned children by parent span id (§2.2.6 partial instrumentation).
  std::map<SpanId, std::vector<const Span*>> pinned_children;
  // Per-pool-id statistics (X_p etc.), dense.
  std::vector<std::size_t> expected_calls;  ///< X_p per pool.
  std::vector<std::size_t> skip_budget;     ///< max(0, X_p - |pool|).
  std::vector<double> skip_rate;            ///< budget / expected.
  std::vector<char> has_rate;               ///< Pool had expected calls.
  bool dynamism_active = false;
  std::size_t leaf_parents = 0;
};

void BuildPools(Workspace& ws) {
  const ParentAssignment* pinned = ws.opts->pinned;
  std::size_t outgoing = 0;
  for (const auto& [callee, spans] : ws.view->outgoing_by_callee) {
    outgoing += spans.size();
  }
  ws.span_by_id.reserve(outgoing);
  // Pool ids are assigned in encounter order; nothing keys on the numeric
  // order of ids (iteration that must be deterministic across runs walks
  // the sorted ids map instead), so no sorted intermediate is needed.
  for (const auto& [callee, spans] : ws.view->outgoing_by_callee) {
    int pool_id = -1;
    const std::string* pool_ep = nullptr;
    for (const Span* s : spans) {
      ws.span_by_id[s->id] = s;
      // Children pinned by instrumentation are withheld from the shared
      // pools; only their pinned parent may use them (via ParentTask::
      // forced).
      if (pinned != nullptr) {
        auto it = pinned->find(s->id);
        if (it != pinned->end() && it->second != kInvalidSpanId) {
          ws.pinned_children[it->second].push_back(s);
          continue;
        }
      }
      // Pools are endpoint-partitioned within this callee group; memoize
      // the previous endpoint's id since spans often arrive in runs.
      if (pool_ep == nullptr || s->endpoint != *pool_ep) {
        pool_id = ws.pools.Intern(PoolKey{callee, s->endpoint});
        pool_ep = &s->endpoint;
      }
      ws.pools.spans[static_cast<std::size_t>(pool_id)].push_back(s);
    }
  }
}

void BuildTasks(Workspace& ws) {
  for (const Span* parent : ws.view->incoming) {
    const InvocationPlan* plan = ws.graph->PlanFor(
        HandlerKey{parent->callee, parent->endpoint});
    if (plan == nullptr || plan->Empty()) {
      ++ws.leaf_parents;
      continue;
    }
    ParentTask task;
    task.span = parent;
    task.plan = plan;
    task.positions = plan->Positions();
    for (const auto& pos : task.positions) {
      const BackendCall& call = plan->At(pos);
      task.position_pool.push_back(
          ws.pools.Intern(PoolKey{call.service, call.endpoint}));
    }
    // Slot pinned children into their plan positions (first matching free
    // position, in child send order).
    if (auto pit = ws.pinned_children.find(parent->id);
        pit != ws.pinned_children.end()) {
      task.forced.assign(task.positions.size(), nullptr);
      for (const Span* child : pit->second) {
        const int child_pool =
            ws.pools.Find(PoolKey{child->callee, child->endpoint});
        for (std::size_t i = 0; i < task.positions.size(); ++i) {
          if (task.forced[i] == nullptr &&
              task.position_pool[i] == child_pool) {
            task.forced[i] = child;
            break;
          }
        }
      }
    }
    ws.tasks.push_back(std::move(task));
    ws.task_spans.push_back(parent);
  }
  // Interning is done; pool-span vectors will not move again, so position
  // pool pointers and expected-call counters can be filled in.
  ws.expected_calls.assign(ws.pools.size(), 0);
  for (ParentTask& task : ws.tasks) {
    for (std::size_t i = 0; i < task.positions.size(); ++i) {
      const int id = task.position_pool[i];
      const auto& pool = ws.pools.spans[static_cast<std::size_t>(id)];
      task.pools.push_back(pool.empty() ? &EmptyPool() : &pool);
      // Pinned positions no longer draw on the shared pools.
      if (task.forced.empty() || task.forced[i] == nullptr) {
        ++ws.expected_calls[static_cast<std::size_t>(id)];
      }
    }
  }
}

void DetectDynamism(Workspace& ws) {
  bool any_optional = false;
  for (const ParentTask& t : ws.tasks) {
    for (const auto& pos : t.positions) {
      if (t.plan->At(pos).optional) any_optional = true;
    }
  }
  ws.skip_budget.assign(ws.pools.size(), 0);
  ws.skip_rate.assign(ws.pools.size(), 0.0);
  ws.has_rate.assign(ws.pools.size(), 0);
  const double sampling = ws.opts->params.sampling_rate;
  for (std::size_t p = 0; p < ws.pools.size(); ++p) {
    const std::size_t expected = ws.expected_calls[p];
    if (expected == 0) continue;
    const std::size_t observed = ws.pools.spans[p].size();
    std::size_t budget = expected > observed ? expected - observed : 0;
    if (sampling < 1.0) {
      // Under span sampling, missing parents and missing children cancel
      // in expected-vs-observed counts, starving the budget exactly when
      // skips are most needed. Floor it at the expected number of
      // sampled-out children so absences stay explainable.
      const auto floor_budget = static_cast<std::size_t>(
          std::ceil(static_cast<double>(expected) * (1.0 - sampling)));
      budget = std::max(budget, floor_budget);
    }
    ws.skip_budget[p] = budget;
    ws.skip_rate[p] =
        static_cast<double>(budget) / static_cast<double>(expected);
    ws.has_rate[p] = 1;
    if (budget > 0) ws.dynamism_active = true;
  }
  if (any_optional) ws.dynamism_active = true;
  if (sampling < 1.0) ws.dynamism_active = true;
  if (!ws.opts->enable_dynamism) ws.dynamism_active = false;
}

void EnumerateAll(Workspace& ws) {
  EnumerationOptions eopts;
  eopts.use_order_constraints = ws.opts->use_order_constraints;
  eopts.allow_all_skips = ws.dynamism_active;
  eopts.slack = ws.opts->params.constraint_slack_ns;
  eopts.require_thread_match =
      ws.opts->thread_affinity == OptimizerOptions::ThreadAffinity::kHard;
  // Per-edge slack: resolve each task's plan positions against the edge
  // map once, outside the parallel region (the DFS then indexes a flat
  // vector). Empty map keeps the uniform-slack fast path.
  if (!ws.opts->params.edge_slack_ns.empty()) {
    for (ParentTask& task : ws.tasks) {
      task.position_slack.resize(task.positions.size());
      for (std::size_t i = 0; i < task.positions.size(); ++i) {
        task.position_slack[i] = ws.opts->params.SlackFor(
            task.span->callee, task.plan->At(task.positions[i]).service);
      }
    }
  }
  // Tasks are independent: each writes only its own slots (concurrent
  // reads of the shared pools and span index are safe). Work counters go
  // to per-task slots and are folded into the registry afterwards, in
  // index order, so totals are identical for any pool size.
  struct ArenaTaskStats {
    std::size_t used = 0;     ///< Bytes this task drew from its arena.
    std::uint64_t allocs = 0; ///< Allocate() calls this task issued.
  };
  std::vector<EnumerationStats> stats(ws.tasks.size());
  std::vector<ArenaTaskStats> arena_stats(ws.tasks.size());
  ThreadPool::Run(ws.pool, ws.tasks.size(), [&](std::size_t t) {
    ParentTask& task = ws.tasks[t];
    EnumerationOptions task_opts = eopts;
    if (!task.forced.empty()) task_opts.forced = &task.forced;
    if (!task.position_slack.empty()) {
      task_opts.position_slack = &task.position_slack;
    }
    task_opts.positions = &task.positions;
    task_opts.stats = &stats[t];
    // The DFS fills the flat resolved-pointer buffer as a side product of
    // emitting each mapping, so no id -> span resolution pass is needed.
    task_opts.resolved_out = &task.resolved;
    // One warmed-up arena per worker thread, rewound between tasks: after
    // the first few tasks the DFS scratch never touches the heap again.
    thread_local ArenaAllocator arena;
    arena.Reset();
    const std::uint64_t allocs_before = arena.allocations();
    task_opts.scratch = &arena;
    task.all_candidates =
        EnumerateCandidates(*task.span, *task.plan, task.pools, task_opts);
    // The gap table is model-free, so it is built once here and reused by
    // every ranking iteration's batched scoring pass.
    task.gap_table = BuildGapTable(
        *task.span, task.positions, task.resolved.data(),
        task.all_candidates.size(), eopts.use_order_constraints);
    arena_stats[t] = {arena.used(), arena.allocations() - allocs_before};
  });

  const obs::PipelineMetrics& pm = *ws.pm;
  EnumerationStats total;
  std::uint64_t candidates = 0;
  std::uint64_t arena_bytes = 0, arena_allocs = 0;
  for (std::size_t t = 0; t < ws.tasks.size(); ++t) {
    total.dfs_nodes += stats[t].dfs_nodes;
    total.branch_limited += stats[t].branch_limited;
    total.total_capped += stats[t].total_capped;
    candidates += ws.tasks[t].all_candidates.size();
    pm.candidates_per_parent.Observe(ws.tasks[t].all_candidates.size());
    arena_bytes += arena_stats[t].used;
    arena_allocs += arena_stats[t].allocs;
  }
  pm.candidates.Inc(candidates);
  pm.enum_dfs_nodes.Inc(total.dfs_nodes);
  pm.enum_branch_limited.Inc(total.branch_limited);
  pm.enum_total_capped.Inc(total.total_capped);
  pm.arena_scratch_bytes.Inc(arena_bytes);
  pm.arena_allocations.Inc(arena_allocs);
}

// ---------------------------------------------------------------------------
// Seed distributions (§4.1 step 3 first iteration; §4.2 step 4 under
// dynamism).
// ---------------------------------------------------------------------------

/// Widened copy of one pool timestamp column, in the pool's
/// (client_send-sorted) order.
std::vector<double> PoolSeries(const Workspace& ws, const ParentTask& task,
                               std::size_t pos_idx, bool response_side) {
  const auto id = static_cast<std::size_t>(task.position_pool[pos_idx]);
  const std::vector<TimeNs>& col =
      response_side ? ws.pools.client_recv[id] : ws.pools.client_send[id];
  return std::vector<double>(col.begin(), col.end());
}

/// Series of enabling-event proxies per position: the parents' request
/// arrivals for stage 0, the previous stage's first pool completions for
/// later stages.
std::vector<double> TriggerSeries(const Workspace& ws,
                                  const ParentTask& sample_task,
                                  std::size_t pos_idx,
                                  const std::vector<const Span*>& handler_parents) {
  const auto& pos = sample_task.positions[pos_idx];
  if (pos.stage == 0) {
    std::vector<double> out;
    out.reserve(handler_parents.size());
    for (const Span* p : handler_parents) {
      out.push_back(static_cast<double>(p->server_recv));
    }
    return out;
  }
  // Find the first position of the previous stage and use its pool's
  // completion times as the enabling-event proxy.
  for (std::size_t i = 0; i < sample_task.positions.size(); ++i) {
    if (sample_task.positions[i].stage == pos.stage - 1) {
      return PoolSeries(ws, sample_task, i, /*response_side=*/true);
    }
  }
  return {};
}

/// Paper-style seeds: mean by difference of means, stddev via R bucket
/// means scaled by sqrt(R) (central limit theorem).
void SeedFromUnmatched(const Workspace& ws, DelayModel& model) {
  // Group parents by handler.
  std::map<PoolKey, std::vector<const Span*>> handler_parents;
  std::map<PoolKey, const ParentTask*> handler_task;
  for (const ParentTask& t : ws.tasks) {
    const PoolKey key{t.span->callee, t.span->endpoint};
    handler_parents[key].push_back(t.span);
    handler_task[key] = &t;
  }

  const std::size_t buckets = ws.opts->params.seed_buckets;
  for (const auto& [hkey, parents] : handler_parents) {
    const ParentTask& task = *handler_task.at(hkey);
    for (std::size_t i = 0; i < task.positions.size(); ++i) {
      const auto& pos = task.positions[i];
      std::vector<double> a = TriggerSeries(ws, task, i, parents);
      std::vector<double> b = PoolSeries(ws, task, i, /*response_side=*/false);
      if (a.empty() || b.empty()) continue;
      const DelayKey key{hkey.first, hkey.second,
                         static_cast<int>(pos.stage),
                         static_cast<int>(pos.call)};
      model.SetSeed(key, Gaussian::SeedFromUnmatched(a, b, buckets));
    }
    // Response gap: last stage's completions -> parent response sends.
    if (!task.positions.empty()) {
      const std::size_t last_stage = task.positions.back().stage;
      for (std::size_t i = 0; i < task.positions.size(); ++i) {
        if (task.positions[i].stage != last_stage ||
            task.positions[i].call != 0) {
          continue;
        }
        std::vector<double> a = PoolSeries(ws, task, i, /*response_side=*/true);
        std::vector<double> b;
        for (const Span* p : parents) {
          b.push_back(static_cast<double>(p->server_send));
        }
        if (a.empty() || b.empty()) break;
        model.SetSeed(DelayKey::ResponseGap(hkey.first, hkey.second),
                      Gaussian::SeedFromUnmatched(a, b, buckets));
        break;
      }
    }
  }
}

/// WAP5-style seeds for dynamism (§4.2 step 4): pair each child with the
/// most recent parent whose arrival precedes the child's departure, fit
/// Gaussians on the resulting gaps.
void SeedFromWap5(const Workspace& ws, DelayModel& model) {
  // Tasks eligible for each pool (they call that backend), with the first
  // matching plan position; task order == start order, so each list is
  // sorted by parent arrival.
  struct Caller {
    std::size_t task;
    int stage;
    int call;
  };
  std::vector<std::vector<Caller>> callers(ws.pools.size());
  for (std::size_t t = 0; t < ws.tasks.size(); ++t) {
    const ParentTask& task = ws.tasks[t];
    for (std::size_t i = 0; i < task.positions.size(); ++i) {
      const int p = task.position_pool[i];
      bool first = true;  // Attribute to the first matching position only.
      for (std::size_t j = 0; j < i; ++j) {
        if (task.position_pool[j] == p) {
          first = false;
          break;
        }
      }
      if (!first) continue;
      callers[static_cast<std::size_t>(p)].push_back(
          Caller{t, static_cast<int>(task.positions[i].stage),
                 static_cast<int>(task.positions[i].call)});
    }
  }

  // Gap samples per delay key, via most-recent-parent attribution. Pools
  // iterate in key order and children in send order, so sample order (and
  // the resulting fits) match the previous full-scan implementation.
  std::map<DelayKey, std::vector<double>> samples;
  for (const auto& [pkey, pid] : ws.pools.ids) {
    (void)pkey;
    const auto p = static_cast<std::size_t>(pid);
    const std::vector<TimeNs>& sends = ws.pools.client_send[p];
    const std::vector<TimeNs>& recvs = ws.pools.client_recv[p];
    const auto& cs = callers[p];
    if (sends.empty() || cs.empty()) continue;
    // Children are sorted by client_send, so the cursor over eligible
    // parents only moves forward; the backward walk finds the most recent
    // parent whose response window still covers the child.
    std::size_t hi = 0;
    for (std::size_t ci = 0; ci < sends.size(); ++ci) {
      const TimeNs child_send = sends[ci];
      const TimeNs child_recv = recvs[ci];
      while (hi < cs.size() &&
             ws.tasks[cs[hi].task].span->server_recv <= child_send) {
        ++hi;
      }
      const Caller* best = nullptr;
      for (std::size_t k = hi; k-- > 0;) {
        if (ws.tasks[cs[k].task].span->server_send >= child_recv) {
          best = &cs[k];
          break;
        }
      }
      if (best == nullptr) continue;
      const Span* parent = ws.tasks[best->task].span;
      samples[DelayKey{parent->callee, parent->endpoint, best->stage,
                       best->call}]
          .push_back(static_cast<double>(child_send - parent->server_recv));
    }
  }
  for (const auto& [key, gaps] : samples) {
    model.SetSeed(key, Gaussian::Fit(gaps));
  }
}

DelayModel BuildSeeds(const Workspace& ws) {
  DelayModel model;
  // Unmatched (difference-of-means) seeds everywhere first; under dynamism
  // the WAP5-style most-recent-parent fits then overwrite the per-position
  // seeds, which the unmatched estimator skews when pools are depleted by
  // skipped calls (§4.2 step 4). Response-gap seeds stay unmatched-based.
  SeedFromUnmatched(ws, model);
  if (ws.dynamism_active) {
    SeedFromWap5(ws, model);
  }
  return model;
}

// ---------------------------------------------------------------------------
// Ranking, joint optimization, iteration.
// ---------------------------------------------------------------------------

/// Per-batch skip rates by pool id; `any` false means "use the container
/// rates".
struct BatchRates {
  std::vector<double> rate;
  std::vector<char> has;
  bool any = false;
};

/// Per-batch skip-budget allocation by water-filling (§4.2 steps 2-3),
/// turned into per-batch skip rates used during scoring.
std::vector<BatchRates> AllocateSkips(const Workspace& ws,
                                      const std::vector<Batch>& batches) {
  std::vector<BatchRates> rates(batches.size());
  if (!ws.dynamism_active) return rates;

  // Batch time windows, hoisted out of the per-pool loop.
  std::vector<TimeNs> win_lo(batches.size());
  std::vector<TimeNs> win_hi(batches.size());
  for (std::size_t b = 0; b < batches.size(); ++b) {
    TimeNs lo = std::numeric_limits<TimeNs>::max();
    TimeNs hi = std::numeric_limits<TimeNs>::min();
    for (std::size_t t = batches[b].begin; t < batches[b].end; ++t) {
      lo = std::min(lo, ws.tasks[t].span->server_recv);
      hi = std::max(hi, ws.tasks[t].span->server_send);
    }
    win_lo[b] = lo;
    win_hi[b] = hi;
  }

  for (std::size_t p = 0; p < ws.pools.size(); ++p) {
    const std::size_t budget = ws.skip_budget[p];
    if (budget == 0) continue;
    // Per-batch max quota Q = X - Y: positions needing the pool minus pool
    // spans confined to the batch's time window.
    std::vector<std::size_t> quotas(batches.size(), 0);
    std::vector<std::size_t> demand(batches.size(), 0);
    const std::vector<TimeNs>& sends = ws.pools.client_send[p];
    const std::vector<TimeNs>& recvs = ws.pools.client_recv[p];
    for (std::size_t b = 0; b < batches.size(); ++b) {
      std::size_t x = 0;
      for (std::size_t t = batches[b].begin; t < batches[b].end; ++t) {
        for (const int k : ws.tasks[t].position_pool) {
          if (k == static_cast<int>(p)) ++x;
        }
      }
      std::size_t y = 0;
      // Pool spans are sorted by client_send: jump to the window start and
      // stop once past its end (client_recv <= hi implies
      // client_send <= hi).
      const auto first =
          std::lower_bound(sends.begin(), sends.end(), win_lo[b]);
      for (auto i = static_cast<std::size_t>(first - sends.begin());
           i < sends.size(); ++i) {
        if (sends[i] > win_hi[b]) break;
        if (recvs[i] <= win_hi[b]) ++y;
      }
      demand[b] = x;
      quotas[b] = x > y ? x - y : 0;
    }
    const std::vector<std::size_t> alloc = WaterFill(budget, quotas);
    for (std::size_t b = 0; b < batches.size(); ++b) {
      if (demand[b] == 0) continue;
      BatchRates& br = rates[b];
      if (!br.any) {
        br.rate.assign(ws.pools.size(), 0.0);
        br.has.assign(ws.pools.size(), 0);
        br.any = true;
      }
      br.rate[p] = static_cast<double>(alloc[b]) /
                   static_cast<double>(demand[b]);
      br.has[p] = 1;
    }
  }
  return rates;
}

/// Builds the task's scoring context for the current delay model: the
/// per-position table (discrete skip/keep terms from the batch or
/// container rates, plus the delay distributions) and the response-gap
/// view. Ranking and the explain capture both score through it, so the
/// drill-down reproduces the ranked scores exactly. O(positions) per task
/// -- tiny next to scoring.
ScoringContext TaskScoringContext(const Workspace& ws, ParentTask& task,
                                  const BatchRates& batch,
                                  const DelayModel& model) {
  task.pos_scores.resize(task.positions.size());
  for (std::size_t i = 0; i < task.positions.size(); ++i) {
    ScoringContext::PositionScore& ps = task.pos_scores[i];
    ps.skip_lp = kDefaultSkipLogProb;
    ps.keep_lp = kDefaultKeepLogProb;
    const std::size_t p = static_cast<std::size_t>(task.position_pool[i]);
    const bool known = batch.any ? batch.has[p] != 0 : ws.has_rate[p] != 0;
    if (known) {
      const double raw = batch.any ? batch.rate[p] : ws.skip_rate[p];
      const double rate = std::clamp(raw, 1e-4, 1.0 - 1e-4);
      ps.skip_lp = std::log(rate);
      ps.keep_lp = std::log(1.0 - rate);
    } else {
      // Water-filled rates already reflect sampled-out children via the
      // floored budget (DetectDynamism); only the defaults need it.
      AdjustForSampling(ws.opts->params.sampling_rate, ps.skip_lp,
                        ps.keep_lp);
    }
    const DelayModel::DistView view =
        model.View(DelayKey{task.span->callee, task.span->endpoint,
                            static_cast<int>(task.positions[i].stage),
                            static_cast<int>(task.positions[i].call)});
    ps.dist = view.mixture;
    ps.max_log_pdf = view.max_log_pdf;
  }

  ScoringContext ctx;
  ctx.use_order_constraints = ws.opts->use_order_constraints;
  ctx.thread_bonus =
      ws.opts->thread_affinity == OptimizerOptions::ThreadAffinity::kSoft;
  ctx.positions = &task.positions;
  ctx.position_scores = &task.pos_scores;
  ctx.response = model.View(
      DelayKey::ResponseGap(task.span->callee, task.span->endpoint));
  return ctx;
}

/// Scores and ranks each task's candidates, keeping the top K. Skip rates
/// come from the task's batch allocation when water-filling granted that
/// batch budget, falling back to the container-wide rates. When
/// `dirty_handlers` is non-null (iterations >= 2), only tasks whose
/// handler owns a refitted delay key are re-scored -- every score of an
/// untouched handler is unchanged by construction, so its ranking stands.
void RankCandidates(Workspace& ws, const DelayModel& model,
                    const std::vector<std::size_t>& batch_of_task,
                    const std::vector<BatchRates>& batch_rates,
                    const std::set<HandlerPair>* dirty_handlers,
                    std::vector<ParentResult>& results) {
  const std::size_t top_k = ws.opts->params.max_candidates_per_span;
  ThreadPool::Run(ws.pool, ws.tasks.size(), [&](std::size_t t) {
    ParentTask& task = ws.tasks[t];
    if (dirty_handlers != nullptr &&
        dirty_handlers->count(
            HandlerPair{task.span->callee, task.span->endpoint}) == 0) {
      ws.pm->rank_tasks_skipped.Inc();
      return;  // Scores unchanged since last iteration.
    }
    ws.pm->rank_tasks.Inc();
    const ScoringContext ctx =
        TaskScoringContext(ws, task, batch_rates[batch_of_task[t]], model);

    // One batched LogPdf per gap-table column instead of one per
    // (candidate, position); scores accumulate in ScoreMapping's exact
    // floating-point order, so the explain drill-down reproduces them.
    const std::size_t n = task.all_candidates.size();
    task.scores.resize(n);
    task.lp_scratch.resize(n);
    ScoreCandidatesBatch(task.gap_table, ctx, task.scores, task.lp_scratch);
    task.order.resize(n);
    for (std::size_t c = 0; c < n; ++c) {
      task.order[c] = {task.scores[c], static_cast<std::uint32_t>(c)};
    }
    const std::size_t keep = std::min(top_k, n);
    std::partial_sort(
        task.order.begin(), task.order.begin() + static_cast<long>(keep),
        task.order.end(),
        [&task](const std::pair<double, std::uint32_t>& a,
                const std::pair<double, std::uint32_t>& b) {
          if (a.first != b.first) return a.first > b.first;
          return task.all_candidates[a.second].children <
                 task.all_candidates[b.second].children;  // Deterministic.
        });
    // Score margin between the two best candidates, in milli log-likelihood
    // units (integer so merged histogram sums stay order-independent).
    if (keep >= 2) {
      const double margin = task.order[0].first - task.order[1].first;
      ws.pm->rank_margin_milli.Observe(
          static_cast<std::uint64_t>(std::max(margin, 0.0) * 1e3));
    }
    ParentResult& r = results[t];
    r.ranked.clear();
    r.ranked.reserve(keep);
    for (std::size_t j = 0; j < keep; ++j) {
      CandidateMapping m = task.all_candidates[task.order[j].second];
      m.score = task.order[j].first;
      r.ranked.push_back(std::move(m));
    }
  });
}

/// A candidate kept for the joint optimization: (task, ranked index).
struct SolveVertex {
  std::uint32_t task;
  std::uint32_t cand;
  double score;
};

template <typename T>
using ArenaVec = std::vector<T, ArenaStlAllocator<T>>;

/// Reusable per-run buffers for SolveBatch, arena-backed: consecutive
/// batches of a run bump-allocate from one monotonic arena and reuse
/// capacity instead of hitting the heap per structure per batch. One
/// instance (and one arena) per run keeps parallel run solving race-free.
/// MisProblem stays heap-backed -- it is the solver's public API type.
struct SolveScratch {
  explicit SolveScratch(ArenaAllocator* arena)
      : vertices(ArenaStlAllocator<SolveVertex>(arena)),
        task_ranges(
            ArenaStlAllocator<std::pair<std::size_t, std::size_t>>(arena)),
        child_verts(ArenaStlAllocator<std::pair<SpanId, std::uint32_t>>(arena)),
        edges(ArenaStlAllocator<std::uint64_t>(arena)),
        degree(ArenaStlAllocator<std::uint32_t>(arena)) {}

  ArenaVec<SolveVertex> vertices;
  /// Vertex ranges per task, for the same-task conflict cliques.
  ArenaVec<std::pair<std::size_t, std::size_t>> task_ranges;
  /// Inverted child index: (child span, vertex) pairs, sorted.
  ArenaVec<std::pair<SpanId, std::uint32_t>> child_verts;
  /// Conflict edges packed as (i << 32) | j with i < j.
  ArenaVec<std::uint64_t> edges;
  ArenaVec<std::uint32_t> degree;
  MisProblem problem;
};

/// Joint optimization of one batch via max-weight independent set
/// (§4.1 step 5). Candidates touching already-used children are excluded;
/// chosen children are added to `used`.
void SolveBatch(const Workspace& ws, const Batch& batch,
                std::vector<ParentResult>& results,
                std::unordered_set<SpanId>& used, SolveScratch& scratch,
                std::size_t& mis_fallbacks,
                ContainerResult::BatchStats* qstats) {
  if (qstats != nullptr) *qstats = ContainerResult::BatchStats{};
  ArenaVec<SolveVertex>& vertices = scratch.vertices;
  vertices.clear();
  scratch.task_ranges.clear();
  for (std::size_t t = batch.begin; t < batch.end; ++t) {
    const auto& ranked = results[t].ranked;
    const std::size_t start = vertices.size();
    for (std::size_t c = 0; c < ranked.size(); ++c) {
      bool conflict = false;
      for (SpanId id : ranked[c].children) {
        if (id != kSkippedChild && used.count(id) > 0) {
          conflict = true;
          break;
        }
      }
      if (!conflict) {
        vertices.push_back({static_cast<std::uint32_t>(t),
                            static_cast<std::uint32_t>(c),
                            ranked[c].score});
      }
    }
    if (vertices.size() > start) {
      scratch.task_ranges.push_back({start, vertices.size()});
    }
  }
  if (vertices.empty()) return;

  double min_s = vertices[0].score, max_s = vertices[0].score;
  for (const SolveVertex& v : vertices) {
    min_s = std::min(min_s, v.score);
    max_s = std::max(max_s, v.score);
  }
  // Weights are dominated by the number of *filled* positions so the joint
  // optimization maximizes the children consumed across the batch (the
  // role the paper's phantom skip spans play in its MIS encoding); the
  // normalized timing scores only break ties among equal-fill solutions.
  const double range = max_s - min_s;
  const double big = (range + 1.0) * static_cast<double>(batch.size() + 1);

  MisProblem& problem = scratch.problem;
  problem.weights.clear();
  problem.weights.reserve(vertices.size());
  for (const SolveVertex& v : vertices) {
    const CandidateMapping& m = results[v.task].ranked[v.cand];
    const double filled =
        static_cast<double>(m.children.size() - m.skips);
    problem.weights.push_back((filled + 1.0) * big + (v.score - min_s) +
                              1.0);
  }

  // Conflict edges via an inverted child index: only vertex pairs that
  // actually share a child generate edges, replacing the all-pairs
  // children scan (O(V^2 * |children|^2)) with O(V * |children|) index
  // construction plus output-sensitive edge generation. Edges are packed
  // (i, j) with i < j, sorted and deduped in one pass.
  ArenaVec<std::uint64_t>& edges = scratch.edges;
  edges.clear();
  const auto pack = [](std::uint32_t i, std::uint32_t j) {
    return (static_cast<std::uint64_t>(i) << 32) | j;
  };
  for (const auto& [begin, end] : scratch.task_ranges) {
    for (std::size_t i = begin; i < end; ++i) {
      for (std::size_t j = i + 1; j < end; ++j) {
        edges.push_back(pack(static_cast<std::uint32_t>(i),
                             static_cast<std::uint32_t>(j)));
      }
    }
  }
  ArenaVec<std::pair<SpanId, std::uint32_t>>& cv = scratch.child_verts;
  cv.clear();
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    const CandidateMapping& m = results[vertices[i].task].ranked[vertices[i].cand];
    for (SpanId id : m.children) {
      if (id != kSkippedChild) cv.push_back({id, static_cast<std::uint32_t>(i)});
    }
  }
  std::sort(cv.begin(), cv.end());
  for (std::size_t lo = 0; lo < cv.size();) {
    std::size_t hi = lo + 1;
    while (hi < cv.size() && cv[hi].first == cv[lo].first) ++hi;
    for (std::size_t a = lo; a < hi; ++a) {
      for (std::size_t b = a + 1; b < hi; ++b) {
        if (vertices[cv[a].second].task != vertices[cv[b].second].task) {
          edges.push_back(pack(cv[a].second, cv[b].second));
        }
      }
    }
    lo = hi;
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  // Filling adjacency from the sorted unique edge list emits every list in
  // ascending order -- exactly what the old all-pairs scan produced, so the
  // MWIS input (and thus the solution) is identical.
  const std::size_t nv = vertices.size();
  scratch.degree.assign(nv, 0);
  for (const std::uint64_t e : edges) {
    ++scratch.degree[e >> 32];
    ++scratch.degree[e & 0xffffffffu];
  }
  problem.adjacency.resize(nv);
  for (std::size_t v = 0; v < nv; ++v) {
    problem.adjacency[v].clear();
    problem.adjacency[v].reserve(scratch.degree[v]);
  }
  for (const std::uint64_t e : edges) {
    const auto i = static_cast<int>(e >> 32);
    const auto j = static_cast<int>(e & 0xffffffffu);
    problem.adjacency[static_cast<std::size_t>(i)].push_back(j);
    problem.adjacency[static_cast<std::size_t>(j)].push_back(i);
  }

  const MisSolution sol =
      SolveMwis(problem, ws.opts->params.mis_node_budget);
  ws.pm->mwis_solves.Inc();
  ws.pm->mwis_vertices.Inc(nv);
  ws.pm->mwis_edges.Inc(edges.size());
  ws.pm->mwis_bb_nodes.Inc(sol.nodes);
  if (!sol.optimal) {
    ws.pm->mwis_fallbacks.Inc();
    ++mis_fallbacks;
  }
  if (qstats != nullptr) {
    // Observation only: the extra greedy solve reads `problem` and never
    // feeds back into the chosen assignment, preserving bit-identical
    // output with quality collection on or off.
    qstats->solved = true;
    qstats->joint = true;
    qstats->optimal = sol.optimal;
    qstats->chosen_weight = sol.weight;
    qstats->greedy_weight = SolveMwisGreedy(problem).weight;
  }
  for (int vi : sol.chosen) {
    const SolveVertex& v = vertices[static_cast<std::size_t>(vi)];
    results[v.task].chosen = static_cast<int>(v.cand);
    for (SpanId id : results[v.task].ranked[v.cand].children) {
      if (id != kSkippedChild) used.insert(id);
    }
  }
}

/// Greedy assignment (ablation: no joint optimization): each span takes its
/// best-ranked conflict-free candidate, in arrival order.
void SolveGreedy(const Workspace& ws, std::vector<ParentResult>& results) {
  std::unordered_set<SpanId> used;
  for (std::size_t t = 0; t < ws.tasks.size(); ++t) {
    auto& r = results[t];
    for (std::size_t c = 0; c < r.ranked.size(); ++c) {
      bool conflict = false;
      for (SpanId id : r.ranked[c].children) {
        if (id != kSkippedChild && used.count(id) > 0) {
          conflict = true;
          break;
        }
      }
      if (conflict) continue;
      r.chosen = static_cast<int>(c);
      for (SpanId id : r.ranked[c].children) {
        if (id != kSkippedChild) used.insert(id);
      }
      break;
    }
  }
}

/// Resolves a mapping's children to spans (cold paths only; the ranking
/// hot path uses ParentTask::resolved).
std::vector<const Span*> Resolve(const Workspace& ws,
                                 const CandidateMapping& m) {
  std::vector<const Span*> out;
  out.reserve(m.children.size());
  for (SpanId id : m.children) {
    out.push_back(id == kSkippedChild ? nullptr : ws.span_by_id.at(id));
  }
  return out;
}

bool SameMixture(const GaussianMixture& a, const GaussianMixture& b) {
  if (a.num_components() != b.num_components()) return false;
  for (std::size_t i = 0; i < a.num_components(); ++i) {
    const GmmComponent& ca = a.components()[i];
    const GmmComponent& cb = b.components()[i];
    if (ca.weight != cb.weight || ca.mean != cb.mean ||
        ca.stddev != cb.stddev) {
      return false;
    }
  }
  return true;
}

/// Refits the delay model from the current chosen mappings (§4.1 step 6)
/// and returns the keys whose distribution actually changed. Keys whose
/// gap samples are identical to the previous fit are skipped outright
/// (FitGmmBicSweep is deterministic, so the fit would reproduce the
/// installed mixture); `last_fitted` tracks the samples behind each
/// installed fit. With a `prior`, keys whose gaps pass the drift check
/// against it take its mixture instead of a BIC sweep.
std::vector<DelayKey> RefitModel(
    const Workspace& ws, const std::vector<ParentResult>& results,
    DelayModel& model,
    std::map<DelayKey, std::vector<double>>& last_fitted,
    const DelayModel* prior) {
  std::map<DelayKey, std::vector<double>> gaps;
  for (std::size_t t = 0; t < ws.tasks.size(); ++t) {
    const ParentResult& r = results[t];
    if (!r.Mapped()) continue;
    const CandidateMapping& m = r.ranked[static_cast<std::size_t>(r.chosen)];
    const auto samples =
        ExtractGaps(*ws.tasks[t].span, *ws.tasks[t].plan, Resolve(ws, m),
                    ws.opts->use_order_constraints);
    for (const GapSample& s : samples) gaps[s.key].push_back(s.gap);
  }

  GmmFitOptions fit = ws.opts->gmm;
  fit.max_components = ws.opts->params.max_gmm_components;
  fit.obs = &ws.pm->gmm;

  // Keys the prior still fits: DetectDrift skips keys with too few
  // samples or no prior distribution, so those stay on the EM path.
  std::set<DelayKey> fits_prior;
  if (prior != nullptr) {
    for (const DriftFinding& f : DetectDrift(*prior, gaps)) {
      if (!f.drifted) fits_prior.insert(f.key);
    }
  }

  struct Work {
    const DelayKey* key;
    std::vector<double>* samples;
    const GaussianMixture* reuse;  ///< Prior mixture to install, or null.
    GaussianMixture fitted;
  };
  std::vector<Work> work;
  std::uint64_t reused = 0;
  for (auto& [key, samples] : gaps) {
    if (samples.size() < kMinRefitSamples) continue;
    auto it = last_fitted.find(key);
    if (it != last_fitted.end() && it->second == samples) continue;
    const GaussianMixture* reuse =
        fits_prior.count(key) > 0 ? prior->Find(key) : nullptr;
    if (reuse != nullptr) ++reused;
    work.push_back(Work{&key, &samples, reuse, {}});
  }
  ws.pm->gmm.fits_reused.Inc(reused);
  // Each fit is deterministic given its samples, so fitting in parallel
  // and installing in key order gives the same model as the serial path.
  ThreadPool::Run(ws.pool, work.size(), [&](std::size_t i) {
    work[i].fitted = work[i].reuse != nullptr
                         ? *work[i].reuse
                         : FitGmmBicSweep(*work[i].samples, fit);
  });

  std::vector<DelayKey> dirty;
  for (Work& w : work) {
    const GaussianMixture* prev = model.Find(*w.key);
    const bool changed = prev == nullptr || !SameMixture(*prev, w.fitted);
    last_fitted[*w.key] = std::move(*w.samples);
    if (changed) {
      model.Install(*w.key, std::move(w.fitted));
      dirty.push_back(*w.key);
    }
  }
  ws.pm->delay_keys_refit.Inc(dirty.size());
  return dirty;
}

/// Fills the explain drill-down for the task matching
/// options.explain_parent, against the final delay model (identical to the
/// model behind the last ranking, so recomputed scores match the ranked
/// ones bit-for-bit). Cold path: runs once per container, after the
/// optimization, and only when the operator asked for an explanation.
void FillExplain(Workspace& ws, const std::vector<ParentResult>& results,
                 const std::vector<std::size_t>& batch_of_task,
                 const std::vector<Batch>& batches,
                 const std::vector<BatchRates>& batch_rates,
                 const DelayModel& model, ExplainCapture& out) {
  std::size_t t = ws.tasks.size();
  for (std::size_t i = 0; i < ws.tasks.size(); ++i) {
    if (ws.tasks[i].span->id == ws.opts->explain_parent) {
      t = i;
      break;
    }
  }
  if (t == ws.tasks.size()) return;  // Another container may own it.
  ParentTask& task = ws.tasks[t];
  const ParentResult& r = results[t];

  out.found = true;
  out.parent = task.span->id;
  out.service = task.span->callee;
  out.endpoint = task.span->endpoint;
  out.candidates_enumerated = task.all_candidates.size();
  out.batch = batch_of_task[t];
  out.batch_size = batches[out.batch].size();
  out.chosen_rank = r.chosen;

  // Rebuild the exact scoring context of the final ranking iteration.
  const ScoringContext ctx =
      TaskScoringContext(ws, task, batch_rates[batch_of_task[t]], model);

  // Re-rank all enumerated candidates with the ranking comparator, so the
  // explain rows carry the same ranks the optimizer saw.
  const std::size_t n = task.all_candidates.size();
  const std::size_t npos = task.positions.size();
  std::vector<std::pair<double, std::uint32_t>> order(n);
  for (std::size_t c = 0; c < n; ++c) {
    order[c] = {ScoreMapping(*task.span, task.resolved.data() + c * npos, ctx),
                static_cast<std::uint32_t>(c)};
  }
  std::sort(order.begin(), order.end(),
            [&task](const std::pair<double, std::uint32_t>& a,
                    const std::pair<double, std::uint32_t>& b) {
              if (a.first != b.first) return a.first > b.first;
              return task.all_candidates[a.second].children <
                     task.all_candidates[b.second].children;
            });

  const std::size_t cap = std::min(n, kExplainCandidateCap);
  out.candidates_shown = cap;
  for (std::size_t j = 0; j < cap; ++j) {
    const CandidateMapping& m = task.all_candidates[order[j].second];
    ExplainCandidate row;
    row.rank = j;
    row.score = order[j].first;
    row.chosen = r.chosen >= 0 && static_cast<std::size_t>(r.chosen) == j;
    row.in_top_k = j < r.ranked.size();
    row.skips = m.skips;
    row.children = m.children;
    row.breakdown =
        ExplainMapping(*task.span, *task.plan, Resolve(ws, m), ctx);
    out.candidates.push_back(std::move(row));
  }

  // Conflict neighbors: parents of the same batch whose kept candidates
  // contest at least one of this parent's kept candidate children.
  std::set<SpanId> mine;
  for (const CandidateMapping& m : r.ranked) {
    for (SpanId id : m.children) {
      if (id != kSkippedChild) mine.insert(id);
    }
  }
  const Batch& batch = batches[out.batch];
  for (std::size_t u = batch.begin; u < batch.end; ++u) {
    if (u == t) continue;
    std::set<SpanId> shared;
    for (const CandidateMapping& m : results[u].ranked) {
      for (SpanId id : m.children) {
        if (id != kSkippedChild && mine.count(id) > 0) shared.insert(id);
      }
    }
    if (shared.empty()) continue;
    ExplainConflict c;
    c.parent = ws.tasks[u].span->id;
    c.service = ws.tasks[u].span->callee;
    c.endpoint = ws.tasks[u].span->endpoint;
    c.shared_children = shared.size();
    out.conflicts.push_back(std::move(c));
  }
}

}  // namespace

void ContainerResult::AppendAssignment(ParentAssignment& out) const {
  for (const ParentResult& r : parents) {
    if (!r.Mapped()) continue;
    const CandidateMapping& m = r.ranked[static_cast<std::size_t>(r.chosen)];
    for (SpanId child : m.children) {
      if (child != kSkippedChild) out[child] = r.parent;
    }
  }
  for (const auto& [child, parent] : adopted) out[child] = parent;
}


ContainerResult OptimizeContainer(const ContainerView& view,
                                  const CallGraph& graph,
                                  const OptimizerOptions& options,
                                  const DelayModel* prior) {
  Workspace ws;
  ws.view = &view;
  ws.graph = &graph;
  ws.opts = &options;
  ws.pool = options.pool;
  static const obs::PipelineMetrics kInertMetrics;
  const obs::PipelineMetrics& pm =
      options.metrics != nullptr ? *options.metrics : kInertMetrics;
  ws.pm = &pm;
  const auto timer = [&pm](obs::Stage s) {
    const auto i = static_cast<std::size_t>(s);
    return obs::StageTimer(pm.stage_wall_ns[i], pm.stage_cpu_ns[i]);
  };

  ContainerResult result;
  result.instance = view.instance;

  {
    auto t = timer(obs::Stage::kSetup);
    BuildPools(ws);
    BuildTasks(ws);
    if (!ws.tasks.empty()) {
      DetectDynamism(ws);
      // Pool spans are final after task construction (interning done), so
      // the timestamp columns are copied once for the whole optimization.
      ws.pools.BuildColumns();
    }
  }
  result.leaf_parents = ws.leaf_parents;
  pm.parents.Inc(ws.tasks.size());
  pm.parents_leaf.Inc(ws.leaf_parents);
  if (ws.tasks.empty()) return result;

  if (ws.dynamism_active) {
    pm.dynamism_containers.Inc();
    std::uint64_t budget = 0;
    for (const std::size_t b : ws.skip_budget) budget += b;
    pm.skip_budget.Inc(budget);
  }

  {
    auto t = timer(obs::Stage::kEnumerate);
    EnumerateAll(ws);
  }

  BatchingStats bstats;
  std::vector<Batch> batches;
  {
    auto t = timer(obs::Stage::kBatch);
    batches =
        MakeBatches(ws.task_spans, options.params.max_batch_size, &bstats);
  }
  result.batches = bstats.batches;
  result.imperfect_batches = bstats.imperfect;
  pm.batches.Inc(bstats.batches);
  pm.batches_imperfect.Inc(bstats.imperfect);
  for (const Batch& b : batches) pm.batch_size.Observe(b.size());

  DelayModel model;
  {
    auto t = timer(obs::Stage::kSeed);
    model = BuildSeeds(ws);
  }
  pm.delay_keys_seeded.Inc(model.size());

  // Per-batch skip budgets (water-filling, §4.2) and task->batch lookup.
  std::vector<BatchRates> batch_rates;
  {
    auto t = timer(obs::Stage::kAllocate);
    batch_rates = AllocateSkips(ws, batches);
  }
  std::vector<std::size_t> batch_of_task(ws.tasks.size(), 0);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    for (std::size_t t = batches[b].begin; t < batches[b].end; ++t) {
      batch_of_task[t] = b;
    }
  }

  // Independent runs of batches: a trailing perfect cut ends a run, and
  // Theorem A.1 guarantees batches across such a cut share no candidate
  // children -- so runs can be solved concurrently against private `used`
  // sets with no cross-run exclusions lost. Imperfect (size-forced) cuts
  // keep their batches in one run, solved sequentially as before.
  std::vector<std::pair<std::size_t, std::size_t>> runs;
  std::size_t run_begin = 0;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    if (batches[b].perfect) {
      runs.push_back({run_begin, b + 1});
      run_begin = b + 1;
    }
  }
  if (run_begin < batches.size()) {
    runs.push_back({run_begin, batches.size()});
  }
  pm.solve_runs.Inc(runs.size());

  std::vector<ParentResult> results(ws.tasks.size());
  for (std::size_t t = 0; t < ws.tasks.size(); ++t) {
    results[t].parent = ws.tasks[t].span->id;
    results[t].batch = batch_of_task[t];
    results[t].candidates_considered = ws.tasks[t].all_candidates.size();
  }
  if (options.collect_quality) {
    result.batch_stats.assign(batches.size(), ContainerResult::BatchStats{});
  }

  const std::size_t iterations =
      options.iterate ? std::max<std::size_t>(options.params.iterations, 1)
                      : 1;
  std::map<DelayKey, std::vector<double>> last_fitted;
  std::set<HandlerPair> dirty_handlers;
  bool incremental = false;
  for (std::size_t iter = 0; iter < iterations; ++iter) {
    pm.iterations.Inc();
    {
      auto t = timer(obs::Stage::kRank);
      RankCandidates(ws, model, batch_of_task, batch_rates,
                     incremental ? &dirty_handlers : nullptr, results);
    }
    for (ParentResult& r : results) r.chosen = -1;
    {
      auto t = timer(obs::Stage::kSolve);
      if (options.use_joint_optimization) {
        struct RunArenaStats {
          std::size_t high = 0;
          std::size_t reserved = 0;
          std::uint64_t allocs = 0;
        };
        std::vector<std::size_t> fallbacks(runs.size(), 0);
        std::vector<RunArenaStats> run_arena(runs.size());
        ThreadPool::Run(ws.pool, runs.size(), [&](std::size_t r) {
          std::unordered_set<SpanId> used;
          // Private arena per run: all conflict-graph scratch of the run's
          // batches bump-allocates here and is released wholesale when the
          // run ends (glibc then hands the same hot pages to the next
          // run). Stats go to per-run slots, folded below in run order, so
          // metric totals are identical for any pool size.
          ArenaAllocator arena(16 * 1024);
          SolveScratch scratch(&arena);
          for (std::size_t b = runs[r].first; b < runs[r].second; ++b) {
            SolveBatch(ws, batches[b], results, used, scratch, fallbacks[r],
                       result.batch_stats.empty() ? nullptr
                                                  : &result.batch_stats[b]);
          }
          run_arena[r] = {arena.high_water(), arena.reserved(),
                          arena.allocations()};
        });
        for (const std::size_t f : fallbacks) result.mis_fallbacks += f;
        for (const RunArenaStats& s : run_arena) {
          pm.arena_scratch_bytes.Inc(s.high);
          pm.arena_allocations.Inc(s.allocs);
          pm.arena_high_water.Observe(s.high);
          pm.arena_reserved.Observe(s.reserved);
        }
      } else {
        SolveGreedy(ws, results);
        for (ContainerResult::BatchStats& bs : result.batch_stats) {
          bs = ContainerResult::BatchStats{};
          bs.joint = false;
        }
      }
    }
    if (iter + 1 < iterations) {
      std::vector<DelayKey> dirty;
      {
        auto t = timer(obs::Stage::kRefit);
        dirty = RefitModel(ws, results, model, last_fitted, prior);
      }
      // Convergence: an unchanged model reproduces this iteration's
      // ranking and solution exactly, so further rounds are no-ops.
      if (dirty.empty()) {
        pm.converged.Inc();
        break;
      }
      dirty_handlers.clear();
      for (const DelayKey& key : dirty) {
        dirty_handlers.insert(HandlerPair{key.service, key.endpoint});
      }
      incremental = true;
    }
  }

  // Final model shape and per-parent outcomes (observation only).
  const DelayModel::Summary shape = model.Summarize();
  pm.delay_keys_final.Inc(shape.keys);
  pm.delay_mixture_keys.Inc(shape.mixture_keys);
  pm.delay_components.Inc(shape.components);
  std::uint64_t mapped = 0, top = 0, skips = 0, candidates = 0;
  for (std::size_t t = 0; t < results.size(); ++t) {
    candidates += ws.tasks[t].all_candidates.size();
    const ParentResult& r = results[t];
    if (!r.Mapped()) continue;
    ++mapped;
    if (r.ChoseTop()) ++top;
    skips += r.ranked[static_cast<std::size_t>(r.chosen)].skips;
  }
  pm.parents_mapped.Inc(mapped);
  pm.parents_top_choice.Inc(top);
  pm.skips_chosen.Inc(skips);
  if (options.metrics != nullptr) {
    const std::string& service = view.instance.service;
    pm.ServiceParents(service).Inc(ws.tasks.size());
    pm.ServiceMapped(service).Inc(mapped);
    pm.ServiceTopChoice(service).Inc(top);
    pm.ServiceCandidates(service).Inc(candidates);
  }

  if (options.explain_out != nullptr &&
      options.explain_parent != kInvalidSpanId) {
    FillExplain(ws, results, batch_of_task, batches, batch_rates, model,
                *options.explain_out);
  }

  // Duplicate-twin adoption: retries and hedges materialize a second span
  // to the same (service, endpoint) under one true parent, but the plan
  // has a single position there, so the joint solve must leave the twin
  // unassigned. Rather than letting candidate sets explode by enumerating
  // multi-span positions, fold each unassigned pool span onto the parent
  // of its nearest *assigned* pool-mate when their sends lie within the
  // twin window and the orphan fits that parent's processing window.
  // Serial and deterministic; window 0 (the default) skips it entirely.
  const long long twin_window = options.params.duplicate_twin_window_ns;
  if (twin_window > 0) {
    struct AssignedChild {
      const Span* child;
      const Span* parent;
    };
    std::vector<std::vector<AssignedChild>> assigned_by_pool(
        ws.pools.size());
    std::unordered_set<SpanId> assigned_ids;
    for (std::size_t t = 0; t < results.size(); ++t) {
      const ParentResult& r = results[t];
      if (!r.Mapped()) continue;
      const ParentTask& task = ws.tasks[t];
      const CandidateMapping& m =
          r.ranked[static_cast<std::size_t>(r.chosen)];
      for (std::size_t i = 0; i < m.children.size(); ++i) {
        const SpanId child = m.children[i];
        if (child == kSkippedChild) continue;
        const auto it = ws.span_by_id.find(child);
        if (it == ws.span_by_id.end()) continue;
        assigned_ids.insert(child);
        assigned_by_pool[static_cast<std::size_t>(task.position_pool[i])]
            .push_back({it->second, task.span});
      }
    }
    // Sorted pool-key order for a deterministic adopted vector; decisions
    // themselves are independent per orphan, so order only affects output
    // ordering.
    for (const auto& [key, pool_id] : ws.pools.ids) {
      const auto p = static_cast<std::size_t>(pool_id);
      if (assigned_by_pool[p].empty()) continue;
      for (const Span* orphan : ws.pools.spans[p]) {
        if (assigned_ids.count(orphan->id) > 0) continue;
        const AssignedChild* best = nullptr;
        long long best_gap = twin_window + 1;
        for (const AssignedChild& a : assigned_by_pool[p]) {
          const long long diff =
              static_cast<long long>(orphan->client_send) -
              static_cast<long long>(a.child->client_send);
          const long long gap = diff < 0 ? -diff : diff;
          if (gap > twin_window) continue;
          const long long slack =
              options.params.SlackFor(a.parent->callee, orphan->callee);
          if (orphan->client_send < a.parent->server_recv - slack ||
              orphan->client_recv > a.parent->server_send + slack) {
            continue;  // Twin does not fit the sibling's parent window.
          }
          if (best == nullptr || gap < best_gap ||
              (gap == best_gap && a.parent->id < best->parent->id)) {
            best = &a;
            best_gap = gap;
          }
        }
        if (best != nullptr) {
          result.adopted.emplace_back(orphan->id, best->parent->id);
        }
      }
    }
    std::sort(result.adopted.begin(), result.adopted.end());
  }

  result.parents = std::move(results);
  result.model = std::move(model);
  return result;
}

}  // namespace traceweaver
