// Randomized property tests for candidate enumeration and its interaction
// with batching: every enumerated mapping must satisfy the §4.1 feasibility
// constraints, and parents separated by a perfect cut must never share an
// enumerated candidate child (Theorem A.1 at the candidate level, not just
// the window level). The scoring property pins the contract between the
// scorers: the batch kernel, the explain decomposition and the scalar
// reference agree bit for bit, and the refit gaps are the gap table's.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>

#include "core/batching.h"
#include "core/candidates.h"
#include "core/delay_model.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace traceweaver {
namespace {

struct RandomPopulation {
  std::vector<Span> parents;        // Incoming spans at service A.
  std::vector<Span> children_b;     // Outgoing spans to B.
  std::vector<Span> children_c;     // Outgoing spans to C.
  std::vector<const Span*> parent_ptrs;
  std::vector<const Span*> pool_b;
  std::vector<const Span*> pool_c;
};

/// Builds overlapping parents with child spans scattered inside and around
/// their windows.
RandomPopulation MakePopulation(std::uint64_t seed, int n_parents) {
  Rng rng(seed);
  RandomPopulation pop;
  SpanId id = 1;
  TimeNs t = 0;
  for (int i = 0; i < n_parents; ++i) {
    t += rng.UniformInt(0, Millis(2));
    const TimeNs dur = rng.UniformInt(Millis(1), Millis(8));
    pop.parents.push_back(::traceweaver::testing::MakeSpan(
        id++, kClientCaller, "A", "/a", t, t + dur));
  }
  // Children: some nested in parents, some stray.
  for (int i = 0; i < n_parents * 2; ++i) {
    const TimeNs start = rng.UniformInt(0, t + Millis(8));
    const TimeNs dur = rng.UniformInt(Micros(50), Millis(2));
    Span child = ::traceweaver::testing::MakeSpan(
        id++, "A", (i % 2 == 0) ? "B" : "C", (i % 2 == 0) ? "/b" : "/c",
        start + Micros(20), start + dur, Micros(10));
    child.client_send = start;
    child.client_recv = start + dur + Micros(20);
    if (i % 2 == 0) {
      pop.children_b.push_back(child);
    } else {
      pop.children_c.push_back(child);
    }
  }
  auto sort_pool = [](std::vector<Span>& spans,
                      std::vector<const Span*>& ptrs) {
    std::sort(spans.begin(), spans.end(), SpanClientSendOrder{});
    for (const Span& s : spans) ptrs.push_back(&s);
  };
  std::sort(pop.parents.begin(), pop.parents.end(), SpanStartOrder{});
  for (const Span& s : pop.parents) pop.parent_ptrs.push_back(&s);
  sort_pool(pop.children_b, pop.pool_b);
  sort_pool(pop.children_c, pop.pool_c);
  return pop;
}

InvocationPlan SequentialBC() {
  InvocationPlan plan;
  plan.stages.push_back(Stage{{{"B", "/b", false}}});
  plan.stages.push_back(Stage{{{"C", "/c", false}}});
  return plan;
}

class CandidateProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CandidateProperty, AllEnumeratedMappingsAreFeasible) {
  RandomPopulation pop = MakePopulation(GetParam(), 40);
  const InvocationPlan plan = SequentialBC();
  std::map<SpanId, const Span*> by_id;
  for (const Span& s : pop.children_b) by_id[s.id] = &s;
  for (const Span& s : pop.children_c) by_id[s.id] = &s;

  for (const Span& parent : pop.parents) {
    const auto mappings = EnumerateCandidates(
        parent, plan, {&pop.pool_b, &pop.pool_c}, {});
    for (const auto& m : mappings) {
      ASSERT_EQ(m.children.size(), 2u);
      const Span* b = by_id.at(m.children[0]);
      const Span* c = by_id.at(m.children[1]);
      // (i) requests depart after the parent request arrived.
      EXPECT_GE(b->client_send, parent.server_recv);
      EXPECT_GE(c->client_send, parent.server_recv);
      // (ii) responses return before the parent response left.
      EXPECT_LE(b->client_recv, parent.server_send);
      EXPECT_LE(c->client_recv, parent.server_send);
      // (iii) sequential order: B completes before C departs.
      EXPECT_LE(b->client_recv, c->client_send);
      // Distinct children.
      EXPECT_NE(m.children[0], m.children[1]);
    }
  }
}

TEST_P(CandidateProperty, PerfectCutsShareNoCandidates) {
  RandomPopulation pop = MakePopulation(GetParam() * 31 + 5, 60);
  const InvocationPlan plan = SequentialBC();

  const auto batches = MakeBatches(pop.parent_ptrs, 12);

  // Enumerate candidate children per parent.
  std::vector<std::set<SpanId>> used_children(pop.parents.size());
  for (std::size_t i = 0; i < pop.parents.size(); ++i) {
    for (const auto& m : EnumerateCandidates(
             pop.parents[i], plan, {&pop.pool_b, &pop.pool_c}, {})) {
      for (SpanId c : m.children) used_children[i].insert(c);
    }
  }

  // Across a perfect cut, no candidate child may be shared.
  for (const Batch& batch : batches) {
    if (!batch.perfect || batch.end >= pop.parents.size()) continue;
    std::set<SpanId> before;
    for (std::size_t i = 0; i < batch.end; ++i) {
      before.insert(used_children[i].begin(), used_children[i].end());
    }
    for (std::size_t j = batch.end; j < pop.parents.size(); ++j) {
      for (SpanId c : used_children[j]) {
        EXPECT_EQ(before.count(c), 0u)
            << "candidate " << c << " crosses the perfect cut at "
            << batch.end;
      }
    }
  }
}

/// A random multi-stage plan at A:/a with one pool per position: 1-3
/// stages of 1-3 calls, some optional.
struct RandomScoringCase {
  InvocationPlan plan;
  std::vector<InvocationPlan::Position> positions;
  Span parent;
  std::vector<std::vector<Span>> owned;  ///< Children, per position.
  std::vector<std::vector<const Span*>> pools;
  DelayModel model;
};

RandomScoringCase MakeScoringCase(Rng& rng) {
  RandomScoringCase sc;
  const int stages = static_cast<int>(rng.UniformInt(1, 3));
  for (int st = 0; st < stages; ++st) {
    Stage stage;
    const int calls = static_cast<int>(rng.UniformInt(1, 3));
    for (int c = 0; c < calls; ++c) {
      const std::string name = std::to_string(st) + "." + std::to_string(c);
      stage.calls.push_back(
          BackendCall{"B" + name, "/b" + name, rng.Bernoulli(0.3)});
    }
    sc.plan.stages.push_back(std::move(stage));
  }
  sc.positions = sc.plan.Positions();

  const TimeNs start = Millis(1);
  const TimeNs end = start + rng.UniformInt(Millis(4), Millis(12));
  sc.parent = ::traceweaver::testing::MakeSpan(1, kClientCaller, "A", "/a",
                                               start, end);
  sc.parent.handler_thread = 1;
  SpanId id = 2;
  sc.owned.resize(sc.positions.size());
  sc.pools.resize(sc.positions.size());
  for (std::size_t i = 0; i < sc.positions.size(); ++i) {
    const BackendCall& call = sc.plan.At(sc.positions[i]);
    const int n = static_cast<int>(rng.UniformInt(1, 4));
    for (int k = 0; k < n; ++k) {
      const TimeNs send = rng.UniformInt(start, end - Micros(200));
      const TimeNs dur = rng.UniformInt(Micros(20), (end - send) / 2);
      Span child = ::traceweaver::testing::MakeSpan(
          id++, "A", call.service, call.endpoint, send + Micros(5),
          send + dur, Micros(5));
      child.caller_thread = static_cast<int>(rng.UniformInt(1, 2));
      sc.owned[i].push_back(child);
    }
    std::sort(sc.owned[i].begin(), sc.owned[i].end(), SpanClientSendOrder{});
    for (const Span& s : sc.owned[i]) sc.pools[i].push_back(&s);
  }

  // Each delay key (and the response gap) is a random one- or
  // two-component mixture, or left out so it scores against the fallback.
  const auto random_mixture = [&rng] {
    std::vector<GmmComponent> comps;
    const int k = static_cast<int>(rng.UniformInt(1, 2));
    for (int j = 0; j < k; ++j) {
      comps.push_back(GmmComponent{1.0 / k, rng.Uniform(0.0, 3e6),
                                   rng.Uniform(1e4, 1e6)});
    }
    return GaussianMixture(std::move(comps));
  };
  for (const InvocationPlan::Position& pos : sc.positions) {
    if (rng.Bernoulli(0.3)) continue;
    sc.model.Install(DelayKey{"A", "/a", static_cast<int>(pos.stage),
                              static_cast<int>(pos.call)},
                     random_mixture());
  }
  if (rng.Bernoulli(0.7)) {
    sc.model.Install(DelayKey::ResponseGap("A", "/a"), random_mixture());
  }
  return sc;
}

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST_P(CandidateProperty, ScorersAgreeBitForBit) {
  Rng rng(GetParam() * 7919 + 11);
  std::size_t scored = 0, skipped_slots = 0;
  for (int round = 0; round < 24; ++round) {
    RandomScoringCase sc = MakeScoringCase(rng);
    const bool order = rng.Bernoulli(0.5);
    const std::size_t np = sc.positions.size();

    PositionPools pools;
    for (const auto& pool : sc.pools) pools.push_back(&pool);
    std::vector<const Span*> resolved;
    EnumerationOptions eopts;
    eopts.use_order_constraints = order;
    eopts.allow_all_skips = rng.Bernoulli(0.5);
    eopts.positions = &sc.positions;
    eopts.resolved_out = &resolved;
    const std::vector<CandidateMapping> mappings =
        EnumerateCandidates(sc.parent, sc.plan, pools, eopts);
    const std::size_t n = mappings.size();
    ASSERT_EQ(resolved.size(), n * np);

    std::vector<ScoringContext::PositionScore> table(np);
    for (std::size_t i = 0; i < np; ++i) {
      const double rate = rng.Uniform(1e-3, 0.5);
      table[i].skip_lp = std::log(rate);
      table[i].keep_lp = std::log1p(-rate);
      const DelayModel::DistView view = sc.model.View(
          DelayKey{"A", "/a", static_cast<int>(sc.positions[i].stage),
                   static_cast<int>(sc.positions[i].call)});
      table[i].dist = view.mixture;
      table[i].max_log_pdf = view.max_log_pdf;
    }
    ScoringContext ctx;
    ctx.use_order_constraints = order;
    ctx.thread_bonus = rng.Bernoulli(0.5);
    ctx.positions = &sc.positions;
    ctx.position_scores = &table;
    ctx.response = sc.model.View(DelayKey::ResponseGap("A", "/a"));

    const CandidateGapTable gaps =
        BuildGapTable(sc.parent, sc.positions, resolved.data(), n, order);
    std::vector<double> batch(n), scratch(n);
    ScoreCandidatesBatch(gaps, ctx, batch, scratch);

    for (std::size_t c = 0; c < n; ++c) {
      const std::vector<const Span*> children(
          resolved.begin() + static_cast<long>(c * np),
          resolved.begin() + static_cast<long>((c + 1) * np));
      const double scalar = ScoreMapping(sc.parent, children.data(), ctx);
      EXPECT_EQ(Bits(batch[c]), Bits(scalar)) << "candidate " << c;
      EXPECT_EQ(Bits(ExplainMapping(sc.parent, sc.plan, children, ctx).total),
                Bits(scalar))
          << "candidate " << c;

      // The refit samples are exactly the gap table's filled slots, in
      // position order, then the response gap.
      const std::vector<GapSample> samples =
          ExtractGaps(sc.parent, sc.plan, children, order);
      std::size_t k = 0;
      for (std::size_t i = 0; i < np; ++i) {
        if (gaps.filled[i * n + c] == 0) {
          ++skipped_slots;
          continue;
        }
        ASSERT_LT(k, samples.size());
        const InvocationPlan::Position& pos = sc.positions[i];
        EXPECT_EQ(samples[k].key.stage, static_cast<int>(pos.stage));
        EXPECT_EQ(samples[k].key.call, static_cast<int>(pos.call));
        EXPECT_EQ(Bits(samples[k].gap), Bits(gaps.gaps[i * n + c]));
        ++k;
      }
      if (gaps.any_child[c] != 0) {
        ASSERT_LT(k, samples.size());
        EXPECT_EQ(samples[k].key.stage, -1);
        EXPECT_EQ(Bits(samples[k].gap), Bits(gaps.response_gap[c]));
        ++k;
      }
      EXPECT_EQ(k, samples.size());
      ++scored;
    }
  }
  // The random cases must actually exercise skips and real scoring.
  EXPECT_GT(scored, 50u);
  EXPECT_GT(skipped_slots, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CandidateProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace traceweaver
