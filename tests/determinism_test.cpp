// Order-independence regression tests for the determinism audit: the
// analysis and admission results must be pure functions of the problem,
// never of container iteration order or insertion order. Each test
// computes the same quantity twice with a perturbed input ordering
// (edge order, channel insertion order, token-update order, cache
// eviction pressure) and requires bit-identical results. These pin the
// audited sites: the cycle-ratio solver's edge table (mcm.cpp,
// incremental.cpp), the state-space store (throughput.cpp), and the
// admission plan cache (admission.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "analysis/incremental.hpp"
#include "analysis/mcm.hpp"
#include "analysis/throughput.hpp"
#include "apps/suite/churn.hpp"
#include "mapping/admission.hpp"
#include "platform/arch_template.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace mamps::analysis {
namespace {

using sdf::ChannelId;
using sdf::Graph;
using sdf::TimedGraph;

/// Seeded Fisher-Yates shuffle (std::shuffle's output is
/// implementation-defined, so it could not pin a regression).
template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.range(0, i - 1)]);
  }
}

/// A random cycle-ratio problem that always contains at least one
/// token-carrying cycle (a ring through every node), plus random chords.
std::vector<CycleRatioEdge> randomCycleRatioEdges(Rng& rng, std::size_t nodes) {
  std::vector<CycleRatioEdge> edges;
  for (std::size_t i = 0; i < nodes; ++i) {
    CycleRatioEdge e;
    e.from = static_cast<std::uint32_t>(i);
    e.to = static_cast<std::uint32_t>((i + 1) % nodes);
    e.weight = static_cast<std::int64_t>(rng.range(1, 20));
    e.delay = static_cast<std::int64_t>(i + 1 == nodes ? rng.range(1, 3) : rng.range(0, 2));
    edges.push_back(e);
  }
  const std::size_t chords = rng.range(0, 2 * nodes);
  for (std::size_t c = 0; c < chords; ++c) {
    CycleRatioEdge e;
    e.from = static_cast<std::uint32_t>(rng.range(0, nodes - 1));
    e.to = static_cast<std::uint32_t>(rng.range(0, nodes - 1));
    e.weight = static_cast<std::int64_t>(rng.range(1, 20));
    e.delay = static_cast<std::int64_t>(rng.range(0, 3));
    edges.push_back(e);  // parallel and self edges are fair game
  }
  return edges;
}

TEST(DeterminismTest, CycleRatioSolverIsEdgeOrderInvariant) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    Rng rng(seed);
    const std::size_t nodes = rng.range(3, 9);
    const std::vector<CycleRatioEdge> edges = randomCycleRatioEdges(rng, nodes);

    CycleRatioSolver reference;
    const CycleRatioResult expected = reference.solve(nodes, edges);

    for (int perm = 0; perm < 4; ++perm) {
      std::vector<CycleRatioEdge> permuted = edges;
      shuffle(permuted, rng);
      CycleRatioSolver solver;
      const CycleRatioResult got = solver.solve(nodes, permuted);
      ASSERT_EQ(got.status, expected.status) << "seed " << seed << " perm " << perm;
      if (expected.ok()) {
        EXPECT_EQ(got.ratio, expected.ratio) << "seed " << seed << " perm " << perm;
      }
      // Warm restart on the permuted order must agree as well.
      const CycleRatioResult warm = solver.solve(nodes, permuted);
      EXPECT_EQ(warm.status, expected.status) << "seed " << seed << " perm " << perm;
      if (expected.ok()) {
        EXPECT_EQ(warm.ratio, expected.ratio) << "seed " << seed << " perm " << perm;
      }
    }
  }
}

/// The same graph with its channels connected in a permuted order (the
/// actor set and ids are identical; only ChannelIds are relabelled).
Graph withPermutedChannels(const Graph& g, Rng& rng) {
  Graph out(g.name());
  for (sdf::ActorId a = 0; a < g.actorCount(); ++a) {
    out.addActor(g.actor(a).name);
  }
  std::vector<ChannelId> order(g.channelCount());
  for (ChannelId c = 0; c < g.channelCount(); ++c) {
    order[c] = c;
  }
  shuffle(order, rng);
  for (const ChannelId c : order) {
    const sdf::Channel& ch = g.channel(c);
    out.connect(ch.src, ch.prodRate, ch.dst, ch.consRate, ch.initialTokens, ch.name);
  }
  return out;
}

TEST(DeterminismTest, StateSpaceThroughputIsChannelInsertionOrderInvariant) {
  ThroughputOptions options;
  options.engine = ThroughputEngine::StateSpace;
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    Rng rng(seed + 100);
    const Graph g = test::randomConsistentGraph(rng);
    const std::vector<std::uint64_t> exec = test::randomExecTimes(rng, g);
    const ThroughputResult expected = computeThroughput(TimedGraph{g, exec}, options);

    for (int perm = 0; perm < 3; ++perm) {
      const Graph permuted = withPermutedChannels(g, rng);
      const ThroughputResult got = computeThroughput(TimedGraph{permuted, exec}, options);
      ASSERT_EQ(got.status, expected.status) << "seed " << seed << " perm " << perm;
      EXPECT_EQ(got.iterationsPerCycle, expected.iterationsPerCycle)
          << "seed " << seed << " perm " << perm;
      // The explored state sequence is a relabelling of the original:
      // channel order only permutes the words of each state key, so
      // the recurrence is found at the same step.
      EXPECT_EQ(got.statesExplored, expected.statesExplored)
          << "seed " << seed << " perm " << perm;
      EXPECT_EQ(got.periodCycles, expected.periodCycles) << "seed " << seed << " perm " << perm;
    }
  }
}

TEST(DeterminismTest, IncrementalTokenUpdateOrderIsInvariant) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    Rng rng(seed + 200);
    const Graph g = test::randomConsistentGraph(rng);
    if (g.channelCount() == 0) {
      continue;
    }
    const TimedGraph timed{g, test::randomExecTimes(rng, g)};

    // One token patch per channel, applied in two different orders.
    std::vector<std::pair<ChannelId, std::uint64_t>> patches;
    for (ChannelId c = 0; c < g.channelCount(); ++c) {
      patches.emplace_back(c, g.channel(c).initialTokens + rng.range(0, 4));
    }

    IncrementalThroughput ascending(timed);
    for (const auto& [channel, tokens] : patches) {
      ascending.setInitialTokens(channel, tokens);
    }
    const ThroughputResult a = ascending.compute();

    IncrementalThroughput descending(timed);
    shuffle(patches, rng);
    for (const auto& [channel, tokens] : patches) {
      descending.setInitialTokens(channel, tokens);
    }
    const ThroughputResult b = descending.compute();

    ASSERT_EQ(a.status, b.status) << "seed " << seed;
    EXPECT_EQ(a.iterationsPerCycle, b.iterationsPerCycle) << "seed " << seed;
    EXPECT_EQ(a.engine, b.engine) << "seed " << seed;

    // Both must also equal the from-scratch analysis of the patched
    // graph (the incremental path's defining contract).
    const ThroughputResult scratch = computeThroughput(ascending.graph());
    ASSERT_EQ(a.status, scratch.status) << "seed " << seed;
    EXPECT_EQ(a.iterationsPerCycle, scratch.iterationsPerCycle) << "seed " << seed;
  }
}

TEST(DeterminismTest, StateSpaceExplorationIsRepeatable) {
  ThroughputOptions options;
  options.engine = ThroughputEngine::StateSpace;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed + 300);
    const Graph g = test::randomConsistentGraph(rng);
    const TimedGraph timed{g, test::randomExecTimes(rng, g)};
    const ThroughputResult first = computeThroughput(timed, options);
    const ThroughputResult second = computeThroughput(timed, options);
    ASSERT_EQ(first.status, second.status) << "seed " << seed;
    EXPECT_EQ(first.iterationsPerCycle, second.iterationsPerCycle) << "seed " << seed;
    EXPECT_EQ(first.statesExplored, second.statesExplored) << "seed " << seed;
    EXPECT_EQ(first.periodCycles, second.periodCycles) << "seed " << seed;
  }
}

}  // namespace
}  // namespace mamps::analysis

namespace mamps::mapping {
namespace {

TEST(DeterminismTest, PlanCacheEvictionPressurePreservesDecisions) {
  const suite::ChurnWorkload workload = suite::suiteChurnWorkload();
  const auto arch =
      platform::generateFromTemplate(platform::heterogeneousPreset(4, {"accel"}));

  // A one-entry cache thrashes on this alternating script; every
  // decision must still be bit-identical to the cache-off controller.
  AdmissionOptions tiny;
  tiny.planCacheCapacity = 1;
  AdmissionOptions cold;
  cold.planCache = false;
  AdmissionController capped(arch, tiny);
  AdmissionController recomputed(arch, cold);

  const std::size_t script[] = {1, 3, 1, 3};
  for (int round = 0; round < 3; ++round) {
    std::vector<ClientId> mine;
    std::vector<ClientId> theirs;
    for (const std::size_t app : script) {
      const AdmissionDecision a = capped.admit(workload.caches[app], workload.options[app]);
      const AdmissionDecision b = recomputed.admit(workload.caches[app], workload.options[app]);
      ASSERT_EQ(a.admitted(), b.admitted());
      if (a.admitted()) {
        mine.push_back(*a.client);
        theirs.push_back(*b.client);
        EXPECT_EQ(a.result->mapping.actorToTile, b.result->mapping.actorToTile);
        EXPECT_EQ(a.result->throughput.iterationsPerCycle,
                  b.result->throughput.iterationsPerCycle);
        EXPECT_EQ(a.result->meetsConstraint, b.result->meetsConstraint);
      }
      EXPECT_TRUE(capped.budget() == recomputed.budget());
      EXPECT_LE(capped.planCacheSize(), 1u);
    }
    for (std::size_t i = 0; i < mine.size(); ++i) {
      capped.depart(mine[i]);
      recomputed.depart(theirs[i]);
    }
    EXPECT_TRUE(capped.pristine());
    EXPECT_TRUE(recomputed.pristine());
  }
  EXPECT_GT(capped.stats().planCacheEvictions, 0u);
}

}  // namespace
}  // namespace mamps::mapping
