// Property-based tests on randomized consistent SDF graphs. These pin
// the relations between the independent implementations: repetition
// vectors satisfy the balance equations, the state-space throughput
// analysis agrees with the MCR analysis on the HSDF expansion, buffer
// capacities preserve liveness, and throughput is monotone in buffer
// capacity.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstdlib>
#include <optional>
#include <string>

#include "analysis/buffer.hpp"
#include "analysis/incremental.hpp"
#include "analysis/mcm.hpp"
#include "analysis/throughput.hpp"
#include "hsdf_oracle.hpp"
#include "sdf/repetition_vector.hpp"
#include "test_util.hpp"

namespace mamps::analysis {
namespace {

using sdf::Graph;
using sdf::TimedGraph;

/// Base seed for every randomized sequence, taken from MAMPS_TEST_SEED.
/// Unset or unparsable means 0, i.e. the historical fixed sequences; a
/// CI job can export a different value to explore fresh graphs while
/// every failure stays reproducible from the logged seed.
std::uint64_t baseSeed() {
  static const std::uint64_t value = [] {
    const char* env = std::getenv("MAMPS_TEST_SEED");
    if (env == nullptr || *env == '\0' || *env == '-') return std::uint64_t{0};
    char* end = nullptr;
    errno = 0;
    const unsigned long long parsed = std::strtoull(env, &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0') return std::uint64_t{0};
    return std::uint64_t{parsed};
  }();
  return value;
}

class RandomGraphProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    // Attach the effective seeding to every failure message so a red run
    // is reproducible with MAMPS_TEST_SEED=<base> and the test's param.
    trace_.emplace(__FILE__, __LINE__,
                   "MAMPS_TEST_SEED base=" + std::to_string(baseSeed()) +
                       " param=" + std::to_string(GetParam()));
  }
  void TearDown() override { trace_.reset(); }

  /// Rng for one property; `offset` decorrelates the per-test sequences.
  [[nodiscard]] Rng makeRng(std::uint64_t offset) const {
    return Rng(baseSeed() + GetParam() + offset);
  }

 private:
  std::optional<::testing::ScopedTrace> trace_;
};

TEST_P(RandomGraphProperty, RepetitionVectorSatisfiesBalanceEquations) {
  Rng rng = makeRng(0);
  const Graph g = test::randomConsistentGraph(rng);
  const auto q = sdf::computeRepetitionVector(g);
  ASSERT_TRUE(q.has_value()) << "generator must produce consistent graphs";
  for (const sdf::Channel& c : g.channels()) {
    EXPECT_EQ((*q)[c.src] * c.prodRate, (*q)[c.dst] * c.consRate) << "channel " << c.name;
  }
}

TEST_P(RandomGraphProperty, RepetitionVectorIsMinimal) {
  Rng rng = makeRng(1000);
  const Graph g = test::randomConsistentGraph(rng);
  const auto q = sdf::computeRepetitionVector(g);
  ASSERT_TRUE(q.has_value());
  // Minimality: the gcd over each connected component must be 1; for the
  // generator's connected graphs, the global gcd is 1.
  std::uint64_t gcd = 0;
  for (const auto v : *q) {
    gcd = std::gcd(gcd, v);
    EXPECT_GT(v, 0u);
  }
  EXPECT_EQ(gcd, 1u);
}

TEST_P(RandomGraphProperty, GeneratedGraphsAreLive) {
  Rng rng = makeRng(2000);
  const Graph g = test::randomConsistentGraph(rng);
  EXPECT_TRUE(sdf::isDeadlockFree(g));
}

TEST_P(RandomGraphProperty, OneIterationRestoresInitialTokens) {
  Rng rng = makeRng(3000);
  const Graph g = test::randomConsistentGraph(rng);
  const auto q = *sdf::computeRepetitionVector(g);
  // Net token change per channel over one iteration is zero by the
  // balance equations; verify by counting.
  for (const sdf::Channel& c : g.channels()) {
    const std::int64_t produced = static_cast<std::int64_t>(q[c.src] * c.prodRate);
    const std::int64_t consumed = static_cast<std::int64_t>(q[c.dst] * c.consRate);
    EXPECT_EQ(produced, consumed);
  }
}

TEST_P(RandomGraphProperty, StateSpaceThroughputMatchesMcrOnHsdf) {
  Rng rng = makeRng(4000);
  test::RandomGraphOptions opt;
  opt.maxActors = 5;
  opt.maxQ = 3;
  const Graph g = test::randomConsistentGraph(rng, opt);
  // Compare on the strongly-bounded (capacitated) graph: state-space
  // analysis requires bounded token accumulation, and the flow only ever
  // analyzes binding-aware graphs, which are bounded by construction.
  const auto capacities = minimalDeadlockFreeCapacities(g);
  ASSERT_TRUE(capacities.has_value());
  const TimedGraph bounded =
      withCapacities(TimedGraph{g, test::randomExecTimes(rng, g)}, *capacities);

  ThroughputOptions stateSpace;
  stateSpace.engine = ThroughputEngine::StateSpace;
  const auto viaStateSpace = computeThroughput(bounded, stateSpace);
  const auto viaMcr = computeThroughputMcr(bounded);
  ASSERT_TRUE(viaStateSpace.ok());
  ASSERT_TRUE(viaMcr.ok());
  EXPECT_EQ(viaStateSpace.iterationsPerCycle, viaMcr.iterationsPerCycle)
      << "state-space and MCR throughput disagree (seed " << GetParam() << ")";
}

TEST_P(RandomGraphProperty, ResourceConstrainedEnginesAgree) {
  // Bind the actors of a strongly-bounded random graph to a couple of
  // shared resources with a randomized full-iteration static order and
  // pin the two engines against each other: the MCR encoding of the
  // schedules must reproduce the state-space semantics exactly,
  // including schedule-induced deadlocks.
  Rng rng = makeRng(9000);
  test::RandomGraphOptions opt;
  opt.maxActors = 4;
  opt.maxQ = 3;
  const Graph g = test::randomConsistentGraph(rng, opt);
  const auto capacities = minimalDeadlockFreeCapacities(g);
  ASSERT_TRUE(capacities.has_value());
  TimedGraph bounded = withCapacities(TimedGraph{g, test::randomExecTimes(rng, g)}, *capacities);
  const auto q = *sdf::computeRepetitionVector(bounded.graph);

  ResourceConstraints resources;
  const std::uint32_t resourceCount = static_cast<std::uint32_t>(rng.range(1, 2));
  resources.staticOrder.resize(resourceCount);
  resources.actorResource.assign(bounded.graph.actorCount(), ResourceConstraints::kUnbound);
  // Only the original actors are bound (the space back-edge construction
  // adds no actors); leave a random subset unbound.
  std::vector<std::vector<sdf::ActorId>> pending(resourceCount);
  for (sdf::ActorId a = 0; a < g.actorCount(); ++a) {
    if (rng.chance(0.25)) {
      continue;  // dedicated resource
    }
    const auto r = static_cast<std::uint32_t>(rng.range(0, resourceCount - 1));
    resources.actorResource[a] = r;
    for (std::uint64_t i = 0; i < q[a]; ++i) {
      pending[r].push_back(a);
    }
  }
  // Random interleaving that keeps per-actor appearance order intact
  // (any interleaving does: appearances of one actor are interchangeable).
  for (std::uint32_t r = 0; r < resourceCount; ++r) {
    auto& source = pending[r];
    auto& order = resources.staticOrder[r];
    while (!source.empty()) {
      const std::size_t pick = rng.range(0, source.size() - 1);
      order.push_back(source[pick]);
      source.erase(source.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }

  ThroughputOptions stateSpace;
  stateSpace.engine = ThroughputEngine::StateSpace;
  const auto viaStateSpace = computeThroughput(bounded, resources, stateSpace);
  const auto viaMcr = computeThroughput(bounded, resources);
  ASSERT_EQ(viaMcr.engine, ThroughputEngine::Mcr)
      << "full-iteration schedules must stay on the fast path";
  ASSERT_EQ(viaStateSpace.status, viaMcr.status) << "seed " << GetParam();
  if (viaStateSpace.ok()) {
    EXPECT_EQ(viaStateSpace.iterationsPerCycle, viaMcr.iterationsPerCycle)
        << "seed " << GetParam();
  }
}

TEST_P(RandomGraphProperty, IncrementalMatchesFromScratchAcrossBufferGrowth) {
  // The DSE engine's core invariant: patching capacity back-edge token
  // counts in an IncrementalThroughput context yields the *exact* same
  // rational (and verdict, and engine) as a from-scratch
  // computeThroughput of the patched graph, across a random sequence of
  // buffer-growth steps.
  Rng rng = makeRng(10000);
  test::RandomGraphOptions opt;
  opt.maxActors = 5;
  opt.maxQ = 3;
  const Graph g = test::randomConsistentGraph(rng, opt);
  const auto capacities = minimalDeadlockFreeCapacities(g);
  ASSERT_TRUE(capacities.has_value());
  TimedGraph bounded =
      withCapacities(TimedGraph{g, test::randomExecTimes(rng, g)}, *capacities);

  IncrementalThroughput incremental(bounded);
  for (int round = 0; round < 6; ++round) {
    const auto fresh = computeThroughput(bounded);
    const auto patched = incremental.compute();
    ASSERT_EQ(patched.engine, fresh.engine) << "round " << round;
    ASSERT_EQ(patched.status, fresh.status) << "round " << round;
    EXPECT_EQ(patched.iterationsPerCycle, fresh.iterationsPerCycle) << "round " << round;
    EXPECT_EQ(patched.hsdfActors, fresh.hsdfActors) << "round " << round;
    // Grow a random subset of the capacity back-edges (the channels
    // appended after the forward channels) in both representations.
    for (sdf::ChannelId c = static_cast<sdf::ChannelId>(g.channelCount());
         c < bounded.graph.channelCount(); ++c) {
      if (!rng.chance(0.5)) {
        continue;
      }
      const std::uint64_t tokens =
          bounded.graph.channel(c).initialTokens + rng.range(1, 4);
      bounded.graph.setInitialTokens(c, tokens);
      incremental.setInitialTokens(c, tokens);
    }
  }
}

TEST_P(RandomGraphProperty, IncrementalMatchesFromScratchUnderSchedules) {
  // Same invariant on resource-constrained graphs: the cached
  // static-order chains plus warm-started Howard must stay exact while
  // capacities grow.
  Rng rng = makeRng(11000);
  test::RandomGraphOptions opt;
  opt.maxActors = 4;
  opt.maxQ = 3;
  const Graph g = test::randomConsistentGraph(rng, opt);
  const auto capacities = minimalDeadlockFreeCapacities(g);
  ASSERT_TRUE(capacities.has_value());
  TimedGraph bounded =
      withCapacities(TimedGraph{g, test::randomExecTimes(rng, g)}, *capacities);
  const auto q = *sdf::computeRepetitionVector(bounded.graph);

  // Bind every original actor to one shared resource with a randomized
  // full-iteration order (appearances of one actor are interchangeable).
  ResourceConstraints resources;
  resources.staticOrder.resize(1);
  resources.actorResource.assign(bounded.graph.actorCount(), ResourceConstraints::kUnbound);
  std::vector<sdf::ActorId> pending;
  for (sdf::ActorId a = 0; a < g.actorCount(); ++a) {
    resources.actorResource[a] = 0;
    for (std::uint64_t i = 0; i < q[a]; ++i) {
      pending.push_back(a);
    }
  }
  while (!pending.empty()) {
    const std::size_t pick = rng.range(0, pending.size() - 1);
    resources.staticOrder[0].push_back(pending[pick]);
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pick));
  }

  IncrementalThroughput incremental(bounded, &resources);
  EXPECT_TRUE(incremental.onFastPath());
  for (int round = 0; round < 5; ++round) {
    const auto fresh = computeThroughput(bounded, resources);
    const auto patched = incremental.compute();
    ASSERT_EQ(patched.engine, fresh.engine) << "round " << round;
    ASSERT_EQ(patched.status, fresh.status) << "round " << round;
    EXPECT_EQ(patched.iterationsPerCycle, fresh.iterationsPerCycle) << "round " << round;
    for (sdf::ChannelId c = static_cast<sdf::ChannelId>(g.channelCount());
         c < bounded.graph.channelCount(); ++c) {
      if (!rng.chance(0.4)) {
        continue;
      }
      const std::uint64_t tokens =
          bounded.graph.channel(c).initialTokens + rng.range(1, 3);
      bounded.graph.setInitialTokens(c, tokens);
      incremental.setInitialTokens(c, tokens);
    }
  }
}

TEST_P(RandomGraphProperty, ConcurrencyLimitedEnginesAgree) {
  // Finite self-concurrency limits > 1 are encoded by the HSDF
  // expansion as virtual k-token self-edges; pin the engines against
  // each other under random limits.
  Rng rng = makeRng(12000);
  test::RandomGraphOptions opt;
  opt.maxActors = 4;
  opt.maxQ = 3;
  const Graph g = test::randomConsistentGraph(rng, opt);
  const auto capacities = minimalDeadlockFreeCapacities(g);
  ASSERT_TRUE(capacities.has_value());
  TimedGraph bounded =
      withCapacities(TimedGraph{g, test::randomExecTimes(rng, g)}, *capacities);
  bounded.maxConcurrent.resize(bounded.graph.actorCount());
  for (auto& limit : bounded.maxConcurrent) {
    limit = static_cast<std::uint32_t>(rng.range(0, 3));  // 0 = unlimited
  }

  ThroughputOptions stateSpace;
  stateSpace.engine = ThroughputEngine::StateSpace;
  const auto viaStateSpace = computeThroughput(bounded, stateSpace);
  const auto viaMcr = computeThroughput(bounded);
  ASSERT_EQ(viaMcr.engine, ThroughputEngine::Mcr)
      << "finite limits must stay on the fast path";
  ASSERT_EQ(viaStateSpace.status, viaMcr.status) << "seed " << GetParam();
  if (viaStateSpace.ok()) {
    EXPECT_EQ(viaStateSpace.iterationsPerCycle, viaMcr.iterationsPerCycle)
        << "seed " << GetParam();
  }
}

TEST_P(RandomGraphProperty, WithCapacitiesPreservesConcurrencyLimits) {
  // Unlike ConcurrencyLimitedEnginesAgree (which assigns limits to the
  // already-capacitated graph, and therefore never noticed), this
  // property assigns random limits *before* capacitating — the exact
  // path the flow takes through buildBindingAware. withCapacities must
  // carry the limits through, and both engines must agree on the
  // resulting capacitated, concurrency-limited graph.
  Rng rng = makeRng(13000);
  test::RandomGraphOptions opt;
  opt.maxActors = 4;
  opt.maxQ = 3;
  const Graph g = test::randomConsistentGraph(rng, opt);
  const auto capacities = minimalDeadlockFreeCapacities(g);
  ASSERT_TRUE(capacities.has_value());
  TimedGraph timed{g, test::randomExecTimes(rng, g)};
  timed.maxConcurrent.resize(timed.graph.actorCount());
  for (auto& limit : timed.maxConcurrent) {
    limit = static_cast<std::uint32_t>(rng.range(0, 3));  // 0 = unlimited
  }

  const TimedGraph bounded = withCapacities(timed, *capacities);
  ASSERT_EQ(bounded.maxConcurrent, timed.maxConcurrent) << "seed " << GetParam();
  ASSERT_EQ(bounded.execTime, timed.execTime) << "seed " << GetParam();

  ThroughputOptions stateSpace;
  stateSpace.engine = ThroughputEngine::StateSpace;
  const auto viaStateSpace = computeThroughput(bounded, stateSpace);
  const auto viaMcr = computeThroughput(bounded);
  ASSERT_EQ(viaMcr.engine, ThroughputEngine::Mcr)
      << "finite limits must stay on the fast path";
  ASSERT_EQ(viaStateSpace.status, viaMcr.status) << "seed " << GetParam();
  if (viaStateSpace.ok()) {
    EXPECT_EQ(viaStateSpace.iterationsPerCycle, viaMcr.iterationsPerCycle)
        << "seed " << GetParam();
  }
}

TEST_P(RandomGraphProperty, HowardMatchesBruteForceOnRandomHsdf) {
  Rng rng = makeRng(5000);
  test::RandomGraphOptions opt;
  opt.maxActors = 4;
  opt.maxQ = 3;
  const Graph g = test::randomConsistentGraph(rng, opt);
  const TimedGraph timed{g, test::randomExecTimes(rng, g)};
  const auto expansion = test::toHsdf(timed);
  const auto howard = test::maxCycleRatioHoward(expansion.hsdf);
  const auto brute = test::maxCycleRatioBruteForce(expansion.hsdf);
  ASSERT_EQ(howard.status, brute.status);
  if (howard.ok()) {
    EXPECT_EQ(howard.ratio, brute.ratio) << "seed " << GetParam();
  }
}

TEST_P(RandomGraphProperty, MinimalCapacitiesPreserveLiveness) {
  Rng rng = makeRng(6000);
  const Graph g = test::randomConsistentGraph(rng);
  const auto capacities = minimalDeadlockFreeCapacities(g);
  ASSERT_TRUE(capacities.has_value());
  EXPECT_TRUE(sdf::isDeadlockFree(withCapacities(g, *capacities)));
}

TEST_P(RandomGraphProperty, BoundedThroughputNeverExceedsUnbounded) {
  Rng rng = makeRng(7000);
  test::RandomGraphOptions opt;
  opt.maxActors = 5;
  const Graph g = test::randomConsistentGraph(rng, opt);
  const TimedGraph timed{g, test::randomExecTimes(rng, g)};
  // Unbounded-buffer ceiling via MCR (handles non-strongly-bounded graphs).
  const auto unbounded = computeThroughputMcr(timed);
  ASSERT_TRUE(unbounded.ok());

  auto capacities = minimalDeadlockFreeCapacities(g);
  ASSERT_TRUE(capacities.has_value());
  const auto bounded = computeThroughput(withCapacities(timed, *capacities));
  ASSERT_TRUE(bounded.ok());
  EXPECT_LE(bounded.iterationsPerCycle, unbounded.iterationsPerCycle);
}

TEST_P(RandomGraphProperty, ThroughputMonotoneUnderCapacityGrowth) {
  Rng rng = makeRng(8000);
  test::RandomGraphOptions opt;
  opt.maxActors = 4;
  const Graph g = test::randomConsistentGraph(rng, opt);
  const TimedGraph timed{g, test::randomExecTimes(rng, g)};
  auto capacities = minimalDeadlockFreeCapacities(g);
  ASSERT_TRUE(capacities.has_value());

  Rational previous(0);
  for (int round = 0; round < 3; ++round) {
    const auto result = computeThroughput(withCapacities(timed, *capacities));
    ASSERT_TRUE(result.ok());
    EXPECT_GE(result.iterationsPerCycle, previous);
    previous = result.iterationsPerCycle;
    for (std::size_t c = 0; c < capacities->size(); ++c) {
      if ((*capacities)[c] != 0) {
        (*capacities)[c] += g.channel(static_cast<sdf::ChannelId>(c)).prodRate;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphProperty, ::testing::Range<std::uint64_t>(1, 26));

// Soak run: 4x more seeds, disabled by default so CI stays fast. Opt in
// with --gtest_also_run_disabled_tests (or ad hoc via
// `./analysis_property_test --gtest_filter='DISABLED_Soak/*' --gtest_also_run_disabled_tests`).
INSTANTIATE_TEST_SUITE_P(DISABLED_Soak, RandomGraphProperty,
                         ::testing::Range<std::uint64_t>(26, 126));

}  // namespace
}  // namespace mamps::analysis
