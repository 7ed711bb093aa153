// Unit tests for throughput, cycle-ratio, and buffer-capacity analyses.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

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

/// computeThroughput() with the MCR engine forced.
constexpr ThroughputOptions kForcedMcr{.engine = ThroughputEngine::Mcr};

// -------------------------------------------------------------- Throughput

TEST(ThroughputTest, SingleActorWithSelfEdge) {
  Graph g;
  const auto a = g.addActor("a");
  g.connect(a, 1, a, 1, 1);
  const TimedGraph timed{std::move(g), {10}};
  const auto result = computeThroughput(timed);
  ASSERT_TRUE(result.ok());
  // One firing per 10 cycles.
  EXPECT_EQ(result.iterationsPerCycle, Rational(1, 10));
}

TEST(ThroughputTest, TwoActorRing) {
  // a -> b -> a with one token: strictly alternating firings.
  Graph g;
  const auto a = g.addActor("a");
  const auto b = g.addActor("b");
  g.connect(a, 1, b, 1);
  g.connect(b, 1, a, 1, 1);
  const TimedGraph timed{std::move(g), {3, 7}};
  const auto result = computeThroughput(timed);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.iterationsPerCycle, Rational(1, 10));
}

TEST(ThroughputTest, TwoTokenRingPipelines) {
  // With two tokens in the ring the two actors work concurrently; the
  // slower one dominates.
  Graph g;
  const auto a = g.addActor("a");
  const auto b = g.addActor("b");
  g.connect(a, 1, b, 1);
  g.connect(b, 1, a, 1, 2);
  const TimedGraph timed{std::move(g), {3, 7}};
  const auto result = computeThroughput(timed);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.iterationsPerCycle, Rational(1, 7));
}

TEST(ThroughputTest, DeadlockedGraph) {
  Graph g;
  const auto a = g.addActor("a");
  const auto b = g.addActor("b");
  g.connect(a, 1, b, 1);
  g.connect(b, 1, a, 1);  // no tokens
  const TimedGraph timed{std::move(g), {1, 1}};
  const auto result = computeThroughput(timed);
  EXPECT_EQ(result.status, ThroughputResult::Status::Deadlock);
  EXPECT_TRUE(result.iterationsPerCycle.isZero());
}

TEST(ThroughputTest, InconsistentGraph) {
  Graph g;
  const auto a = g.addActor("a");
  const auto b = g.addActor("b");
  g.connect(a, 2, b, 1);
  g.connect(a, 1, b, 1);
  const TimedGraph timed{std::move(g), {1, 1}};
  EXPECT_EQ(computeThroughput(timed).status, ThroughputResult::Status::Inconsistent);
}

TEST(ThroughputTest, UnboundedZeroTimeCycle) {
  Graph g;
  const auto a = g.addActor("a");
  g.connect(a, 1, a, 1, 1);
  const TimedGraph timed{std::move(g), {0}};
  EXPECT_EQ(computeThroughput(timed).status, ThroughputResult::Status::Unbounded);
}

TEST(ThroughputTest, SourceSinkWithoutBoundIsUnbounded) {
  // An unbounded source (no cycle anywhere) fires infinitely fast in the
  // self-timed semantics only when it has zero execution time; with
  // non-zero time its own serial firing bounds the rate.
  Graph g;
  const auto a = g.addActor("src");
  const auto b = g.addActor("snk");
  g.connect(a, 1, b, 1);
  const TimedGraph timed{std::move(g), {4, 1}};
  const auto result = computeThroughput(timed);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.iterationsPerCycle, Rational(1, 4));
}

TEST(ThroughputTest, DivergesOnUnboundedAccumulation) {
  // Figure 2 is consistent but not strongly bounded: A outpaces B, so
  // tokens pile up on a2b forever under self-timed execution. The
  // state-space engine must detect this instead of running away.
  const TimedGraph timed{test::figure2Graph(), {1, 1, 1}};
  ThroughputOptions options;
  options.engine = ThroughputEngine::StateSpace;
  EXPECT_EQ(computeThroughput(timed, options).status, ThroughputResult::Status::Diverged);
}

TEST(ThroughputTest, McrResolvesDivergentGraph) {
  // The unified entry point routes the same graph to the MCR engine,
  // which reports the exact long-run iteration rate: B is the
  // bottleneck with two serialized unit-time firings per iteration.
  const TimedGraph timed{test::figure2Graph(), {1, 1, 1}};
  const auto result = computeThroughput(timed);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.engine, ThroughputEngine::Mcr);
  EXPECT_EQ(result.iterationsPerCycle, Rational(1, 2));
}

TEST(ThroughputTest, Figure2WithCapacitiesMatchesMcr) {
  const TimedGraph timed{test::figure2Graph(), {1, 1, 1}};
  const auto capacities = test::liveCapacities(timed.graph);
  ASSERT_TRUE(capacities.has_value());
  const TimedGraph bounded = withCapacities(timed, *capacities);
  const auto result = computeThroughput(bounded);
  ASSERT_TRUE(result.ok());
  const auto mcr = computeThroughput(bounded, kForcedMcr);
  ASSERT_TRUE(mcr.ok());
  EXPECT_EQ(result.iterationsPerCycle, mcr.iterationsPerCycle);
}

TEST(ThroughputTest, MultiRatePipelineMatchesHandComputation) {
  // prod=2,cons=1, capacity 2: the source needs both slots free, so the
  // execution fully serializes: 10 (src) + 6 + 6 (two sink firings
  // releasing the slots) = period 22.
  Graph g = test::pipelineGraph(2, 1);
  const TimedGraph timed{std::move(g), {10, 6}};
  const auto result = computeThroughput(withCapacities(timed, {2}));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.iterationsPerCycle, Rational(1, 22));
}

TEST(ThroughputTest, AutoConcurrencyAllowsUnboundedSourceOverlap) {
  // A source without input constraints can overlap itself infinitely
  // when its self-concurrency is unlimited: unbounded throughput.
  Graph g = test::pipelineGraph(2, 1);
  TimedGraph timed{std::move(g), {10, 6}};
  timed.maxConcurrent = {0, 0};
  EXPECT_EQ(computeThroughput(timed).status, ThroughputResult::Status::Unbounded);
}

TEST(ThroughputTest, AutoConcurrencyRaisesThroughput) {
  // Same bounded pipeline: the sink's two firings per iteration overlap
  // when self-concurrency is unlimited (period 16), but serialize when
  // every actor is serialized (period 22).
  const auto makeTimed = [] {
    Graph g;
    const auto src = g.addActor("src");
    const auto snk = g.addActor("snk");
    g.connect(src, 2, snk, 1, 0, "link");
    g.connect(src, 1, src, 1, 1, "srcSelf");
    return TimedGraph{std::move(g), {10, 6}};
  };
  const auto serial = computeThroughput(withCapacities(makeTimed(), {2, 0}));
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(serial.iterationsPerCycle, Rational(1, 22));

  TimedGraph unlimited = withCapacities(makeTimed(), {2, 0});
  unlimited.maxConcurrent = {0, 0};
  const auto overlapped = computeThroughput(unlimited);
  ASSERT_TRUE(overlapped.ok());
  EXPECT_EQ(overlapped.iterationsPerCycle, Rational(1, 16));
}

TEST(ThroughputTest, ZeroTimeActorsAreFine) {
  // Zero-time "bookkeeping" actors (as in the communication model of
  // Figure 4) must not break the analysis as long as a timed cycle
  // exists.
  Graph g;
  const auto a = g.addActor("a");
  const auto s2 = g.addActor("s2");
  const auto b = g.addActor("b");
  g.connect(a, 1, s2, 1);
  g.connect(s2, 1, b, 1);
  g.connect(b, 1, a, 1, 1);
  const TimedGraph timed{std::move(g), {5, 0, 3}};
  const auto result = computeThroughput(timed);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.iterationsPerCycle, Rational(1, 8));
}

TEST(ThroughputTest, ExecTimeSizeMismatchThrows) {
  const TimedGraph timed{test::figure2Graph(), {1, 1}};
  EXPECT_THROW((void)computeThroughput(timed), AnalysisError);
}

// ---------------------------------------------------------------- Overflow

/// a -> b without tokens, b -> a with one token, WCET(b) = 1: the
/// period is WCET(a) + 1.
TimedGraph twoActorCycle(std::uint64_t wcetA) {
  Graph g;
  const auto a = g.addActor("a");
  const auto b = g.addActor("b");
  g.connect(a, 1, b, 1);
  g.connect(b, 1, a, 1, 1);
  return TimedGraph{std::move(g), {wcetA, 1}};
}

constexpr ThroughputEngine kExactEngines[] = {ThroughputEngine::Mcr,
                                              ThroughputEngine::StateSpace};

TEST(OverflowTest, HugeExecutionTimesThrowInsteadOfWrapping) {
  // 2^63 - 1 fits the expansion's int64 weights but not the cycle sum.
  for (const std::uint64_t wcet : {(std::uint64_t{1} << 63) - 1, (std::uint64_t{1} << 63) + 1,
                                   std::numeric_limits<std::uint64_t>::max() - 4}) {
    for (const ThroughputEngine engine : kExactEngines) {
      ThroughputOptions options;
      options.engine = engine;
      EXPECT_THROW((void)computeThroughput(twoActorCycle(wcet), options), AnalysisError)
          << "wcet " << wcet << " engine " << throughputEngineName(engine);
    }
  }
}

TEST(OverflowTest, LargeExecutionTimesStayExact) {
  constexpr std::int64_t kWcet = std::int64_t{1} << 62;
  for (const ThroughputEngine engine : kExactEngines) {
    ThroughputOptions options;
    options.engine = engine;
    const auto result = computeThroughput(twoActorCycle(std::uint64_t{kWcet}), options);
    ASSERT_TRUE(result.ok()) << throughputEngineName(engine);
    EXPECT_EQ(result.iterationsPerCycle, Rational(1, kWcet + 1)) << throughputEngineName(engine);
  }
}

TEST(OverflowTest, SolverRejectsMagnitudesPastItsBound) {
  // One self-loop: W = L = w and D = d, accepted iff 2 * w * d^2 < 2^124.
  const auto selfLoop = [](std::int64_t weight, std::int64_t delay) {
    CycleRatioEdge e;
    e.weight = weight;
    e.delay = delay;
    return std::vector<CycleRatioEdge>{e};
  };
  CycleRatioSolver solver;
  const auto below = solver.solve(1, selfLoop(std::int64_t{1} << 40, std::int64_t{1} << 41));
  ASSERT_TRUE(below.ok());
  EXPECT_EQ(below.ratio, Rational(1, 2));
  EXPECT_THROW((void)solver.solve(1, selfLoop(std::int64_t{1} << 41, std::int64_t{1} << 41)),
               AnalysisError);
}

// -------------------------------------------------------------- CycleRatio

TEST(CycleRatioTest, SimpleRing) {
  sdf::TimedGraph ring{test::ringGraph(3), {2, 3, 4}};
  const auto result = test::maxCycleRatioHoward(ring);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.ratio, Rational(9));  // (2+3+4)/1 token
}

TEST(CycleRatioTest, PicksHeaviestCycle) {
  Graph g;
  const auto a = g.addActor("a");
  const auto b = g.addActor("b");
  const auto c = g.addActor("c");
  // Cycle 1: a<->b with 1 token, weight 2+3=5.
  g.connect(a, 1, b, 1);
  g.connect(b, 1, a, 1, 1);
  // Cycle 2: a<->c with 2 tokens, weight 2+9=11 -> ratio 11/2 > 5.
  g.connect(a, 1, c, 1);
  g.connect(c, 1, a, 1, 2);
  sdf::TimedGraph timed{std::move(g), {2, 3, 9}};
  const auto result = test::maxCycleRatioHoward(timed);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.ratio, Rational(11, 2));

  // Two strongly connected components joined by one one-way edge, in
  // both directions: a low-ratio ring (la, lb: ratio 2) and a
  // high-ratio ring (hc, hd: ratio 9). Howard sees the whole graph,
  // including the cross edge, and must still report the heavier ring.
  for (const bool lowFeedsHigh : {true, false}) {
    Graph two;
    const auto la = two.addActor("la");
    const auto lb = two.addActor("lb");
    const auto hc = two.addActor("hc");
    const auto hd = two.addActor("hd");
    two.connect(la, 1, lb, 1);
    two.connect(lb, 1, la, 1, 1);
    two.connect(hc, 1, hd, 1);
    two.connect(hd, 1, hc, 1, 1);
    if (lowFeedsHigh) {
      two.connect(lb, 1, hc, 1);
    } else {
      two.connect(hd, 1, la, 1);
    }
    const sdf::TimedGraph split{std::move(two), {1, 1, 5, 4}};
    const auto howard = test::maxCycleRatioHoward(split);
    const auto brute = test::maxCycleRatioBruteForce(split);
    ASSERT_TRUE(howard.ok()) << "lowFeedsHigh " << lowFeedsHigh;
    ASSERT_TRUE(brute.ok()) << "lowFeedsHigh " << lowFeedsHigh;
    EXPECT_EQ(howard.ratio, brute.ratio) << "lowFeedsHigh " << lowFeedsHigh;
    EXPECT_EQ(howard.ratio, Rational(9)) << "lowFeedsHigh " << lowFeedsHigh;
  }
}

TEST(CycleRatioTest, DetectsDeadlockCycle) {
  Graph g;
  const auto a = g.addActor("a");
  const auto b = g.addActor("b");
  g.connect(a, 1, b, 1);
  g.connect(b, 1, a, 1);  // zero tokens on the whole cycle
  sdf::TimedGraph timed{std::move(g), {1, 1}};
  EXPECT_EQ(test::maxCycleRatioHoward(timed).status, CycleRatioResult::Status::Deadlock);
  EXPECT_EQ(test::maxCycleRatioBruteForce(timed).status, CycleRatioResult::Status::Deadlock);
}

TEST(CycleRatioTest, AcyclicGraph) {
  Graph g;
  const auto a = g.addActor("a");
  const auto b = g.addActor("b");
  g.connect(a, 1, b, 1);
  sdf::TimedGraph timed{std::move(g), {1, 1}};
  EXPECT_EQ(test::maxCycleRatioHoward(timed).status, CycleRatioResult::Status::Acyclic);
  EXPECT_EQ(test::maxCycleRatioBruteForce(timed).status, CycleRatioResult::Status::Acyclic);
}

TEST(CycleRatioTest, RejectsMultiRateGraphs) {
  sdf::TimedGraph timed{test::pipelineGraph(2, 1), {1, 1}};
  EXPECT_THROW((void)test::maxCycleRatioHoward(timed), AnalysisError);
  EXPECT_THROW((void)test::maxCycleRatioBruteForce(timed), AnalysisError);
}

TEST(CycleRatioTest, HowardMatchesBruteForceOnKnownGraph) {
  sdf::TimedGraph timed{test::figure2Graph(), {5, 3, 2}};
  const auto expansion = test::toHsdf(timed);
  const auto howard = test::maxCycleRatioHoward(expansion.hsdf);
  const auto brute = test::maxCycleRatioBruteForce(expansion.hsdf);
  ASSERT_TRUE(howard.ok());
  ASSERT_TRUE(brute.ok());
  EXPECT_EQ(howard.ratio, brute.ratio);
}

TEST(CycleRatioTest, ThroughputViaMcrMatchesStateSpace) {
  // A strongly connected graph recurs without extra capacities.
  const sdf::TimedGraph timed{test::ringGraph(4), {2, 5, 3, 7}};
  const auto mcr = computeThroughput(timed, kForcedMcr);
  const auto ss = computeThroughput(timed);
  ASSERT_TRUE(mcr.ok());
  ASSERT_TRUE(ss.ok());
  EXPECT_EQ(mcr.iterationsPerCycle, Rational(1, 17));
  EXPECT_EQ(mcr.iterationsPerCycle, ss.iterationsPerCycle);
}

TEST(CycleRatioTest, ThroughputViaMcrDetectsDeadlock) {
  Graph g;
  const auto a = g.addActor("a");
  const auto b = g.addActor("b");
  g.connect(a, 1, b, 1);
  g.connect(b, 1, a, 1);
  const sdf::TimedGraph timed{std::move(g), {1, 1}};
  EXPECT_EQ(computeThroughput(timed, kForcedMcr).status, ThroughputResult::Status::Deadlock);
}

// ----------------------------------------------------------- UnifiedEngine

TEST(EngineDispatchTest, AutoPicksMcrAndMatchesStateSpace) {
  const sdf::TimedGraph timed{test::ringGraph(4), {2, 5, 3, 7}};
  const auto viaAuto = computeThroughput(timed);
  ASSERT_TRUE(viaAuto.ok());
  EXPECT_EQ(viaAuto.engine, ThroughputEngine::Mcr);
  EXPECT_GT(viaAuto.hsdfActors, 0u);

  ThroughputOptions options;
  options.engine = ThroughputEngine::StateSpace;
  const auto viaStateSpace = computeThroughput(timed, options);
  ASSERT_TRUE(viaStateSpace.ok());
  EXPECT_EQ(viaStateSpace.engine, ThroughputEngine::StateSpace);
  EXPECT_EQ(viaAuto.iterationsPerCycle, viaStateSpace.iterationsPerCycle);
}

TEST(EngineDispatchTest, ExpansionSizeCapFallsBackToStateSpace) {
  const sdf::TimedGraph timed{test::oversizedExpansionCycle(), {3, 7}};
  const auto result = computeThroughput(timed);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.engine, ThroughputEngine::StateSpace);
  EXPECT_EQ(result.iterationsPerCycle, Rational(1, 10));
}

TEST(EngineDispatchTest, EngineNames) {
  EXPECT_STREQ(throughputEngineName(ThroughputEngine::Auto), "auto");
  EXPECT_STREQ(throughputEngineName(ThroughputEngine::StateSpace), "state-space");
  EXPECT_STREQ(throughputEngineName(ThroughputEngine::Mcr), "mcr");
}

/// Two actors sharing one resource in a fixed a-b order, plus an
/// unbound third actor closing the ring.
struct SharedResourceFixture {
  sdf::TimedGraph timed;
  ResourceConstraints resources;

  SharedResourceFixture() {
    Graph g;
    const auto a = g.addActor("a");
    const auto b = g.addActor("b");
    const auto c = g.addActor("c");
    g.connect(a, 1, b, 1);
    g.connect(b, 1, c, 1);
    g.connect(c, 1, a, 1, 2);
    timed = TimedGraph{std::move(g), {4, 6, 5}};
    resources.actorResource = {0, 0, ResourceConstraints::kUnbound};
    resources.staticOrder = {{a, b}};
  }
};

TEST(EngineDispatchTest, ResourceConstrainedMcrMatchesStateSpace) {
  const SharedResourceFixture fx;
  const auto viaAuto = computeThroughput(fx.timed, fx.resources);
  ASSERT_TRUE(viaAuto.ok());
  EXPECT_EQ(viaAuto.engine, ThroughputEngine::Mcr);

  ThroughputOptions options;
  options.engine = ThroughputEngine::StateSpace;
  const auto viaStateSpace = computeThroughput(fx.timed, fx.resources, options);
  ASSERT_TRUE(viaStateSpace.ok());
  EXPECT_EQ(viaAuto.iterationsPerCycle, viaStateSpace.iterationsPerCycle);
  // The shared resource serializes a and b: its schedule cycle carries
  // one wrap-around token over 4 + 6 = 10 cycles of work, dominating
  // the ring cycle (15 cycles over 2 tokens).
  EXPECT_EQ(viaAuto.iterationsPerCycle, Rational(1, 10));
}

TEST(EngineDispatchTest, PartialScheduleFallsBackToStateSpace) {
  // A schedule covering only one of b's two firings per iteration has
  // no exact MCR encoding; Auto must fall back.
  Graph g;
  const auto a = g.addActor("a");
  const auto b = g.addActor("b");
  g.connect(a, 2, b, 1);
  g.connect(b, 1, a, 2, 2, "back");
  const TimedGraph timed{std::move(g), {3, 4}};
  ResourceConstraints resources;
  resources.actorResource = {0, 0};
  resources.staticOrder = {{a, b}};  // b fires twice per iteration (q = [1, 2])
  const auto result = computeThroughput(timed, resources);
  EXPECT_EQ(result.engine, ThroughputEngine::StateSpace);

  ThroughputOptions forced;
  forced.engine = ThroughputEngine::Mcr;
  EXPECT_THROW((void)computeThroughput(timed, resources, forced), AnalysisError);
}

TEST(EngineDispatchTest, ScheduledDeadlockAgreesAcrossEngines) {
  // Schedule order b-before-a while only a can fire first: both engines
  // must report deadlock.
  Graph g;
  const auto a = g.addActor("a");
  const auto b = g.addActor("b");
  g.connect(a, 1, b, 1);
  g.connect(b, 1, a, 1, 1);
  const TimedGraph timed{std::move(g), {2, 3}};
  ResourceConstraints resources;
  resources.actorResource = {0, 0};
  resources.staticOrder = {{b, a}};
  const auto viaAuto = computeThroughput(timed, resources);
  EXPECT_EQ(viaAuto.status, ThroughputResult::Status::Deadlock);
  EXPECT_EQ(viaAuto.engine, ThroughputEngine::Mcr);

  ThroughputOptions options;
  options.engine = ThroughputEngine::StateSpace;
  EXPECT_EQ(computeThroughput(timed, resources, options).status,
            ThroughputResult::Status::Deadlock);
}

TEST(EngineDispatchTest, StateSpaceStepCapEndsInStepLimit) {
  // a fires T times, one per cycle, before b's first 2T-cycle firing
  // ends: a transient longer than the cap of 2^20 quiescent steps. Each
  // step stores one new state, so the engine stops with exactly 2^20.
  constexpr std::uint64_t kTokens = 1u << 20;
  Graph g;
  const auto a = g.addActor("a");
  const auto b = g.addActor("b");
  g.connect(a, 1, b, 1);
  g.connect(b, 1, a, 1, kTokens);
  const TimedGraph timed{std::move(g), {1, 2 * kTokens}};
  ThroughputOptions forced;
  forced.engine = ThroughputEngine::StateSpace;
  const auto result = computeThroughput(timed, forced);
  EXPECT_EQ(result.status, ThroughputResult::Status::StepLimit);
  EXPECT_EQ(result.statesExplored, std::uint64_t{1} << 20);
}

// ----------------------------------------------------------- HsdfEdgeCases

TEST(HsdfEdgeCaseTest, SelfLoopWithExcessTokens) {
  // Initial tokens exceeding the consumption rate: three tokens in a
  // two-actor ring let both actors pipeline fully.
  Graph g;
  const auto a = g.addActor("a");
  const auto b = g.addActor("b");
  g.connect(a, 1, b, 1);
  g.connect(b, 1, a, 1, 3, "ring");  // 3 tokens > consRate 1
  const TimedGraph timed{std::move(g), {4, 6}};
  const auto mcr = computeThroughput(timed, kForcedMcr);
  ThroughputOptions options;
  options.engine = ThroughputEngine::StateSpace;
  const auto ss = computeThroughput(timed, options);
  ASSERT_TRUE(mcr.ok());
  ASSERT_TRUE(ss.ok());
  EXPECT_EQ(mcr.iterationsPerCycle, ss.iterationsPerCycle);
  EXPECT_EQ(mcr.iterationsPerCycle, Rational(1, 6));  // enough tokens: the slower actor dominates
}

TEST(HsdfEdgeCaseTest, MultiRateChainWithLargeRepetitionVector) {
  // Rates 5:3 then 1:3 give q = [9, 15, 5]: 29 HSDF copies. Bound the
  // chain with capacities so the state-space engine recurs, and check
  // both engines produce the identical exact rational.
  Graph g;
  const auto a = g.addActor("a");
  const auto b = g.addActor("b");
  const auto c = g.addActor("c");
  g.connect(a, 5, b, 3, 0, "ab");
  g.connect(b, 1, c, 3, 0, "bc");
  const TimedGraph timed{std::move(g), {7, 2, 3}};
  const auto capacities = test::liveCapacities(timed.graph);
  ASSERT_TRUE(capacities.has_value());
  const TimedGraph bounded = withCapacities(timed, *capacities);

  const auto viaAuto = computeThroughput(bounded);
  EXPECT_EQ(viaAuto.engine, ThroughputEngine::Mcr);
  ThroughputOptions options;
  options.engine = ThroughputEngine::StateSpace;
  const auto ss = computeThroughput(bounded, options);
  ASSERT_TRUE(viaAuto.ok());
  ASSERT_TRUE(ss.ok());
  EXPECT_EQ(viaAuto.iterationsPerCycle, ss.iterationsPerCycle);
}

TEST(HsdfEdgeCaseTest, InitialTokensExceedingConsumptionRate) {
  // d > cons on a multi-rate channel exercises the "initial token"
  // branch of the expansion for several firings of the consumer.
  Graph g;
  const auto a = g.addActor("a");
  const auto b = g.addActor("b");
  g.connect(a, 2, b, 3, 7, "ab");  // 7 initial tokens, cons 3
  g.connect(b, 3, a, 2, 0, "ba");  // mirrored rates keep q = [3, 2]
  const TimedGraph timed{std::move(g), {5, 4}};
  const auto mcr = computeThroughput(timed, kForcedMcr);
  ThroughputOptions options;
  options.engine = ThroughputEngine::StateSpace;
  const auto ss = computeThroughput(timed, options);
  ASSERT_TRUE(mcr.ok());
  ASSERT_TRUE(ss.ok());
  EXPECT_EQ(mcr.iterationsPerCycle, ss.iterationsPerCycle);
}

TEST(HsdfEdgeCaseTest, PureSelfLoopActor) {
  // A single actor whose only channel is a multi-token self-loop.
  Graph g;
  const auto a = g.addActor("a");
  g.connect(a, 2, a, 2, 4, "self");
  const TimedGraph timed{std::move(g), {9}};
  const auto mcr = computeThroughput(timed, kForcedMcr);
  ThroughputOptions options;
  options.engine = ThroughputEngine::StateSpace;
  const auto ss = computeThroughput(timed, options);
  ASSERT_TRUE(mcr.ok());
  ASSERT_TRUE(ss.ok());
  EXPECT_EQ(mcr.iterationsPerCycle, ss.iterationsPerCycle);
  EXPECT_EQ(mcr.iterationsPerCycle, Rational(1, 9));  // serialized by the seq constraint
}

// ---------------------------------------------------------------- Deadlock

TEST(DeadlockTest, Figure2IsLive) { EXPECT_TRUE(test::isDeadlockFree(test::figure2Graph())); }

TEST(DeadlockTest, TokenlessRingDeadlocks) {
  Graph g;
  const auto a = g.addActor("a");
  const auto b = g.addActor("b");
  g.connect(a, 1, b, 1);
  g.connect(b, 1, a, 1);  // no initial tokens anywhere
  EXPECT_FALSE(test::isDeadlockFree(g));
}

TEST(DeadlockTest, RingWithTokenIsLive) { EXPECT_TRUE(test::isDeadlockFree(test::ringGraph(4))); }

TEST(DeadlockTest, SelfEdgeWithoutTokenDeadlocks) {
  Graph g;
  const auto a = g.addActor("a");
  g.connect(a, 1, a, 1, 0);
  EXPECT_FALSE(test::isDeadlockFree(g));
}

TEST(DeadlockTest, MultiRateCycleNeedsEnoughTokens) {
  Graph g;
  const auto a = g.addActor("a");
  const auto b = g.addActor("b");
  g.connect(a, 2, b, 3);
  g.connect(b, 3, a, 2, 1);  // one token is not enough for a to fire (needs 2)
  EXPECT_FALSE(test::isDeadlockFree(g));

  Graph g2;
  const auto a2 = g2.addActor("a");
  const auto b2 = g2.addActor("b");
  g2.connect(a2, 2, b2, 3);
  g2.connect(b2, 3, a2, 2, 6);
  EXPECT_TRUE(test::isDeadlockFree(g2));
}

TEST(DeadlockTest, RepetitionVectorOfTheWrongSizeThrows) {
  // An empty vector too: as the executor's budget it would never run
  // out, and a live ring would fire forever.
  for (const std::vector<std::uint64_t>& q : {std::vector<std::uint64_t>{1, 1},
                                              std::vector<std::uint64_t>{}}) {
    EXPECT_THROW((void)isDeadlockFree(test::ringGraph(3), q), AnalysisError) << q.size();
  }
}

// ------------------------------------------------------------------ Buffer

TEST(BufferTest, WithCapacitiesAddsBackEdges) {
  const Graph g = test::pipelineGraph(2, 3);
  std::vector<sdf::ChannelId> spaceEdges;
  const Graph capped = withCapacities(g, {6}, &spaceEdges);
  EXPECT_EQ(capped.channelCount(), 2u);
  const auto space = capped.findChannel("link_space");
  ASSERT_TRUE(space.has_value());
  EXPECT_EQ(spaceEdges, std::vector<sdf::ChannelId>{*space});
  EXPECT_EQ(capped.channel(*space).initialTokens, 6u);
  EXPECT_EQ(capped.channel(*space).prodRate, 3u);
  EXPECT_EQ(capped.channel(*space).consRate, 2u);
}

TEST(BufferTest, WithCapacitiesPreservesConcurrencyLimits) {
  // Regression: the TimedGraph overload once rebuilt the struct field by
  // field and dropped maxConcurrent, silently serializing every actor of
  // the capacitated graph (limit-0 comm-model latency stages included).
  Graph g = test::pipelineGraph(1, 1);
  TimedGraph timed{std::move(g), {5, 7}};
  timed.maxConcurrent = {0, 3};
  const TimedGraph capped = withCapacities(timed, {4});
  EXPECT_EQ(capped.maxConcurrent, timed.maxConcurrent);
  EXPECT_EQ(capped.execTime, timed.execTime);
  EXPECT_EQ(capped.graph.channelCount(), 2u);
}

TEST(BufferTest, CapacitatedPipelinedStageKeepsItsOverlap) {
  // src -> lat -> dst with a pipelined (limit-0) latency stage, both
  // channels capacitated to 4. The critical cycle runs through a space
  // back-edge: 4 tokens over src+lat (or lat+dst) = 101 cycles of work,
  // so throughput is 4/101. The old dropped-limit rebuild serialized
  // lat, whose implicit self-edge then dominated at 1/100.
  Graph g;
  const auto src = g.addActor("src");
  const auto lat = g.addActor("lat");
  const auto dst = g.addActor("dst");
  g.connect(src, 1, lat, 1, 0, "in");
  g.connect(lat, 1, dst, 1, 0, "out");
  TimedGraph timed{std::move(g), {1, 100, 1}};
  timed.maxConcurrent = {1, 0, 1};
  const TimedGraph capped = withCapacities(timed, {4, 4});

  const auto viaMcr = computeThroughput(capped);
  ASSERT_TRUE(viaMcr.ok());
  EXPECT_EQ(viaMcr.engine, ThroughputEngine::Mcr);
  EXPECT_EQ(viaMcr.iterationsPerCycle, Rational(4, 101));

  ThroughputOptions stateSpace;
  stateSpace.engine = ThroughputEngine::StateSpace;
  const auto reference = computeThroughput(capped, stateSpace);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(reference.iterationsPerCycle, viaMcr.iterationsPerCycle);

  // The serialized reading is strictly slower — preserving the limit is
  // a real calibration change, not a cosmetic one.
  TimedGraph serialized = capped;
  serialized.maxConcurrent.clear();
  const auto slow = computeThroughput(serialized);
  ASSERT_TRUE(slow.ok());
  EXPECT_EQ(slow.iterationsPerCycle, Rational(1, 100));
  EXPECT_LT(slow.iterationsPerCycle, viaMcr.iterationsPerCycle);
}

TEST(BufferTest, ZeroCapacityMeansUnbounded) {
  const Graph g = test::pipelineGraph(1, 1);
  const Graph capped = withCapacities(g, {0});
  EXPECT_EQ(capped.channelCount(), 1u);
}

TEST(BufferTest, SelfEdgesAreNeverCapacitated) {
  Graph g;
  const auto a = g.addActor("a");
  g.connect(a, 1, a, 1, 1);
  std::vector<sdf::ChannelId> spaceEdges;
  const Graph capped = withCapacities(g, {4}, &spaceEdges);
  EXPECT_EQ(capped.channelCount(), 1u);
  EXPECT_EQ(spaceEdges, std::vector<sdf::ChannelId>{sdf::kInvalidChannel});
}

TEST(BufferTest, CapacityBelowInitialTokensThrows) {
  const Graph g = test::pipelineGraph(1, 1, /*initialTokens=*/5);
  EXPECT_THROW(withCapacities(g, {3}), ModelError);
}

TEST(BufferTest, CapacityBelowRateThrows) {
  const Graph g = test::pipelineGraph(4, 1);
  EXPECT_THROW(withCapacities(g, {2}), ModelError);
}

TEST(BufferTest, LowerBoundFormula) {
  sdf::Channel c;
  c.prodRate = 2;
  c.consRate = 3;
  c.initialTokens = 0;
  // 2 + 3 - gcd(2,3) + 0 = 4
  EXPECT_EQ(capacityLowerBound(c), 4u);
  c.prodRate = 4;
  c.consRate = 4;
  EXPECT_EQ(capacityLowerBound(c), 4u);
}

TEST(BufferTest, ThroughputIsMonotoneInCapacity) {
  Graph g;
  const auto a = g.addActor("a");
  const auto b = g.addActor("b");
  g.connect(a, 1, b, 1, 0, "ab");
  const TimedGraph timed{std::move(g), {2, 5}};
  Rational previous(0);
  for (std::uint64_t cap = 1; cap <= 5; ++cap) {
    const auto result = computeThroughput(withCapacities(timed, {cap}));
    ASSERT_TRUE(result.ok());
    EXPECT_GE(result.iterationsPerCycle, previous);
    previous = result.iterationsPerCycle;
  }
}

// ------------------------------------------------------------- Incremental

TEST(IncrementalTest, PatchedTokensMatchFromScratch) {
  // Ring a -> b -> a; the back-edge acts as the capacity. Growing it
  // through the context must track a from-scratch analysis exactly.
  Graph g;
  const auto a = g.addActor("a");
  const auto b = g.addActor("b");
  g.connect(a, 1, b, 1, 0, "fwd");
  const auto back = g.connect(b, 1, a, 1, 1, "back");
  TimedGraph timed{std::move(g), {3, 7}};

  IncrementalThroughput incremental(timed);
  EXPECT_TRUE(incremental.onFastPath());
  for (std::uint64_t tokens = 1; tokens <= 4; ++tokens) {
    timed.graph.setInitialTokens(back, tokens);
    incremental.setInitialTokens(back, tokens);
    const auto fresh = computeThroughput(timed);
    const auto patched = incremental.compute();
    ASSERT_EQ(patched.status, fresh.status) << "tokens " << tokens;
    EXPECT_EQ(patched.iterationsPerCycle, fresh.iterationsPerCycle) << "tokens " << tokens;
    EXPECT_EQ(patched.engine, ThroughputEngine::Mcr);
  }
}

TEST(IncrementalTest, DetectsDeadlockAfterTokenRemoval) {
  Graph g;
  const auto a = g.addActor("a");
  const auto b = g.addActor("b");
  g.connect(a, 1, b, 1, 0, "fwd");
  const auto back = g.connect(b, 1, a, 1, 1, "back");
  const TimedGraph timed{std::move(g), {3, 7}};
  IncrementalThroughput incremental(timed);
  ASSERT_TRUE(incremental.compute().ok());
  incremental.setInitialTokens(back, 0);
  EXPECT_EQ(incremental.compute().status, ThroughputResult::Status::Deadlock);
  incremental.setInitialTokens(back, 2);
  EXPECT_TRUE(incremental.compute().ok());
}

TEST(IncrementalTest, OversizedExpansionFallsBackToStateSpace) {
  const TimedGraph timed{test::oversizedExpansionCycle(), {3, 7}};
  IncrementalThroughput incremental(timed);
  EXPECT_FALSE(incremental.onFastPath());
  const auto viaContext = incremental.compute();
  const auto fresh = computeThroughput(timed);
  EXPECT_EQ(viaContext.engine, ThroughputEngine::StateSpace);
  ASSERT_EQ(viaContext.status, fresh.status);
  EXPECT_EQ(viaContext.iterationsPerCycle, fresh.iterationsPerCycle);
}

TEST(IncrementalTest, ForcedMcrOnAPartialScheduleThrowsFromTheConstructor) {
  // b fires twice per iteration (q = [1, 2]) but appears once in the
  // order, which the expansion cannot encode: the context decides its
  // engine when it is built, so the forced MCR engine throws there.
  Graph g;
  const auto a = g.addActor("a");
  const auto b = g.addActor("b");
  g.connect(a, 2, b, 1);
  g.connect(b, 1, a, 2, 2, "back");
  const TimedGraph timed{std::move(g), {3, 4}};
  ResourceConstraints resources;
  resources.actorResource = {0, 0};
  resources.staticOrder = {{a, b}};
  EXPECT_THROW((void)IncrementalThroughput(timed, &resources, kForcedMcr), AnalysisError);

  IncrementalThroughput automatic(timed, &resources);
  EXPECT_FALSE(automatic.onFastPath());
  EXPECT_EQ(automatic.compute().engine, ThroughputEngine::StateSpace);
}

TEST(IncrementalTest, ForcedMcrAboveTheCapBuildsTheExpansionOnce) {
  // Forced MCR ignores the expansion size cap, as computeThroughput
  // does: the context builds the 10^6-edge expansion in its constructor
  // and patches it.
  TimedGraph timed{test::oversizedExpansionCycle(), {3, 7}};
  const sdf::ChannelId back = 1;
  IncrementalThroughput incremental(timed, nullptr, kForcedMcr);
  EXPECT_TRUE(incremental.onFastPath());
  const std::uint64_t tokens = 2 * timed.graph.channel(back).initialTokens;
  timed.graph.setInitialTokens(back, tokens);
  incremental.setInitialTokens(back, tokens);
  const auto fresh = computeThroughput(timed, kForcedMcr);
  const auto patched = incremental.compute();
  ASSERT_TRUE(patched.ok());
  EXPECT_EQ(patched.engine, ThroughputEngine::Mcr);
  EXPECT_EQ(patched.iterationsPerCycle, fresh.iterationsPerCycle);
  EXPECT_EQ(patched.iterationsPerCycle, Rational(1, 7));
  EXPECT_EQ(patched.hsdfActors, fresh.hsdfActors);
  EXPECT_EQ(patched.expansionNanos, 0u);
}

TEST(IncrementalTest, OutOfRangeChannelThrows) {
  Graph g;
  const auto a = g.addActor("a");
  g.connect(a, 1, a, 1, 1);
  IncrementalThroughput incremental(TimedGraph{std::move(g), {1}});
  EXPECT_THROW((void)incremental.setInitialTokens(99, 1), AnalysisError);
}

// --------------------------------------------------- Concurrency limits > 1

TEST(ThroughputTest, FiniteConcurrencyLimitStaysOnFastPathAndMatches) {
  // One actor, limit 2, self-timed: two overlapping firings of 10
  // cycles each -> 2 iterations per 10 cycles.
  Graph g;
  g.addActor("a");
  TimedGraph timed{std::move(g), {10}};
  timed.maxConcurrent = {2};
  const auto viaMcr = computeThroughput(timed);
  EXPECT_EQ(viaMcr.engine, ThroughputEngine::Mcr);
  ASSERT_TRUE(viaMcr.ok());
  EXPECT_EQ(viaMcr.iterationsPerCycle, Rational(2, 10));

  ThroughputOptions stateSpace;
  stateSpace.engine = ThroughputEngine::StateSpace;
  const auto reference = computeThroughput(timed, stateSpace);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(reference.iterationsPerCycle, viaMcr.iterationsPerCycle);
}

TEST(ThroughputTest, ConcurrencyLimitBoundsPipelineDepth) {
  // Producer (limit 3) feeding a consumer through a capacitated channel:
  // the limit gates how many productions can be in flight.
  for (const std::uint32_t limit : {1u, 2u, 3u}) {
    Graph g;
    const auto p = g.addActor("p");
    const auto c = g.addActor("c");
    g.connect(p, 1, c, 1, 0, "fwd");
    g.connect(c, 1, p, 1, 4, "space");
    TimedGraph timed{std::move(g), {4, 12}};
    timed.maxConcurrent = {limit, 1};
    const auto viaMcr = computeThroughput(timed);
    ASSERT_TRUE(viaMcr.ok());
    EXPECT_EQ(viaMcr.engine, ThroughputEngine::Mcr);
    ThroughputOptions stateSpace;
    stateSpace.engine = ThroughputEngine::StateSpace;
    const auto reference = computeThroughput(timed, stateSpace);
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(viaMcr.iterationsPerCycle, reference.iterationsPerCycle) << "limit " << limit;
  }
}

// ------------------------------------------------------ State-space golden

/// One variant of the state-space golden corpus: how many runs ended in
/// each status, and an FNV-1a digest of every run's status, rational,
/// statesExplored and periodCycles, in corpus order.
struct StateSpaceGolden {
  std::string variant;
  std::array<std::uint64_t, 6> statusCounts{};  ///< indexed by Status
  std::uint64_t digest = test::Fnv1a{}.hash;

  void add(const ThroughputResult& result) {
    ++statusCounts[static_cast<std::size_t>(result.status)];
    test::Fnv1a fnv{digest};
    fnv.mix(static_cast<std::uint64_t>(result.status));
    fnv.mix(static_cast<std::uint64_t>(result.iterationsPerCycle.num()));
    fnv.mix(static_cast<std::uint64_t>(result.iterationsPerCycle.den()));
    fnv.mix(result.statesExplored);
    fnv.mix(result.periodCycles);
    digest = fnv.hash;
  }

  bool operator==(const StateSpaceGolden&) const = default;
};

std::ostream& operator<<(std::ostream& out, const StateSpaceGolden& golden) {
  out << "{\"" << golden.variant << "\", {";
  for (std::size_t i = 0; i < golden.statusCounts.size(); ++i) {
    out << (i == 0 ? "" : ", ") << golden.statusCounts[i] << "u";
  }
  return out << "}, 0x" << std::hex << golden.digest << std::dec << "u},";
}

/// The corpus: seeded random graphs (0-20 cycles per actor, a fifth of
/// them not provisioned to be live) run by the forced state-space engine
/// plain, capacitated to test::liveCapacities, and capacitated with
/// every self-concurrency limit lifted; then random static-order rings,
/// forced and Auto.
std::vector<StateSpaceGolden> exploreStateSpaceCorpus() {
  std::vector<StateSpaceGolden> table = {{"plain"},
                                         {"capacitated"},
                                         {"capacitated_auto_concurrency"},
                                         {"ring_state_space"},
                                         {"ring_auto"}};
  ThroughputOptions forced;
  forced.engine = ThroughputEngine::StateSpace;
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    Rng rng(seed * 7907);
    test::RandomGraphOptions opt;
    opt.maxActors = 5;
    opt.maxQ = 3;
    opt.ensureLive = !rng.chance(0.2);
    const Graph g = test::randomConsistentGraph(rng, opt);
    const TimedGraph plain{g, test::randomExecTimes(rng, g, 0, 20)};
    table[0].add(computeThroughput(plain, forced));
    const auto capacities = test::liveCapacities(g);
    if (!capacities) {
      continue;
    }
    const TimedGraph capacitated = withCapacities(plain, *capacities);
    table[1].add(computeThroughput(capacitated, forced));
    TimedGraph unlimited = capacitated;
    unlimited.maxConcurrent.assign(unlimited.graph.actorCount(), 0);
    table[2].add(computeThroughput(unlimited, forced));
  }
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed * 104729);
    const test::StaticOrderRing ring = test::randomStaticOrderRing(rng);
    table[3].add(computeThroughput(ring.timed, ring.resources, forced));
    table[4].add(computeThroughput(ring.timed, ring.resources));
  }
  return table;
}

TEST(StateSpaceGoldenTest, CorpusMatchesPinnedVerdicts) {
  // Any change to the self-timed firing rules, the state key, the
  // livelock bound or the divergence guard moves a count or a digest
  // here. Status order: Ok, Deadlock, Inconsistent, Unbounded,
  // Diverged, StepLimit.
  const std::vector<StateSpaceGolden> pinned = {
      {"plain", {68u, 13u, 0u, 6u, 63u, 0u}, 0xd9cc100ba20b1556u},
      {"capacitated", {130u, 0u, 0u, 0u, 0u, 0u}, 0xfb0076ce9cb6c23fu},
      {"capacitated_auto_concurrency", {130u, 0u, 0u, 0u, 0u, 0u}, 0xda1091d39fcca3b5u},
      {"ring_state_space", {47u, 13u, 0u, 0u, 0u, 0u}, 0xcfa074383d2acd9fu},
      {"ring_auto", {47u, 13u, 0u, 0u, 0u, 0u}, 0x65b7900365f15021u},
  };
  const std::vector<StateSpaceGolden> table = exploreStateSpaceCorpus();
  ASSERT_EQ(table.size(), pinned.size());
  for (std::size_t i = 0; i < table.size(); ++i) {
    EXPECT_EQ(table[i], pinned[i]);
  }
}

// ------------------------------------------------------ Token-game golden

/// The deadlock check over seeded random consistent graphs (2-8
/// actors, q up to 6, a third of them not provisioned to be live): the
/// number of live graphs, and a digest of every deadlock verdict, in
/// corpus order.
TEST(TokenGameGoldenTest, CorpusMatchesPinnedVerdictsAndCapacities) {
  std::uint64_t live = 0;
  test::Fnv1a fnv;
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
    Rng rng(seed * 6151);
    test::RandomGraphOptions opt;
    opt.maxActors = 8;
    opt.maxQ = 6;
    opt.ensureLive = !rng.chance(1.0 / 3.0);
    const Graph g = test::randomConsistentGraph(rng, opt);
    const bool deadlockFree = test::isDeadlockFree(g);
    live += deadlockFree ? 1 : 0;
    fnv.mix(deadlockFree ? 1 : 0);
  }
  EXPECT_EQ(live, 1540u);
  EXPECT_EQ(fnv.hash, 0xe0eff77c4f6b49a5u);
}

TEST(TokenGameGoldenTest, IterationLongerThanTheLivelockBoundIsLive) {
  // One iteration is 5,001 firings, more than the 4,480 starts plus
  // retirements the executor allows in one instant of this graph: a
  // token game of zero-time firings would stop short of it.
  EXPECT_TRUE(test::isDeadlockFree(test::pipelineGraph(5000, 1)));
}

// -------------------------------------------------- Engine-decision golden

/// One graph of the engine-decision corpus, with the static orders it
/// runs under (none for most).
struct DecisionCase {
  TimedGraph timed;
  std::optional<ResourceConstraints> resources;
};

/// The corpus: seeded random graphs (2-5 actors, q up to 3, 0-20 cycles
/// per actor, 30 % of them not provisioned to be live, half with
/// self-concurrency limits in [0, 2]), each plain and capacitated to
/// test::liveCapacities; random static-order rings (exact,
/// first-firing-only and shuffled orders); inconsistent graphs; and the
/// empty graph.
std::vector<DecisionCase> engineDecisionCorpus() {
  std::vector<DecisionCase> corpus;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed * 7919);
    test::RandomGraphOptions opt;
    opt.maxActors = 5;
    opt.maxQ = 3;
    opt.ensureLive = !rng.chance(0.3);
    const Graph g = test::randomConsistentGraph(rng, opt);
    TimedGraph plain{g, test::randomExecTimes(rng, g, 0, 20)};
    if (rng.chance(0.5)) {
      plain.maxConcurrent.resize(g.actorCount());
      for (auto& limit : plain.maxConcurrent) {
        limit = static_cast<std::uint32_t>(rng.range(0, 2));
      }
    }
    if (const auto capacities = test::liveCapacities(g)) {
      corpus.push_back({withCapacities(plain, *capacities), std::nullopt});
    }
    corpus.push_back({std::move(plain), std::nullopt});
  }
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed * 15485863);
    test::StaticOrderRing ring = test::randomStaticOrderRing(rng);
    corpus.push_back({std::move(ring.timed), std::move(ring.resources)});
  }
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 2003);
    Graph g = test::randomConsistentGraph(rng);
    g.connect(0, 1, 1, 1);
    g.connect(0, 2, 1, 1);  // contradicts the channel above
    std::vector<std::uint64_t> execTimes = test::randomExecTimes(rng, g);
    corpus.push_back({TimedGraph{std::move(g), std::move(execTimes)}, std::nullopt});
  }
  corpus.push_back({TimedGraph{}, std::nullopt});
  return corpus;
}

TEST(EngineDecisionGoldenTest, CorpusMatchesPinnedVerdicts) {
  // Every graph of the corpus under three engine settings, through
  // computeThroughput and through an IncrementalThroughput context
  // whose tokens are patched twice. The digest covers each result's
  // status, rational, engine, statesExplored, periodCycles and
  // hsdfActors, or one marker per AnalysisError. A context's
  // construction and its computes share one try, so a throw digests
  // the same whether the constructor or a compute() raises it.
  ThroughputOptions forcedStateSpace;
  forcedStateSpace.engine = ThroughputEngine::StateSpace;
  const std::array<ThroughputOptions, 3> settings = {ThroughputOptions{}, kForcedMcr,
                                                     forcedStateSpace};
  test::Fnv1a fnv;
  std::uint64_t results = 0;
  std::uint64_t errors = 0;
  const auto mix = [&](const ThroughputResult& result) {
    ++results;
    fnv.mix(static_cast<std::uint64_t>(result.status));
    fnv.mix(static_cast<std::uint64_t>(result.iterationsPerCycle.num()));
    fnv.mix(static_cast<std::uint64_t>(result.iterationsPerCycle.den()));
    fnv.mix(static_cast<std::uint64_t>(result.engine));
    fnv.mix(result.statesExplored);
    fnv.mix(result.periodCycles);
    fnv.mix(result.hsdfActors);
  };
  const auto guarded = [&](const auto& analyses) {
    try {
      analyses();
    } catch (const AnalysisError&) {
      ++errors;
      fnv.mix(std::numeric_limits<std::uint64_t>::max());
    }
  };
  for (const DecisionCase& c : engineDecisionCorpus()) {
    const ResourceConstraints* resources = c.resources ? &*c.resources : nullptr;
    const Graph& g = c.timed.graph;
    for (const ThroughputOptions& options : settings) {
      guarded([&] {
        mix(resources != nullptr ? computeThroughput(c.timed, *resources, options)
                                 : computeThroughput(c.timed, options));
      });
      guarded([&] {
        IncrementalThroughput context(c.timed, resources, options);
        mix(context.compute());
        if (g.channelCount() == 0) {
          return;
        }
        const sdf::ChannelId last = g.channelCount() - 1;
        context.setInitialTokens(last, g.channel(last).initialTokens + g.channel(last).prodRate);
        mix(context.compute());
        context.setInitialTokens(0, 0);
        mix(context.compute());
      });
    }
  }
  EXPECT_EQ(results, 1450u);
  EXPECT_EQ(errors, 22u);
  EXPECT_EQ(fnv.hash, 0x132af48235b110au);
}

}  // namespace
}  // namespace mamps::analysis
