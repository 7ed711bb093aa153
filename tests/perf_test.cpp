// Property wall for the flat-data analysis core: every performance
// mechanism — the flat HSDF expansion, Howard warm starts within and
// across design points, the incremental mapping pipeline, and the
// parallel DSE sweep — must be *result-invisible*. Each test sweeps 125
// random seeds and requires bit-identical ThroughputResults (rational,
// schedules, buffers, statesExplored) between the optimized path and a
// reference path: the graph-materializing expansion and cold solver of
// tests/hsdf_oracle.hpp, a cold solver, or the from-scratch mapping
// pipeline (MappingOptions::incrementalAnalysis off). Per the contract
// in analysis/throughput.hpp, the comparison covers every field
// *except* the wall-clock phase counters (expansionNanos/solveNanos),
// which are measurements, not results.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/incremental.hpp"
#include "analysis/mcm.hpp"
#include "analysis/throughput.hpp"
#include "mapping/dse.hpp"
#include "mapping/flow.hpp"
#include "hsdf_oracle.hpp"
#include "platform/arch_template.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace mamps::analysis {
namespace {

constexpr std::uint64_t kSeeds = 125;

/// computeThroughput() with the MCR engine forced.
constexpr ThroughputOptions kForcedMcr{.engine = ThroughputEngine::Mcr};

/// Full-field equality of two ThroughputResults, excluding the
/// wall-clock phase counters (the one documented exception).
void expectSameResult(const ThroughputResult& got, const ThroughputResult& want,
                      std::uint64_t seed, const char* what) {
  ASSERT_EQ(got.status, want.status) << what << " seed " << seed;
  EXPECT_EQ(got.iterationsPerCycle, want.iterationsPerCycle) << what << " seed " << seed;
  EXPECT_EQ(got.engine, want.engine) << what << " seed " << seed;
  EXPECT_EQ(got.statesExplored, want.statesExplored) << what << " seed " << seed;
  EXPECT_EQ(got.periodCycles, want.periodCycles) << what << " seed " << seed;
  EXPECT_EQ(got.hsdfActors, want.hsdfActors) << what << " seed " << seed;
}

TEST(PerfWall, FlatExpansionMatchesLegacyHsdfExpansion) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng(seed);
    const sdf::Graph g = test::randomConsistentGraph(rng);
    const sdf::TimedGraph timed{g, test::randomExecTimes(rng, g)};

    const ThroughputResult flat = computeThroughput(timed, kForcedMcr);

    // Reference: the graph-materializing expansion with collapsed
    // parallel edges feeding a cold solver.
    const test::HsdfExpansion legacy = test::toHsdf(timed);
    ASSERT_EQ(flat.hsdfActors, legacy.hsdf.graph.actorCount()) << "seed " << seed;
    const CycleRatioResult ref = test::maxCycleRatioHoward(legacy.hsdf);
    switch (ref.status) {
      case CycleRatioResult::Status::Ok:
        ASSERT_EQ(flat.status, ThroughputResult::Status::Ok) << "seed " << seed;
        EXPECT_EQ(flat.iterationsPerCycle, ref.ratio.reciprocal()) << "seed " << seed;
        break;
      case CycleRatioResult::Status::Deadlock:
        ASSERT_EQ(flat.status, ThroughputResult::Status::Deadlock) << "seed " << seed;
        break;
      case CycleRatioResult::Status::Acyclic:
        ASSERT_EQ(flat.status, ThroughputResult::Status::Unbounded) << "seed " << seed;
        break;
    }

    // Cross-engine: when the state-space semantics terminates with a
    // verdict on the same graph, the rational must agree exactly.
    ThroughputOptions stateSpace;
    stateSpace.engine = ThroughputEngine::StateSpace;
    const ThroughputResult simulated = computeThroughput(timed, stateSpace);
    if (simulated.status == ThroughputResult::Status::Ok &&
        flat.status == ThroughputResult::Status::Ok) {
      EXPECT_EQ(simulated.iterationsPerCycle, flat.iterationsPerCycle) << "seed " << seed;
    }
  }
}

TEST(PerfWall, WarmStartIsResultIdentical) {
  // One handle chained across all 125 graphs: most adoptions are
  // cross-graph (wrong size, wrong shape), which per SolverWarmStart's
  // contract must be just as harmless as a well-matched seed.
  SolverWarmStart chained;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng(seed + 1000);
    const sdf::Graph g = test::randomConsistentGraph(rng);
    const sdf::TimedGraph timed{g, test::randomExecTimes(rng, g)};

    const ThroughputResult cold = computeThroughput(timed, kForcedMcr);

    // Twice in a row on one context: the second solve warm-starts from
    // the first's converged policy.
    IncrementalThroughput warm(timed);
    warm.adoptWarmStart(chained);
    expectSameResult(warm.compute(), cold, seed, "warm-started first");
    expectSameResult(warm.compute(), cold, seed, "warm-started second");
    warm.exportWarmStart(chained);
  }
}

}  // namespace
}  // namespace mamps::analysis

namespace mamps::mapping {
namespace {

using analysis::SolverWarmStart;

constexpr std::uint64_t kMappingSeeds = 125;

/// A small random application the mapping flow can always ingest.
sdf::ApplicationModel randomApp(Rng& rng) {
  test::RandomGraphOptions opt;
  opt.maxActors = 5;
  opt.maxExtraChannels = 3;
  return test::makeAppModel(test::randomConsistentGraph(rng, opt),
                            {rng.range(20, 120), rng.range(20, 120), rng.range(20, 120)});
}

/// Full comparison of two mapping outcomes: binding, schedules, buffer
/// distributions, and the throughput guarantee (minus phase counters).
void expectSameMapping(const std::optional<MappingResult>& got,
                       const std::optional<MappingResult>& want, std::uint64_t seed,
                       const char* what) {
  ASSERT_EQ(got.has_value(), want.has_value()) << what << " seed " << seed;
  if (!got.has_value()) {
    return;
  }
  EXPECT_EQ(got->mapping.actorToTile, want->mapping.actorToTile) << what << " seed " << seed;
  EXPECT_EQ(got->mapping.schedules, want->mapping.schedules) << what << " seed " << seed;
  EXPECT_EQ(got->mapping.localCapacityTokens, want->mapping.localCapacityTokens)
      << what << " seed " << seed;
  EXPECT_EQ(got->mapping.srcBufferTokens, want->mapping.srcBufferTokens)
      << what << " seed " << seed;
  EXPECT_EQ(got->mapping.dstBufferTokens, want->mapping.dstBufferTokens)
      << what << " seed " << seed;
  EXPECT_EQ(got->mapping.fslLinkCount(), want->mapping.fslLinkCount())
      << what << " seed " << seed;
  EXPECT_EQ(got->meetsConstraint, want->meetsConstraint) << what << " seed " << seed;
  ASSERT_EQ(got->throughput.status, want->throughput.status) << what << " seed " << seed;
  EXPECT_EQ(got->throughput.iterationsPerCycle, want->throughput.iterationsPerCycle)
      << what << " seed " << seed;
  EXPECT_EQ(got->throughput.statesExplored, want->throughput.statesExplored)
      << what << " seed " << seed;
  EXPECT_EQ(got->throughput.engine, want->throughput.engine) << what << " seed " << seed;
}

TEST(PerfWall, MappingPathsBitIdenticalToFromScratchBaseline) {
  platform::TemplateRequest request;
  request.tileCount = 3;
  const auto arch = platform::generateFromTemplate(request);
  // One warm-start handle chained across all seeds, as a DSE worker
  // would carry it across the points of a sweep.
  SolverWarmStart chained;
  for (std::uint64_t seed = 0; seed < kMappingSeeds; ++seed) {
    Rng rng(seed + 3000);
    const sdf::ApplicationModel app = randomApp(rng);
    const AppAnalysisCache cache = prepareApplication(app);

    // Baseline: the from-scratch pipeline — incremental re-analysis
    // off, so every buffer-growth round rebuilds and solves cold.
    MappingOptions scratch;
    scratch.incrementalAnalysis = false;
    const std::optional<MappingResult> baseline = mapApplication(cache, arch, scratch);

    const std::optional<MappingResult> incremental = mapApplication(cache, arch, {});
    expectSameMapping(incremental, baseline, seed, "incremental");

    MappingOptions warm;
    warm.solverWarmStart = &chained;
    expectSameMapping(mapApplication(cache, arch, warm), baseline, seed, "warm-started");
  }
}

TEST(PerfWall, DseWarmStartAndThreadsAreResultIdentical) {
  Rng rng(9000);
  const sdf::ApplicationModel app = randomApp(rng);
  std::vector<DesignPoint> points;
  for (std::uint32_t tiles = 2; tiles <= 4; ++tiles) {
    for (const auto kind : {platform::InterconnectKind::Fsl, platform::InterconnectKind::NocMesh}) {
      DesignPoint point;
      point.platform.tileCount = tiles;
      point.platform.interconnect = kind;
      points.push_back(point);
    }
  }

  DseOptions cold;
  cold.threads = 1;
  cold.crossPointWarmStart = false;
  const DseResult reference = exploreDesignSpace(app, points, cold);
  ASSERT_EQ(reference.points.size(), points.size());

  DseOptions warmSequential;
  warmSequential.threads = 1;
  DseOptions warmParallel;
  warmParallel.threads = 4;
  for (const DseOptions& options : {warmSequential, warmParallel}) {
    const DseResult got = exploreDesignSpace(app, points, options);
    ASSERT_EQ(got.points.size(), reference.points.size());
    for (std::size_t i = 0; i < got.points.size(); ++i) {
      EXPECT_EQ(got.points[i].label, reference.points[i].label) << "point " << i;
      EXPECT_EQ(got.points[i].platformSlices, reference.points[i].platformSlices)
          << "point " << i;
      expectSameMapping(got.points[i].mapping, reference.points[i].mapping, i, "dse point");
    }
  }
  // Area is genuinely wired through: a feasible point occupies slices.
  for (const DesignPointResult& point : reference.points) {
    if (point.feasible()) {
      EXPECT_GT(point.platformSlices, 0u);
    }
  }
}

}  // namespace
}  // namespace mamps::mapping
