// The scenario-suite tests: registry integrity, generator determinism,
// the new platform template presets, and — the point of the suite — one
// end-to-end flow test per application (analyze -> bind -> schedule ->
// grow buffers -> throughput guarantee) plus DSE sweeps over the
// scenario design points. The flow-level regression for the
// withCapacities concurrency-limit drop also lives here: binding-aware
// models of multi-tile scenario mappings must carry the comm model's
// pipelined (limit-0) latency stages through the capacity rewrite.
#include <gtest/gtest.h>

#include <set>

#include "apps/suite/h263.hpp"
#include "apps/suite/samplerate.hpp"
#include "apps/suite/suite.hpp"
#include "apps/suite/synthetic.hpp"
#include "mamps/generator.hpp"
#include "mapping/dse.hpp"
#include "platform/arch_template.hpp"
#include "sdf/io.hpp"
#include "sdf/repetition_vector.hpp"
#include "sim/platform_sim.hpp"
#include "test_util.hpp"

namespace mamps::suite {
namespace {

using mapping::DesignPoint;
using mapping::DseOptions;
using mapping::DseResult;

// ---------------------------------------------------------------- Registry

TEST(ScenarioSuiteTest, RegistryIsStableAndValid) {
  const auto scenarios = builtinScenarios();
  ASSERT_EQ(scenarios.size(), 4u);
  EXPECT_EQ(scenarios[0].name, "h263");
  EXPECT_EQ(scenarios[1].name, "cd2dat");
  EXPECT_EQ(scenarios[2].name, "synthetic_fork");
  EXPECT_EQ(scenarios[3].name, "synthetic_ring");
  for (const Scenario& s : scenarios) {
    SCOPED_TRACE(s.name);
    EXPECT_FALSE(s.description.empty());
    EXPECT_GE(s.platforms.size(), 2u);
    s.model.validate();
    EXPECT_TRUE(sdf::computeRepetitionVector(s.model.graph()).has_value());
    EXPECT_TRUE(test::isDeadlockFree(s.model.graph()));
    EXPECT_TRUE(s.model.graph().isConnected());
  }
}

TEST(ScenarioSuiteTest, FindScenarioByName) {
  EXPECT_EQ(findScenario("cd2dat").name, "cd2dat");
  EXPECT_THROW((void)findScenario("nope"), Error);
}

TEST(ScenarioSuiteTest, ScenarioShapesAreGenuinelyDifferent) {
  // The suite exists to exercise shapes MJPEG does not: cyclic
  // application graphs and deep multi-rate chains.
  const auto q263 = *sdf::computeRepetitionVector(findScenario("h263").model.graph());
  EXPECT_EQ(q263, (std::vector<std::uint64_t>{1, 66, 66, 1}));
  const auto qSr = *sdf::computeRepetitionVector(findScenario("cd2dat").model.graph());
  EXPECT_EQ(qSr, (std::vector<std::uint64_t>{147, 49, 14, 8, 32, 160}));
  // h263 and synthetic_ring contain an application-level cycle through
  // non-self channels (MJPEG's only cycles are state self-edges).
  for (const char* name : {"h263", "synthetic_ring"}) {
    SCOPED_TRACE(name);
    const Scenario s = findScenario(name);
    bool hasBackEdge = false;
    for (const sdf::Channel& c : s.model.graph().channels()) {
      hasBackEdge = hasBackEdge || (!c.isSelfEdge() && c.initialTokens > 0);
    }
    EXPECT_TRUE(hasBackEdge);
  }
}

// --------------------------------------------------------------- Generator

TEST(SyntheticGeneratorTest, SameSeedSameModelDifferentSeedDifferentModel) {
  SyntheticOptions options;
  options.seed = 99;
  const auto a = buildSynthetic(options);
  const auto b = buildSynthetic(options);
  EXPECT_EQ(sdf::applicationModelToXml(a), sdf::applicationModelToXml(b));
  options.seed = 100;
  EXPECT_NE(sdf::applicationModelToXml(a), sdf::applicationModelToXml(buildSynthetic(options)));
}

TEST(SyntheticGeneratorTest, AllTopologiesAreConsistentAndLive) {
  for (const Topology topology : {Topology::Chain, Topology::Ring, Topology::ForkJoin}) {
    for (const std::uint64_t seed : {1ull, 2ull, 3ull, 17ull, 123ull}) {
      SCOPED_TRACE("topology " + std::to_string(static_cast<int>(topology)) + " seed " +
                   std::to_string(seed));
      SyntheticOptions options;
      options.seed = seed;
      options.topology = topology;
      const auto model = buildSynthetic(options);
      model.validate();
      EXPECT_TRUE(sdf::computeRepetitionVector(model.graph()).has_value());
      EXPECT_TRUE(test::isDeadlockFree(model.graph()));
      EXPECT_TRUE(model.graph().isConnected());
    }
  }
}

TEST(SyntheticGeneratorTest, RejectsDegenerateOptions) {
  SyntheticOptions tooFew;
  tooFew.actors = 2;
  EXPECT_THROW((void)buildSynthetic(tooFew), ModelError);
  SyntheticOptions emptyRange;
  emptyRange.wcetLo = 10;
  emptyRange.wcetHi = 5;
  EXPECT_THROW((void)buildSynthetic(emptyRange), ModelError);
}

// ---------------------------------------------------------------- Presets

TEST(PlatformPresetTest, LargeMeshPreset) {
  const auto arch = platform::generateFromTemplate(platform::largeMeshPreset());
  EXPECT_EQ(arch.tileCount(), 12u);
  EXPECT_EQ(arch.interconnect(), platform::InterconnectKind::NocMesh);
  EXPECT_EQ(arch.noc().rows * arch.noc().cols, 12u);
  EXPECT_EQ(arch.noc().wiresPerLink, 64u);
  EXPECT_EQ(arch.noc().connectionBufferWords, 8u);
}

TEST(PlatformPresetTest, HeterogeneousPresetAppendsIpTiles) {
  const auto arch =
      platform::generateFromTemplate(platform::heterogeneousPreset(3, {"accel", "fir_ip"}));
  ASSERT_EQ(arch.tileCount(), 5u);
  EXPECT_EQ(arch.tile(0).kind, platform::TileKind::Master);
  EXPECT_EQ(arch.tile(3).kind, platform::TileKind::HardwareIp);
  EXPECT_EQ(arch.tile(3).processorType, "accel");
  EXPECT_EQ(arch.tile(4).processorType, "fir_ip");
}

TEST(PlatformPresetTest, NocMeshCountsIpTiles) {
  platform::TemplateRequest request;
  request.tileCount = 3;
  request.interconnect = platform::InterconnectKind::NocMesh;
  request.hardwareIpTiles = {"accel", "accel", "accel"};
  const auto arch = platform::generateFromTemplate(request);
  EXPECT_EQ(arch.tileCount(), 6u);
  EXPECT_GE(arch.noc().rows * arch.noc().cols, 6u);
}

// ------------------------------------------------- End-to-end, per scenario

/// Map a scenario on every recommended platform; every platform must be
/// feasible with a positive throughput guarantee on the MCR fast path.
std::vector<mapping::MappingResult> runScenario(const Scenario& s) {
  std::vector<mapping::MappingResult> results;
  for (const platform::TemplateRequest& request : s.platforms) {
    const auto arch = platform::generateFromTemplate(request);
    SCOPED_TRACE(s.name + " on " + arch.name());
    auto result = mapping::mapApplication(s.model, arch, s.options);
    EXPECT_TRUE(result.has_value());
    if (!result) {
      continue;
    }
    EXPECT_TRUE(result->throughput.ok());
    EXPECT_GT(result->throughput.iterationsPerCycle, Rational(0));
    EXPECT_EQ(result->throughput.engine, analysis::ThroughputEngine::Mcr);
    results.push_back(std::move(*result));
  }
  return results;
}

TEST(ScenarioFlowTest, H263EndToEnd) {
  const Scenario s = findScenario("h263");
  const auto results = runScenario(s);
  ASSERT_EQ(results.size(), s.platforms.size());
  // Pinned calibration: the 2-tile FSL guarantee (the binding gathers
  // the whole decoder on one tile; one slice = 552400 cycles serial).
  EXPECT_EQ(results[0].throughput.iterationsPerCycle, Rational(1, 552400));
  // The heterogeneous platform offloads the IDCT to the accel tile and
  // beats every homogeneous mapping.
  const auto& hetero = results[3];
  const auto arch = platform::generateFromTemplate(s.platforms[3]);
  const sdf::ActorId idct = s.model.graph().actorByName("IDCT");
  EXPECT_EQ(arch.tile(hetero.mapping.actorToTile[idct]).processorType, "accel");
  for (std::size_t i = 0; i + 1 < results.size(); ++i) {
    EXPECT_GT(hetero.throughput.iterationsPerCycle, results[i].throughput.iterationsPerCycle);
  }
  for (const auto& result : results) {
    EXPECT_TRUE(result.meetsConstraint);
  }
}

TEST(ScenarioFlowTest, Cd2datEndToEnd) {
  const Scenario s = findScenario("cd2dat");
  const auto results = runScenario(s);
  ASSERT_EQ(results.size(), s.platforms.size());
  // Pinned calibration: the 2-tile FSL split pipeline.
  EXPECT_EQ(results[0].throughput.iterationsPerCycle, Rational(1, 30576));
  for (const auto& result : results) {
    EXPECT_TRUE(result.meetsConstraint);
  }
  // The 2-tile mapping splits the chain: the comm model is in play.
  EXPECT_FALSE(results[0].model.expanded.empty());
}

TEST(ScenarioFlowTest, SyntheticForkEndToEnd) {
  const Scenario s = findScenario("synthetic_fork");
  const auto results = runScenario(s);
  ASSERT_EQ(results.size(), s.platforms.size());
  // The constraint is calibrated to need real parallelism: the 2-tile
  // point misses it, the 4-tile NoC and the accel platform meet it.
  EXPECT_FALSE(results[0].meetsConstraint);
  EXPECT_TRUE(results[1].meetsConstraint);
  EXPECT_TRUE(results[2].meetsConstraint);
  // The heterogeneous platform actually uses an accel tile.
  const auto arch = platform::generateFromTemplate(s.platforms[2]);
  bool usesAccel = false;
  for (const auto tile : results[2].mapping.actorToTile) {
    usesAccel = usesAccel || arch.tile(tile).processorType == "accel";
  }
  EXPECT_TRUE(usesAccel);
}

TEST(ScenarioFlowTest, SyntheticRingEndToEnd) {
  const Scenario s = findScenario("synthetic_ring");
  const auto results = runScenario(s);
  ASSERT_EQ(results.size(), s.platforms.size());
  // Cross-check the fast path against the state-space engine on the
  // first (2-tile) binding-aware model: both engines must produce the
  // same exact rational on this cyclic, concurrency-limited graph.
  analysis::ThroughputOptions stateSpace;
  stateSpace.engine = analysis::ThroughputEngine::StateSpace;
  const auto reference = analysis::computeThroughput(results[0].model.graph,
                                                     results[0].model.resources, stateSpace);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(reference.iterationsPerCycle, results[0].throughput.iterationsPerCycle);
}

TEST(ScenarioFlowTest, BindingAwareModelsCarryConcurrencyLimits) {
  // Flow-level regression for the withCapacities maxConcurrent drop:
  // a multi-tile mapping expands inter-tile channels into the comm
  // model, whose latency stages pipeline (limit 0). The capacity
  // rewrite runs after the expansion, so the final binding-aware graph
  // must still carry those limits.
  const Scenario s = findScenario("cd2dat");
  const auto arch = platform::generateFromTemplate(s.platforms[0]);
  const auto result = mapping::mapApplication(s.model, arch, s.options);
  ASSERT_TRUE(result.has_value());
  ASSERT_FALSE(result->model.expanded.empty());
  const sdf::TimedGraph& graph = result->model.graph;
  ASSERT_FALSE(graph.maxConcurrent.empty());
  for (const comm::ExpandedChannel& e : result->model.expanded) {
    EXPECT_EQ(graph.concurrencyLimit(e.c2), 0u)
        << "latency stage " << graph.graph.actor(e.c2).name << " must pipeline";
  }
}

// ----------------------------------------------- Generation and simulation

TEST(ScenarioFlowTest, Cd2datGeneratesProjectAndSimulationRespectsGuarantee) {
  // The suite used to stop at the analyzed mapping; this drives one
  // scenario through the rest of the flow: MAMPS project generation
  // produces the complete artifact set, and the cycle-level platform
  // simulation sustains at least the analyzed guarantee (the paper's
  // conservative-bound claim, now asserted on a suite scenario).
  const Scenario s = findScenario("cd2dat");
  const auto arch = platform::generateFromTemplate(s.platforms[0]);
  const auto result = mapping::mapApplication(s.model, arch, s.options);
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->throughput.iterationsPerCycle, Rational(1, 30576));

  const gen::PlatformProject project = gen::generatePlatform(s.model, arch, result->mapping);
  EXPECT_TRUE(project.files.contains("hw/system.mhs"));
  EXPECT_TRUE(project.files.contains("sw/include/channels.h"));
  EXPECT_TRUE(project.files.contains("sw/tile0/main.c"));
  EXPECT_TRUE(project.files.contains("sw/tile1/main.c"));
  EXPECT_TRUE(project.files.contains("build.tcl"));

  sim::PlatformSim simulator(s.model, arch, result->mapping);
  sim::SimOptions options;
  options.warmupIterations = 2;
  options.measureIterations = 16;
  const sim::SimResult sim = simulator.run(options);
  ASSERT_TRUE(sim.ok());
  EXPECT_GE(sim.iterationsPerCycle(),
            result->throughput.iterationsPerCycle.toDouble() * (1 - 1e-9));
}

// -------------------------------------------------------------- DSE sweeps

TEST(ScenarioSweepTest, ParallelSweepMatchesSerial) {
  const Scenario s = findScenario("synthetic_fork");
  const auto points = scenarioDesignPoints(s);
  ASSERT_EQ(points.size(), 2 * s.platforms.size());
  DseOptions serial;
  serial.threads = 1;
  const DseResult serialRun = mapping::exploreDesignSpace(s.model, points, serial);
  DseOptions parallel;
  parallel.threads = 4;
  const DseResult parallelRun = mapping::exploreDesignSpace(s.model, points, parallel);
  ASSERT_EQ(serialRun.points.size(), parallelRun.points.size());
  EXPECT_EQ(serialRun.feasibleCount(), points.size());
  for (std::size_t i = 0; i < serialRun.points.size(); ++i) {
    SCOPED_TRACE(serialRun.points[i].label);
    ASSERT_EQ(serialRun.points[i].feasible(), parallelRun.points[i].feasible());
    EXPECT_EQ(serialRun.points[i].label, parallelRun.points[i].label);
    if (!serialRun.points[i].feasible()) {
      continue;
    }
    EXPECT_EQ(serialRun.points[i].mapping->throughput.iterationsPerCycle,
              parallelRun.points[i].mapping->throughput.iterationsPerCycle);
    EXPECT_EQ(serialRun.points[i].mapping->mapping.actorToTile,
              parallelRun.points[i].mapping->mapping.actorToTile);
  }
}

TEST(ScenarioSweepTest, DesignPointLabelsNameScenarioAndPlatform) {
  const Scenario s = findScenario("h263");
  const auto points = scenarioDesignPoints(s);
  std::set<std::string> labels;
  for (const DesignPoint& p : points) {
    labels.insert(p.label);
    EXPECT_EQ(p.label.rfind("h263/", 0), 0u) << p.label;
  }
  EXPECT_EQ(labels.size(), points.size()) << "labels must be unique";
  EXPECT_TRUE(labels.contains("h263/2t_fsl"));
  EXPECT_TRUE(labels.contains("h263/2t_fsl_ca"));
  EXPECT_TRUE(labels.contains("h263/3t+1ip_fsl"));  // hetero: 3 PE + 1 IP tile
}

TEST(ScenarioSweepTest, IncrementalMatchesFromScratchOnScenarios) {
  // The incremental analysis context must be bit-identical to the
  // from-scratch path on the suite's shapes, exactly as it is for
  // MJPEG (bench_dse) and Figure 2 (dse_test).
  for (const char* name : {"h263", "cd2dat"}) {
    const Scenario s = findScenario(name);
    const auto arch = platform::generateFromTemplate(s.platforms[0]);
    mapping::MappingOptions incremental = s.options;
    incremental.incrementalAnalysis = true;
    mapping::MappingOptions scratch = s.options;
    scratch.incrementalAnalysis = false;
    const auto a = mapping::mapApplication(s.model, arch, incremental);
    const auto b = mapping::mapApplication(s.model, arch, scratch);
    ASSERT_EQ(a.has_value(), b.has_value()) << name;
    ASSERT_TRUE(a.has_value()) << name;
    EXPECT_EQ(a->throughput.iterationsPerCycle, b->throughput.iterationsPerCycle) << name;
    EXPECT_EQ(a->mapping.localCapacityTokens, b->mapping.localCapacityTokens) << name;
    EXPECT_EQ(a->mapping.srcBufferTokens, b->mapping.srcBufferTokens) << name;
  }
}

}  // namespace
}  // namespace mamps::suite
