// Tests for the platform simulator: timing against the analytic bound,
// functional byte transport, profiling, and the conservative-guarantee
// invariant on randomized applications.
#include <gtest/gtest.h>

#include <limits>
#include <ostream>

#include "analysis/self_timed.hpp"
#include "apps/mjpeg/actors.hpp"
#include "apps/mjpeg/encoder.hpp"
#include "apps/mjpeg/testdata.hpp"
#include "apps/suite/suite.hpp"
#include "mapping/binding_aware.hpp"
#include "mapping/flow.hpp"
#include "platform/arch_template.hpp"
#include "sdf/repetition_vector.hpp"
#include "sim/platform_sim.hpp"
#include "test_util.hpp"

namespace mamps::sim {
namespace {

using mapping::MappingResult;
using platform::InterconnectKind;

struct Deployed {
  sdf::ApplicationModel app;
  platform::Architecture arch;
  MappingResult result;
};

Deployed deploy(sdf::ApplicationModel app, std::uint32_t tiles, InterconnectKind kind,
                const mapping::MappingOptions& options = {}) {
  platform::TemplateRequest request;
  request.tileCount = tiles;
  request.interconnect = kind;
  Deployed d{std::move(app), platform::generateFromTemplate(request), {}};
  auto mapped = mapping::mapApplication(d.app, d.arch, options);
  if (!mapped) {
    throw Error("deploy: mapping failed");
  }
  d.result = std::move(*mapped);
  return d;
}

double boundOf(const Deployed& d) { return d.result.throughput.iterationsPerCycle.toDouble(); }

// ------------------------------------------------------------------ Timing

TEST(SimTest, WcetRunMatchesAnalysisExactly) {
  // With every firing at its WCET the simulator executes exactly the
  // behaviour the worst-case analysis explored: identical throughput.
  const Deployed d = deploy(test::makeAppModel(test::figure2Graph(), {500, 800, 400}), 2,
                            InterconnectKind::Fsl);
  PlatformSim simulator(d.app, d.arch, d.result.mapping);  // default = WCET costs
  const SimResult result = simulator.run();
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.iterationsPerCycle(), boundOf(d), boundOf(d) * 1e-6);
}

TEST(SimTest, FasterActorsNeverFallBelowBound) {
  const Deployed d = deploy(test::makeAppModel(test::figure2Graph(), {500, 800, 400}), 2,
                            InterconnectKind::Fsl);
  PlatformSim simulator(d.app, d.arch, d.result.mapping);
  simulator.setBehavior(0, std::make_unique<ConstantCostBehavior>(100));
  simulator.setBehavior(1, std::make_unique<ConstantCostBehavior>(300));
  simulator.setBehavior(2, std::make_unique<ConstantCostBehavior>(50));
  const SimResult result = simulator.run();
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result.iterationsPerCycle(), boundOf(d) * (1.0 - 1e-9));
}

TEST(SimTest, NocRunAlsoRespectsBound) {
  const Deployed d = deploy(test::makeAppModel(test::figure2Graph(), {500, 800, 400}), 3,
                            InterconnectKind::NocMesh);
  PlatformSim simulator(d.app, d.arch, d.result.mapping);
  const SimResult result = simulator.run();
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result.iterationsPerCycle(), boundOf(d) * (1.0 - 1e-9));
}

TEST(SimTest, ProfilingCountsFirings) {
  const Deployed d = deploy(test::makeAppModel(test::figure2Graph(), {100, 100, 100}), 1,
                            InterconnectKind::Fsl);
  PlatformSim simulator(d.app, d.arch, d.result.mapping);
  SimOptions options;
  options.warmupIterations = 2;
  options.measureIterations = 10;
  const SimResult result = simulator.run(options);
  ASSERT_TRUE(result.ok());
  // Actor B (q=2) fires twice per iteration; the run stops when the
  // reference actor completes iteration 12, at which point B's last
  // firing of the pipeline tail may still be in flight.
  EXPECT_GE(result.firings[1], 22u);
  EXPECT_EQ(result.maxFiringCycles[0], 100u);
  EXPECT_GT(result.totalFiringCycles[1], result.maxFiringCycles[1]);
}

TEST(SimTest, VariableCostsReportMaximum) {
  class Alternating final : public ActorBehavior {
   public:
    std::uint64_t fire(FiringData&) override { return (++n_ % 2 == 0) ? 80 : 40; }

   private:
    std::uint64_t n_ = 0;
  };
  const Deployed d = deploy(test::makeAppModel(test::figure2Graph(), {100, 100, 100}), 1,
                            InterconnectKind::Fsl);
  PlatformSim simulator(d.app, d.arch, d.result.mapping);
  simulator.setBehavior(0, std::make_unique<Alternating>());
  const SimResult result = simulator.run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.maxFiringCycles[0], 80u);
}

TEST(SimTest, ZeroTimeCycleThrowsInsteadOfHanging) {
  // Mapped with real WCETs on one tile, then run with zero-time firings:
  // the static order r0, r1 fires forever at cycle 0. The analysis calls
  // that Unbounded; the simulator must stop with a typed error.
  const Deployed d =
      deploy(test::makeAppModel(test::ringGraph(2), {1, 1}), 1, InterconnectKind::Fsl);
  const sdf::ApplicationModel zero = test::makeAppModel(test::ringGraph(2), {0, 0});
  EXPECT_EQ(mapping::analyzeMapping(zero, d.arch, d.result.mapping, {0, 0}).status,
            analysis::ThroughputResult::Status::Unbounded);
  PlatformSim simulator(zero, d.arch, d.result.mapping);
  EXPECT_THROW((void)simulator.run(), ModelError);
}

// -------------------------------------------------------------- Functional

/// A source that emits an incrementing byte pattern and a sink that
/// checks it: exercises byte-accurate transport across the interconnect.
class PatternSource final : public ActorBehavior {
 public:
  std::uint64_t fire(FiringData& data) override {
    for (auto& tokens : data.outputs) {
      for (auto& token : tokens) {
        for (auto& byte : token) {
          byte = static_cast<std::uint8_t>(counter_++);
        }
      }
    }
    return 50;
  }

 private:
  std::uint32_t counter_ = 0;
};

class PatternSink final : public ActorBehavior {
 public:
  std::uint64_t fire(FiringData& data) override {
    for (const auto& tokens : data.inputs) {
      for (const auto& token : tokens) {
        for (const auto byte : token) {
          if (byte != static_cast<std::uint8_t>(expected_++)) {
            ++errors;
          }
        }
      }
    }
    return 30;
  }

  std::uint64_t errors = 0;

 private:
  std::uint32_t expected_ = 0;
};

sdf::ApplicationModel patternApp(std::uint32_t tokenSize) {
  sdf::Graph g("pattern");
  const auto src = g.addActor("src");
  const auto dst = g.addActor("dst");
  sdf::ChannelSpec spec;
  spec.src = src;
  spec.dst = dst;
  spec.tokenSizeBytes = tokenSize;
  spec.name = "data";
  g.connect(spec);
  g.connect(dst, 1, src, 1, 4, "window");
  sdf::ApplicationModel model(std::move(g));
  for (sdf::ActorId a = 0; a < 2; ++a) {
    sdf::ActorImplementation impl;
    impl.functionName = a == 0 ? "src" : "dst";
    impl.processorType = "microblaze";
    impl.wcetCycles = 100;
    impl.instrMemBytes = 1024;
    impl.dataMemBytes = 512;
    impl.argumentChannels = {0};
    model.addImplementation(a, impl);
  }
  // The window back-edge carries no data.
  model.setImplicit(1, true);
  return model;
}

class TransportTest : public ::testing::TestWithParam<std::tuple<InterconnectKind, std::uint32_t>> {
};

TEST_P(TransportTest, BytesArriveExactlyOnceInOrder) {
  const auto [kind, tokenSize] = GetParam();
  const Deployed d = deploy(patternApp(tokenSize), 2, kind);
  PlatformSim simulator(d.app, d.arch, d.result.mapping);
  simulator.setBehavior(0, std::make_unique<PatternSource>());
  auto sink = std::make_unique<PatternSink>();
  PatternSink* sinkPtr = sink.get();
  simulator.setBehavior(1, std::move(sink));
  const SimResult result = simulator.run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(sinkPtr->errors, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TransportTest,
    ::testing::Combine(::testing::Values(InterconnectKind::Fsl, InterconnectKind::NocMesh),
                       ::testing::Values(4u, 7u, 64u, 400u)));

TEST(SimTest, InterTileByteAccounting) {
  const Deployed d = deploy(patternApp(64), 2, InterconnectKind::Fsl);
  PlatformSim simulator(d.app, d.arch, d.result.mapping);
  SimOptions options;
  options.warmupIterations = 0;
  options.measureIterations = 8;
  const SimResult result = simulator.run(options);
  ASSERT_TRUE(result.ok());
  // The data channel moved tokens; the implicit window edge moved none.
  EXPECT_GT(result.interTileBytes[0], 0u);
  EXPECT_EQ(result.interTileBytes[0] % 64, 0u);
}

TEST(SimTest, FiringCostThatWouldWrapThrows) {
  // The producer pays PE serialization on top of its behaviour's cost;
  // a behaviour reporting 2^64 - 1 cycles must not wrap that sum to a
  // short firing.
  const Deployed d = deploy(patternApp(64), 2, InterconnectKind::Fsl);
  ASSERT_NE(d.result.mapping.actorToTile[0], d.result.mapping.actorToTile[1]);
  PlatformSim simulator(d.app, d.arch, d.result.mapping);
  simulator.setBehavior(
      0, std::make_unique<ConstantCostBehavior>(std::numeric_limits<std::uint64_t>::max()));
  EXPECT_THROW((void)simulator.run(), ModelError);
}

// ------------------------------------------------- Guarantee (property)

class GuaranteeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GuaranteeProperty, MeasuredNeverBelowGuarantee) {
  Rng rng(GetParam() * 7919);
  test::RandomGraphOptions opt;
  opt.minActors = 2;
  opt.maxActors = 5;
  opt.maxQ = 3;
  const sdf::Graph g = test::randomConsistentGraph(rng, opt);
  const auto wcets = test::randomExecTimes(rng, g, 50, 500);
  const sdf::ApplicationModel app = test::makeAppModel(g, wcets);

  platform::TemplateRequest request;
  request.tileCount = static_cast<std::uint32_t>(rng.range(1, 3));
  request.interconnect =
      rng.chance(0.5) ? InterconnectKind::Fsl : InterconnectKind::NocMesh;
  const platform::Architecture arch = platform::generateFromTemplate(request);
  const auto mapped = mapping::mapApplication(app, arch, {});
  ASSERT_TRUE(mapped.has_value());
  ASSERT_TRUE(mapped->throughput.ok());

  PlatformSim simulator(app, arch, mapped->mapping);
  // Random per-actor costs at or below WCET.
  for (sdf::ActorId a = 0; a < g.actorCount(); ++a) {
    simulator.setBehavior(
        a, std::make_unique<ConstantCostBehavior>(rng.range(wcets[a] / 2, wcets[a])));
  }
  const SimResult result = simulator.run();
  ASSERT_TRUE(result.ok()) << "seed " << GetParam();
  const double bound = mapped->throughput.iterationsPerCycle.toDouble();
  EXPECT_GE(result.iterationsPerCycle(), bound * (1.0 - 1e-9)) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, GuaranteeProperty, ::testing::Range<std::uint64_t>(1, 21));

// ---------------------------------------------------------------- Goldens

/// One pinned simulation: its cycle counts and an FNV-1a digest of the
/// per-actor profile (firings, max and total firing cycles) and the
/// per-channel inter-tile bytes.
struct GoldenRun {
  std::string label;
  SimResult::Status status;
  std::uint64_t totalCycles;
  std::uint64_t measuredCycles;
  std::uint64_t digest;

  bool operator==(const GoldenRun&) const = default;
};

std::ostream& operator<<(std::ostream& out, const GoldenRun& run) {
  constexpr const char* kStatusNames[] = {"Ok", "Deadlock", "CycleLimit"};
  return out << "{\"" << run.label << "\", " << kStatusNames[static_cast<int>(run.status)] << ", "
             << run.totalCycles << "u, " << run.measuredCycles << "u, 0x" << std::hex
             << run.digest << std::dec << "u},";
}

std::uint64_t profileDigest(const SimResult& result) {
  test::Fnv1a digest;
  for (const auto* values : {&result.firings, &result.maxFiringCycles,
                             &result.totalFiringCycles, &result.interTileBytes}) {
    digest.mix(values->size());
    for (const std::uint64_t v : *values) {
      digest.mix(v);
    }
  }
  return digest.hash;
}

GoldenRun goldenRunOf(std::string label, const SimResult& result) {
  return {std::move(label), result.status, result.totalCycles, result.measuredCycles,
          profileDigest(result)};
}

/// The golden corpus: MJPEG (WCETs calibrated on the 2-frame 48x32
/// synthetic stream) on FSL and NoC, PE and CA serialization, 1-5
/// tiles, with WCET costs and with the functional decoder; then every
/// suite scenario on each of its platforms, PE and CA.
std::vector<GoldenRun> simulateGoldenCorpus() {
  std::vector<GoldenRun> runs;
  const auto stream = mjpeg::encodeSequence(mjpeg::makeSyntheticSequence(2, 48, 32), {});
  const mjpeg::MjpegApp mjpegApp = mjpeg::buildMjpegApp(mjpeg::calibrateWcets(stream));
  SimOptions options;
  options.warmupIterations = 2;
  options.measureIterations = 8;
  for (const InterconnectKind kind : {InterconnectKind::Fsl, InterconnectKind::NocMesh}) {
    for (const auto mode : {comm::SerializationMode::OnProcessor,
                            comm::SerializationMode::CommAssist}) {
      for (std::uint32_t tiles = 1; tiles <= 5; ++tiles) {
        platform::TemplateRequest request;
        request.tileCount = tiles;
        request.interconnect = kind;
        request.withCommAssist = mode == comm::SerializationMode::CommAssist;
        const platform::Architecture arch = platform::generateFromTemplate(request);
        mapping::MappingOptions mappingOptions;
        mappingOptions.serialization = mode;
        const auto mapped = mapping::mapApplication(mjpegApp.model, arch, mappingOptions);
        if (!mapped) {
          throw Error("simulateGoldenCorpus: MJPEG did not map");
        }
        std::string label = "mjpeg/" + std::to_string(tiles) + "t_" +
                            std::string(platform::interconnectKindName(kind)) +
                            (request.withCommAssist ? "_ca" : "");
        for (const bool decode : {false, true}) {
          PlatformSim simulator(mjpegApp.model, arch, mapped->mapping);
          if (decode) {
            mjpeg::attachMjpegBehaviors(simulator, mjpegApp, stream);
          }
          runs.push_back(goldenRunOf(label + (decode ? "+decoder" : ""),
                                     simulator.run(options)));
        }
      }
    }
  }
  for (const suite::Scenario& scenario : suite::builtinScenarios()) {
    for (const mapping::DesignPoint& point : suite::scenarioDesignPoints(scenario)) {
      const platform::Architecture arch = platform::generateFromTemplate(point.platform);
      const auto mapped = mapping::mapApplication(scenario.model, arch, point.options);
      if (!mapped) {
        throw Error("simulateGoldenCorpus: " + point.label + " did not map");
      }
      PlatformSim simulator(scenario.model, arch, mapped->mapping);
      runs.push_back(goldenRunOf(point.label, simulator.run(options)));
    }
  }
  return runs;
}

TEST(SimGoldenTest, CorpusMatchesPinnedResults) {
  // Any change to the self-timed firing rules, the cost hooks or the
  // payload transport moves a cycle count or a digest here.
  using enum SimResult::Status;
  const std::vector<GoldenRun> pinned = {
      {"mjpeg/1t_fsl", Ok, 11593494u, 10234224u, 0xde4971a597fa5894u},
      {"mjpeg/1t_fsl+decoder", Ok, 6338600u, 5571120u, 0xba53d49f20ea5375u},
      {"mjpeg/2t_fsl", Ok, 10983618u, 9692112u, 0xff13fa456b32b744u},
      {"mjpeg/2t_fsl+decoder", Ok, 6049340u, 5314000u, 0xcdcddd3bca1cc835u},
      {"mjpeg/3t_fsl", Ok, 8634707u, 8054080u, 0x8e2884a108562342u},
      {"mjpeg/3t_fsl+decoder", Ok, 4336851u, 3841410u, 0xf85645ab258aea76u},
      {"mjpeg/4t_fsl", Ok, 8634707u, 8054080u, 0x8e2884a108562342u},
      {"mjpeg/4t_fsl+decoder", Ok, 4336851u, 3841410u, 0xf85645ab258aea76u},
      {"mjpeg/5t_fsl", Ok, 8634707u, 8054080u, 0x8e2884a108562342u},
      {"mjpeg/5t_fsl+decoder", Ok, 4336851u, 3841410u, 0xf85645ab258aea76u},
      {"mjpeg/1t_fsl_ca", Ok, 11593494u, 10234224u, 0xde4971a597fa5894u},
      {"mjpeg/1t_fsl_ca+decoder", Ok, 6338600u, 5571120u, 0xba53d49f20ea5375u},
      {"mjpeg/2t_fsl_ca", Ok, 10905930u, 9623056u, 0xff13fa456b32b744u},
      {"mjpeg/2t_fsl_ca+decoder", Ok, 5971652u, 5244944u, 0xcdcddd3bca1cc835u},
      {"mjpeg/3t_fsl_ca", Ok, 8585883u, 8008000u, 0x8e2884a108562342u},
      {"mjpeg/3t_fsl_ca+decoder", Ok, 4288027u, 3795330u, 0xf85645ab258aea76u},
      {"mjpeg/4t_fsl_ca", Ok, 8585883u, 8008000u, 0x8e2884a108562342u},
      {"mjpeg/4t_fsl_ca+decoder", Ok, 4288027u, 3795330u, 0xf85645ab258aea76u},
      {"mjpeg/5t_fsl_ca", Ok, 8585883u, 8008000u, 0x8e2884a108562342u},
      {"mjpeg/5t_fsl_ca+decoder", Ok, 4288027u, 3795330u, 0xf85645ab258aea76u},
      {"mjpeg/1t_nocMesh", Ok, 11593494u, 10234224u, 0xde4971a597fa5894u},
      {"mjpeg/1t_nocMesh+decoder", Ok, 6338600u, 5571120u, 0xba53d49f20ea5375u},
      {"mjpeg/2t_nocMesh", Ok, 10986588u, 9694752u, 0xff13fa456b32b744u},
      {"mjpeg/2t_nocMesh+decoder", Ok, 6052310u, 5316640u, 0xcdcddd3bca1cc835u},
      {"mjpeg/3t_nocMesh", Ok, 8634910u, 8054080u, 0x8e2884a108562342u},
      {"mjpeg/3t_nocMesh+decoder", Ok, 4337054u, 3841410u, 0xf85645ab258aea76u},
      {"mjpeg/4t_nocMesh", Ok, 8635035u, 8054080u, 0x8e2884a108562342u},
      {"mjpeg/4t_nocMesh+decoder", Ok, 4337179u, 3841410u, 0xf85645ab258aea76u},
      {"mjpeg/5t_nocMesh", Ok, 8635035u, 8054080u, 0x8e2884a108562342u},
      {"mjpeg/5t_nocMesh+decoder", Ok, 4337179u, 3841410u, 0xf85645ab258aea76u},
      {"mjpeg/1t_nocMesh_ca", Ok, 11593494u, 10234224u, 0xde4971a597fa5894u},
      {"mjpeg/1t_nocMesh_ca+decoder", Ok, 6338600u, 5571120u, 0xba53d49f20ea5375u},
      {"mjpeg/2t_nocMesh_ca", Ok, 10908900u, 9625696u, 0xff13fa456b32b744u},
      {"mjpeg/2t_nocMesh_ca+decoder", Ok, 5974622u, 5247584u, 0xcdcddd3bca1cc835u},
      {"mjpeg/3t_nocMesh_ca", Ok, 8586086u, 8008000u, 0x8e2884a108562342u},
      {"mjpeg/3t_nocMesh_ca+decoder", Ok, 4288230u, 3795330u, 0xf85645ab258aea76u},
      {"mjpeg/4t_nocMesh_ca", Ok, 8586211u, 8008000u, 0x8e2884a108562342u},
      {"mjpeg/4t_nocMesh_ca+decoder", Ok, 4288355u, 3795330u, 0xf85645ab258aea76u},
      {"mjpeg/5t_nocMesh_ca", Ok, 8586211u, 8008000u, 0x8e2884a108562342u},
      {"mjpeg/5t_nocMesh_ca+decoder", Ok, 4288355u, 3795330u, 0xf85645ab258aea76u},
      {"h263/2t_fsl", Ok, 4997600u, 4419200u, 0x1dd2c442a54cb84au},
      {"h263/2t_fsl_ca", Ok, 4997600u, 4419200u, 0x1dd2c442a54cb84au},
      {"h263/3t_fsl", Ok, 4997600u, 4419200u, 0x1dd2c442a54cb84au},
      {"h263/3t_fsl_ca", Ok, 4997600u, 4419200u, 0x1dd2c442a54cb84au},
      {"h263/4t_nocMesh", Ok, 4997600u, 4419200u, 0x1dd2c442a54cb84au},
      {"h263/4t_nocMesh_ca", Ok, 4997600u, 4419200u, 0x1dd2c442a54cb84au},
      {"h263/3t+1ip_fsl", Ok, 2016960u, 1769712u, 0xb3fbf121583d5dd0u},
      {"h263/3t+1ip_fsl_ca", Ok, 1681464u, 1471504u, 0xb3fbf121583d5dd0u},
      {"cd2dat/2t_fsl", Ok, 254604u, 221088u, 0x63ec0d00a22507d1u},
      {"cd2dat/2t_fsl_ca", Ok, 226380u, 196000u, 0x9ebc32a60373500du},
      {"cd2dat/3t_nocMesh", Ok, 264492u, 225696u, 0xc17d5c3ea4a01318u},
      {"cd2dat/3t_nocMesh_ca", Ok, 185700u, 159840u, 0x7fb780ef1c2d02f6u},
      {"cd2dat/12t_nocMesh", Ok, 260726u, 211680u, 0xf866f07def087a66u},
      {"cd2dat/12t_nocMesh_ca", Ok, 183454u, 148960u, 0xf866f07def087a66u},
      {"synthetic_fork/2t_fsl", Ok, 188784u, 165536u, 0xa714396b23b55897u},
      {"synthetic_fork/2t_fsl_ca", Ok, 160584u, 141024u, 0xa714396b23b55897u},
      {"synthetic_fork/4t_nocMesh", Ok, 62043u, 53432u, 0xda61426eb028b265u},
      {"synthetic_fork/4t_nocMesh_ca", Ok, 56715u, 48696u, 0xd4504b994cf1e878u},
      {"synthetic_fork/3t+2ip_fsl", Ok, 21856u, 19124u, 0xefa1a86b50f3e8du},
      {"synthetic_fork/3t+2ip_fsl_ca", Ok, 17104u, 15972u, 0xa2e32786637060efu},
      {"synthetic_fork/12t_nocMesh", Ok, 50747u, 43124u, 0xf4343c9d1154793au},
      {"synthetic_fork/12t_nocMesh_ca", Ok, 42559u, 37480u, 0x2689fde3d92d0f4du},
      {"synthetic_ring/2t_fsl", Ok, 286751u, 250536u, 0xb2d73c5f9a1d776u},
      {"synthetic_ring/2t_fsl_ca", Ok, 200154u, 174816u, 0xb2d73c5f9a1d776u},
      {"synthetic_ring/3t_fsl", Ok, 303285u, 265928u, 0xc4d407d06b59089bu},
      {"synthetic_ring/3t_fsl_ca", Ok, 213164u, 186560u, 0xc4d407d06b59089bu},
      {"synthetic_ring/4t_nocMesh", Ok, 295802u, 258408u, 0x7c7539bbc2cb4874u},
      {"synthetic_ring/4t_nocMesh_ca", Ok, 193035u, 168304u, 0x7c7539bbc2cb4874u},
  };
  const std::vector<GoldenRun> runs = simulateGoldenCorpus();
  ASSERT_EQ(runs.size(), pinned.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i], pinned[i]);
  }
}

// ------------------------------------------------------- Executor goldens

/// One pinned run of analysis::SelfTimedExecution: the clock when it
/// stopped and an FNV-1a digest of every callback as (now, actor,
/// start|done), in call order. The simulator goldens pin outcomes; this
/// pins the order in which behaviours fire and payloads arrive.
struct ExecutorRun {
  std::string label;
  std::uint64_t now;
  std::uint64_t digest;

  bool operator==(const ExecutorRun&) const = default;
};

std::ostream& operator<<(std::ostream& out, const ExecutorRun& run) {
  return out << "{\"" << run.label << "\", " << run.now << "u, 0x" << std::hex << run.digest
             << std::dec << "u},";
}

/// Run the executor with cost = execTime for 2 warm-up plus 8 measured
/// iterations (completions of actor 0), or until it deadlocks or an
/// instant hits the livelock bound, with the simulator's loop.
ExecutorRun executeGolden(std::string label, const sdf::TimedGraph& timed,
                          const analysis::ResourceConstraints& resources) {
  const std::uint64_t endFirings = 10 * (*sdf::computeRepetitionVector(timed.graph))[0];
  analysis::SelfTimedExecution execution(timed.graph, timed.maxConcurrent, &resources);
  test::Fnv1a digest;
  const auto record = [&](sdf::ActorId a, std::uint64_t kind) {
    digest.mix(execution.now());
    digest.mix(a);
    digest.mix(kind);
  };
  const auto cost = [&](sdf::ActorId a) {
    record(a, 0);
    return timed.execTime[a];
  };
  const auto done = [&](sdf::ActorId a) { record(a, 1); };
  for (;;) {
    if (!execution.settle(cost, done)) {
      digest.mix(std::numeric_limits<std::uint64_t>::max());
      break;
    }
    if (execution.referenceCompletions() >= endFirings || !execution.active()) {
      break;
    }
    execution.advance();
  }
  return {std::move(label), execution.now(), digest.hash};
}

/// The binding-aware model of a mapped application at its WCETs.
mapping::BindingAwareModel bindingAwareAtWcets(const sdf::ApplicationModel& app,
                                               const platform::Architecture& arch,
                                               const mapping::Mapping& mapping) {
  std::vector<std::uint64_t> wcet(app.graph().actorCount());
  for (sdf::ActorId a = 0; a < wcet.size(); ++a) {
    wcet[a] = app.implementationFor(a, arch.tile(mapping.actorToTile.at(a)).processorType)
                  ->wcetCycles;
  }
  return mapping::buildBindingAware(app, arch, mapping, wcet);
}

/// The corpus: MJPEG on 3 tiles for FSL and NoC, PE and CA
/// serialization; the first design point of each suite scenario; and
/// random static-order rings.
std::vector<ExecutorRun> executeGoldenCorpus() {
  std::vector<ExecutorRun> runs;
  const auto stream = mjpeg::encodeSequence(mjpeg::makeSyntheticSequence(2, 48, 32), {});
  const mjpeg::MjpegApp mjpegApp = mjpeg::buildMjpegApp(mjpeg::calibrateWcets(stream));
  for (const InterconnectKind kind : {InterconnectKind::Fsl, InterconnectKind::NocMesh}) {
    for (const auto mode : {comm::SerializationMode::OnProcessor,
                            comm::SerializationMode::CommAssist}) {
      platform::TemplateRequest request;
      request.tileCount = 3;
      request.interconnect = kind;
      request.withCommAssist = mode == comm::SerializationMode::CommAssist;
      const platform::Architecture arch = platform::generateFromTemplate(request);
      mapping::MappingOptions mappingOptions;
      mappingOptions.serialization = mode;
      const auto mapped = mapping::mapApplication(mjpegApp.model, arch, mappingOptions);
      if (!mapped) {
        throw Error("executeGoldenCorpus: MJPEG did not map");
      }
      std::string label = "mjpeg/3t_" + std::string(platform::interconnectKindName(kind));
      if (request.withCommAssist) {
        label += "_ca";
      }
      const auto model = bindingAwareAtWcets(mjpegApp.model, arch, mapped->mapping);
      runs.push_back(executeGolden(std::move(label), model.graph, model.resources));
    }
  }
  for (const suite::Scenario& scenario : suite::builtinScenarios()) {
    const mapping::DesignPoint point = suite::scenarioDesignPoints(scenario).front();
    const platform::Architecture arch = platform::generateFromTemplate(point.platform);
    const auto mapped = mapping::mapApplication(scenario.model, arch, point.options);
    if (!mapped) {
      throw Error("executeGoldenCorpus: " + point.label + " did not map");
    }
    const auto model = bindingAwareAtWcets(scenario.model, arch, mapped->mapping);
    runs.push_back(executeGolden(point.label, model.graph, model.resources));
  }
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed * 6151);
    const test::StaticOrderRing ring = test::randomStaticOrderRing(rng);
    runs.push_back(executeGolden("ring/" + std::to_string(seed), ring.timed, ring.resources));
  }
  return runs;
}

TEST(SelfTimedGoldenTest, CallbackOrderMatchesPinnedDigests) {
  // Any change to the order of the executor's cost and done callbacks,
  // or to the instants they happen at, moves a digest here.
  const std::vector<ExecutorRun> pinned = {
      {"mjpeg/3t_fsl", 8634707u, 0x72f2a8161f90ffc5u},
      {"mjpeg/3t_fsl_ca", 8585883u, 0xbd00e50e41967da3u},
      {"mjpeg/3t_nocMesh", 8634910u, 0x804760433af09b82u},
      {"mjpeg/3t_nocMesh_ca", 8586086u, 0x36d4f6dd9dd7f61eu},
      {"h263/2t_fsl", 4997600u, 0xa2068e420deec549u},
      {"cd2dat/2t_fsl", 254604u, 0xfb0b0c598988f7b3u},
      {"synthetic_fork/2t_fsl", 188784u, 0x8a7a4e47d5609e58u},
      {"synthetic_ring/2t_fsl", 286751u, 0x9b6b0b264dd39588u},
      {"ring/1", 294u, 0x8d66bfd2bff65e4bu},
      {"ring/2", 171u, 0xba42334651456fe8u},
      {"ring/3", 227u, 0xb92134f356f3ed45u},
      {"ring/4", 330u, 0x2dd5956074f6f78du},
      {"ring/5", 600u, 0xf82a20f2a609cb5eu},
      {"ring/6", 522u, 0xffacc55dec6463b8u},
      {"ring/7", 840u, 0x2c6b5492f5070ae5u},
      {"ring/8", 130u, 0xf4b136adf89ccd05u},
      {"ring/9", 543u, 0xc5c650361cd823cdu},
      {"ring/10", 560u, 0x65039f7de3da98d3u},
      {"ring/11", 381u, 0x44d791e3b73e81b8u},
      {"ring/12", 840u, 0xdc9cb50569c1e40u},
      {"ring/13", 574u, 0x160dc5387e1d1bf9u},
      {"ring/14", 260u, 0x9ab091e99a2e7727u},
      {"ring/15", 1408u, 0x257716330cb9aecu},
      {"ring/16", 852u, 0xe2746d5ee20e0d11u},
      {"ring/17", 405u, 0xacf02bac755d653du},
      {"ring/18", 1071u, 0x72b15b5a0b5c6821u},
      {"ring/19", 400u, 0x7d789b0c21ed56e1u},
      {"ring/20", 43u, 0x6f36cd8253798aeeu},
      {"ring/21", 504u, 0x71d519ed4a288dacu},
      {"ring/22", 463u, 0x4a1e34a515eef523u},
      {"ring/23", 578u, 0xf2b3734eaf5eef59u},
      {"ring/24", 1063u, 0x7c27447ac9f897du},
      {"ring/25", 433u, 0xa77661fd56f263cdu},
      {"ring/26", 1179u, 0x684591d85ed629b2u},
      {"ring/27", 0u, 0xcbf29ce484222325u},
      {"ring/28", 593u, 0xfddbfd1b85c486c5u},
      {"ring/29", 457u, 0x697360b116b4431cu},
      {"ring/30", 621u, 0x33f9a26f63681be5u},
      {"ring/31", 0u, 0xcbf29ce484222325u},
      {"ring/32", 1421u, 0xc1ae9f11c8b842c7u},
      {"ring/33", 299u, 0x1799acf4967b2ffdu},
      {"ring/34", 517u, 0x3fa4a16748428dabu},
      {"ring/35", 51u, 0x274d2d85f20b4876u},
      {"ring/36", 321u, 0x5c3c063dd8a1b7e2u},
      {"ring/37", 804u, 0x9215449941efb5e8u},
      {"ring/38", 433u, 0xde46170e8143668fu},
      {"ring/39", 289u, 0xcb9e174c8f7846a1u},
      {"ring/40", 51u, 0x9f04f194da813fb2u},
      {"ring/41", 200u, 0x1dd75c2c8ced8504u},
      {"ring/42", 315u, 0xfa90a760dfaf5705u},
      {"ring/43", 472u, 0x5a2495684198feb6u},
      {"ring/44", 1186u, 0x4f83df2c2050f2d1u},
      {"ring/45", 292u, 0xf5d6942df5adcc3cu},
      {"ring/46", 337u, 0xc5bb2a1770ae0a8cu},
      {"ring/47", 902u, 0x5b3baba3a14ac856u},
      {"ring/48", 154u, 0x355becf9b5d59a5u},
      {"ring/49", 143u, 0x957c610b7ac4dff3u},
      {"ring/50", 130u, 0x9397d56b0afe3ce4u},
  };
  const std::vector<ExecutorRun> runs = executeGoldenCorpus();
  ASSERT_EQ(runs.size(), pinned.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i], pinned[i]);
  }
}

}  // namespace
}  // namespace mamps::sim
