// Unit and integration tests for the mapping module: binding, static
// order scheduling, binding-aware graph construction, and the complete
// mapping step.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>
#include <string>

#include "mapping/flow.hpp"
#include "mapping/schedule.hpp"
#include "platform/arch_template.hpp"
#include "sdf/repetition_vector.hpp"
#include "test_util.hpp"

namespace mamps::mapping {
namespace {

using platform::Architecture;
using platform::InterconnectKind;
using platform::TemplateRequest;
using sdf::ActorId;
using sdf::ApplicationModel;

Architecture makeArch(std::uint32_t tiles, InterconnectKind kind) {
  TemplateRequest request;
  request.tileCount = tiles;
  request.interconnect = kind;
  return platform::generateFromTemplate(request);
}

// ----------------------------------------------------------------- Binding

TEST(BindingTest, AllActorsBound) {
  const ApplicationModel app = test::makeAppModel(test::figure2Graph(), {100, 200, 50});
  const Architecture arch = makeArch(2, InterconnectKind::Fsl);
  const auto binding = bindActors(app, arch, {});
  ASSERT_TRUE(binding.has_value());
  EXPECT_EQ(binding->actorToTile.size(), 3u);
  for (const auto t : binding->actorToTile) {
    EXPECT_LT(t, arch.tileCount());
  }
}

TEST(BindingTest, LoadIsBalancedAcrossTiles) {
  // Two heavy independent actors should land on different tiles.
  sdf::Graph g("two");
  const auto a = g.addActor("a");
  const auto b = g.addActor("b");
  g.connect(a, 1, a, 1, 1, "sa");
  g.connect(b, 1, b, 1, 1, "sb");
  const ApplicationModel app = test::makeAppModel(std::move(g), {1000, 1000});
  const Architecture arch = makeArch(2, InterconnectKind::Fsl);
  const auto binding = bindActors(app, arch, {});
  ASSERT_TRUE(binding.has_value());
  EXPECT_NE(binding->actorToTile[0], binding->actorToTile[1]);
}

TEST(BindingTest, CommunicationPullsActorsTogether) {
  // A tightly communicating pair with tiny compute should share a tile
  // when the communication weight dominates.
  sdf::Graph g("pair");
  const auto a = g.addActor("a");
  const auto b = g.addActor("b");
  sdf::ChannelSpec spec;
  spec.src = a;
  spec.dst = b;
  spec.tokenSizeBytes = 4096;
  spec.name = "big";
  g.connect(spec);
  const ApplicationModel app = test::makeAppModel(std::move(g), {10, 10});
  const Architecture arch = makeArch(2, InterconnectKind::Fsl);
  MappingOptions options;
  options.weights.processing = 0.01;
  options.weights.communication = 10.0;
  const auto binding = bindActors(app, arch, options);
  ASSERT_TRUE(binding.has_value());
  EXPECT_EQ(binding->actorToTile[0], binding->actorToTile[1]);
}

TEST(BindingTest, MemoryLimitForcesSpread) {
  sdf::Graph g("mem");
  g.addActor("a");
  g.addActor("b");
  // Each actor needs most of a tile's instruction memory.
  const ApplicationModel app =
      test::makeAppModel(std::move(g), {100, 100}, /*instrMem=*/100 * 1024, /*dataMem=*/1024);
  TemplateRequest request;
  request.tileCount = 2;
  request.tileMemory = {128 * 1024, 64 * 1024};
  const Architecture arch = platform::generateFromTemplate(request);
  const auto binding = bindActors(app, arch, {});
  ASSERT_TRUE(binding.has_value());
  EXPECT_NE(binding->actorToTile[0], binding->actorToTile[1]);
}

TEST(BindingTest, InfeasibleMemoryReturnsNullopt) {
  sdf::Graph g("toofat");
  g.addActor("a");
  const ApplicationModel app =
      test::makeAppModel(std::move(g), {100}, /*instrMem=*/200 * 1024, /*dataMem=*/1024);
  TemplateRequest request;
  request.tileCount = 1;
  request.tileMemory = {64 * 1024, 64 * 1024};
  const Architecture arch = platform::generateFromTemplate(request);
  EXPECT_FALSE(bindActors(app, arch, {}).has_value());
}

TEST(BindingTest, ProcessorTypeMismatchReturnsNullopt) {
  sdf::ApplicationModel app(test::pipelineGraph(1, 1));
  for (ActorId a = 0; a < 2; ++a) {
    sdf::ActorImplementation impl;
    impl.functionName = "f";
    impl.processorType = "dsp";  // the template only provides microblaze
    impl.wcetCycles = 10;
    app.addImplementation(a, impl);
  }
  const Architecture arch = makeArch(2, InterconnectKind::Fsl);
  EXPECT_FALSE(bindActors(app, arch, {}).has_value());
}

// ---------------------------------------------------------------- Schedule

TEST(ScheduleTest, EveryActorAppearsQTimes) {
  const ApplicationModel app = test::makeAppModel(test::figure2Graph(), {10, 20, 30});
  const Architecture arch = makeArch(2, InterconnectKind::Fsl);
  const auto binding = bindActors(app, arch, {});
  ASSERT_TRUE(binding.has_value());
  const auto schedules = buildStaticOrderSchedules(app, arch, binding->actorToTile);
  ASSERT_TRUE(schedules.has_value());
  const auto q = *sdf::computeRepetitionVector(app.graph());
  std::map<ActorId, std::uint64_t> count;
  for (const auto& schedule : *schedules) {
    for (const ActorId a : schedule) {
      ++count[a];
    }
  }
  for (ActorId a = 0; a < app.graph().actorCount(); ++a) {
    EXPECT_EQ(count[a], q[a]) << "actor " << app.graph().actor(a).name;
  }
}

TEST(ScheduleTest, ActorsOnlyOnTheirTile) {
  const ApplicationModel app = test::makeAppModel(test::figure2Graph(), {10, 20, 30});
  const Architecture arch = makeArch(3, InterconnectKind::Fsl);
  const auto binding = bindActors(app, arch, {});
  ASSERT_TRUE(binding.has_value());
  const auto schedules = buildStaticOrderSchedules(app, arch, binding->actorToTile);
  ASSERT_TRUE(schedules.has_value());
  for (platform::TileId t = 0; t < arch.tileCount(); ++t) {
    for (const ActorId a : (*schedules)[t]) {
      EXPECT_EQ(binding->actorToTile[a], t);
    }
  }
}

TEST(ScheduleTest, RespectsDataDependencies) {
  // In a chain a->b->c on one tile, the first firing order must be a, b, c.
  sdf::Graph g("chain");
  const auto a = g.addActor("a");
  const auto b = g.addActor("b");
  const auto c = g.addActor("c");
  g.connect(a, 1, b, 1);
  g.connect(b, 1, c, 1);
  const ApplicationModel app = test::makeAppModel(std::move(g), {5, 5, 5});
  const Architecture arch = makeArch(1, InterconnectKind::Fsl);
  const std::vector<platform::TileId> binding{0, 0, 0};
  const auto schedules = buildStaticOrderSchedules(app, arch, binding);
  ASSERT_TRUE(schedules.has_value());
  ASSERT_EQ((*schedules)[0].size(), 3u);
  EXPECT_EQ((*schedules)[0][0], a);
  EXPECT_EQ((*schedules)[0][1], b);
  EXPECT_EQ((*schedules)[0][2], c);
}

TEST(ScheduleTest, DeadlockedGraphReturnsNullopt) {
  sdf::Graph g("dead");
  const auto a = g.addActor("a");
  const auto b = g.addActor("b");
  g.connect(a, 1, b, 1);
  g.connect(b, 1, a, 1);  // no tokens
  const ApplicationModel app = test::makeAppModel(std::move(g), {5, 5});
  const Architecture arch = makeArch(1, InterconnectKind::Fsl);
  EXPECT_FALSE(buildStaticOrderSchedules(app, arch, {0, 0}).has_value());
}

TEST(ScheduleTest, ZeroCycleLastFiringIsNotADeadlock) {
  // Once zero-time retirement finishes the iteration no tile is busy;
  // the list scheduler must stop there instead of reporting a deadlock.
  const ApplicationModel fig2 = test::makeAppModel(test::figure2Graph(), {500, 800, 0});
  const auto mapped = mapApplication(fig2, makeArch(2, InterconnectKind::Fsl), {});
  ASSERT_TRUE(mapped.has_value());
  ASSERT_TRUE(mapped->throughput.ok());
  analysis::ThroughputOptions stateSpace;
  stateSpace.engine = analysis::ThroughputEngine::StateSpace;
  const auto reference =
      analysis::computeThroughput(mapped->model.graph, mapped->model.resources, stateSpace);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(mapped->throughput.iterationsPerCycle, reference.iterationsPerCycle);

  const ApplicationModel ring = test::makeAppModel(test::ringGraph(2), {5, 0});
  for (const std::uint32_t tiles : {1u, 2u}) {
    const auto ringMapped = mapApplication(ring, makeArch(tiles, InterconnectKind::Fsl), {});
    ASSERT_TRUE(ringMapped.has_value()) << tiles << " tiles";
    EXPECT_TRUE(ringMapped->throughput.ok()) << tiles << " tiles";
  }
}

// ------------------------------------------------------------ BindingAware

TEST(BindingAwareTest, LocalMappingAddsNoCommActors) {
  const ApplicationModel app = test::makeAppModel(test::figure2Graph(), {10, 20, 30});
  const Architecture arch = makeArch(1, InterconnectKind::Fsl);
  MappingOptions options;
  const auto result = mapApplication(app, arch, options);
  ASSERT_TRUE(result.has_value());
  // Everything on one tile: no channel is expanded.
  EXPECT_TRUE(result->model.expanded.empty());
  EXPECT_EQ(result->model.graph.graph.actorCount(), 3u);
  ASSERT_TRUE(result->throughput.ok());
}

TEST(BindingAwareTest, InterTileChannelsAreExpanded) {
  sdf::Graph g("two");
  const auto a = g.addActor("a");
  const auto b = g.addActor("b");
  sdf::ChannelSpec spec;
  spec.src = a;
  spec.dst = b;
  spec.tokenSizeBytes = 8;
  spec.name = "fwd";
  g.connect(spec);
  g.connect(b, 1, a, 1, 4, "ret");
  const ApplicationModel app = test::makeAppModel(std::move(g), {1000, 1000});
  const Architecture arch = makeArch(2, InterconnectKind::Fsl);
  const auto result = mapApplication(app, arch, {});
  ASSERT_TRUE(result.has_value());
  // Both channels cross tiles: both are expanded.
  EXPECT_EQ(result->model.expanded.size(), 2u);
  // 2 actors + 2 * 8 comm actors.
  EXPECT_EQ(result->model.graph.graph.actorCount(), 18u);
  ASSERT_TRUE(result->throughput.ok());
  EXPECT_GT(result->throughput.iterationsPerCycle, Rational(0));
}

TEST(BindingAwareTest, PeSerializationInflatesActorTimes) {
  sdf::Graph g("two");
  const auto a = g.addActor("a");
  const auto b = g.addActor("b");
  sdf::ChannelSpec spec;
  spec.src = a;
  spec.dst = b;
  spec.tokenSizeBytes = 40;  // 10 words
  spec.name = "fwd";
  g.connect(spec);
  g.connect(b, 1, a, 1, 4, "ret");
  const ApplicationModel app = test::makeAppModel(std::move(g), {1000, 1000});
  const Architecture arch = makeArch(2, InterconnectKind::Fsl);

  Mapping mapping;
  mapping.actorToTile = {0, 1};
  mapping.schedules = {{0}, {1}};
  mapping.channelRoutes.assign(2, {});
  mapping.channelRoutes[0] = {.interTile = true, .srcTile = 0, .dstTile = 1};
  mapping.channelRoutes[1] = {.interTile = true, .srcTile = 1, .dstTile = 0};
  mapping.localCapacityTokens.assign(2, 0);
  mapping.srcBufferTokens = {2, 6};
  mapping.dstBufferTokens = {2, 2};

  mapping.serialization = comm::SerializationMode::OnProcessor;
  const auto pe = buildBindingAware(app, arch, mapping, {1000, 1000});
  mapping.serialization = comm::SerializationMode::CommAssist;
  const auto ca = buildBindingAware(app, arch, mapping, {1000, 1000});

  // PE mode: actor time grows by serialization + deserialization.
  EXPECT_GT(pe.graph.execTime[0], 1000u);
  EXPECT_GT(pe.graph.execTime[1], 1000u);
  // CA mode: actor time unchanged; s1 carries the (smaller) CA time.
  EXPECT_EQ(ca.graph.execTime[0], 1000u);
  EXPECT_GT(ca.graph.execTime[ca.expanded[0].s1], 0u);
  EXPECT_EQ(pe.graph.execTime[pe.expanded[0].s1], 0u);
}

TEST(BindingAwareTest, PeSerializationThatWouldWrapThrows) {
  // Two actors on two tiles: each pays the (de)serialization of the
  // ring's inter-tile tokens on its PE. Near 2^64 that sum must not wrap
  // to a tiny time and an optimistic guarantee.
  const Architecture arch = makeArch(2, InterconnectKind::Fsl);
  const ApplicationModel huge =
      test::makeAppModel(test::ringGraph(2), {std::numeric_limits<std::uint64_t>::max() - 9, 5});
  try {
    (void)mapApplication(huge, arch, {});
    ADD_FAILURE() << "expected ModelError";
  } catch (const ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("actor r0"), std::string::npos) << e.what();
  }
  // Far from the limit the same mapping stays exact.
  const std::uint64_t big = std::uint64_t{1} << 62;
  const auto mapped = mapApplication(test::makeAppModel(test::ringGraph(2), {big, 5}), arch, {});
  ASSERT_TRUE(mapped.has_value());
  ASSERT_TRUE(mapped->throughput.ok());
  EXPECT_EQ(mapped->throughput.iterationsPerCycle,
            Rational(1, static_cast<std::int64_t>(big + 137)));
}

TEST(BindingAwareTest, CaModeYieldsHigherThroughputForCommHeavyApps) {
  // The Section 6.3 experiment in miniature: many words per token and
  // modest compute -> offloading serialization helps.
  sdf::Graph g("heavy");
  const auto a = g.addActor("a");
  const auto b = g.addActor("b");
  sdf::ChannelSpec spec;
  spec.src = a;
  spec.dst = b;
  spec.tokenSizeBytes = 256;  // 64 words
  spec.name = "fwd";
  g.connect(spec);
  g.connect(b, 1, a, 1, 4, "ret");
  const ApplicationModel app = test::makeAppModel(std::move(g), {200, 200});
  const Architecture arch = makeArch(2, InterconnectKind::Fsl);

  MappingOptions options;
  options.serialization = comm::SerializationMode::OnProcessor;
  const auto pe = mapApplication(app, arch, options);
  options.serialization = comm::SerializationMode::CommAssist;
  const auto ca = mapApplication(app, arch, options);
  ASSERT_TRUE(pe.has_value());
  ASSERT_TRUE(ca.has_value());
  ASSERT_TRUE(pe->throughput.ok());
  ASSERT_TRUE(ca->throughput.ok());
  EXPECT_GT(ca->throughput.iterationsPerCycle, pe->throughput.iterationsPerCycle);
}

// -------------------------------------------------------------------- Flow

TEST(FlowTest, Figure2OnOneTile) {
  const ApplicationModel app = test::makeAppModel(test::figure2Graph(), {10, 20, 30});
  const Architecture arch = makeArch(1, InterconnectKind::Fsl);
  const auto result = mapApplication(app, arch, {});
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->throughput.ok());
  // One iteration = A + 2B + C = 10 + 40 + 30 = 80 cycles, fully serial.
  EXPECT_EQ(result->throughput.iterationsPerCycle, Rational(1, 80));
}

TEST(FlowTest, ThroughputConstraintSatisfactionReported) {
  sdf::ApplicationModel app = test::makeAppModel(test::figure2Graph(), {10, 20, 30});
  app.setThroughputConstraint(Rational(1, 100));  // achievable (1/80)
  const Architecture arch = makeArch(1, InterconnectKind::Fsl);
  const auto ok = mapApplication(app, arch, {});
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(ok->meetsConstraint);

  app.setThroughputConstraint(Rational(1, 10));  // impossible
  const auto bad = mapApplication(app, arch, {});
  ASSERT_TRUE(bad.has_value());
  EXPECT_FALSE(bad->meetsConstraint);
}

TEST(FlowTest, BufferGrowthThatWouldWrapThrows) {
  // The constraint is out of reach on one tile, so every round doubles
  // the capacity; 63 rounds would wrap it to 0 and report a negative
  // throughput.
  sdf::ApplicationModel app = test::makeAppModel(test::pipelineGraph(1, 1, 1), {100, 100});
  app.setThroughputConstraint(Rational(1, 2));
  const Architecture arch = makeArch(1, InterconnectKind::Fsl);
  for (const bool incremental : {true, false}) {
    MappingOptions options;
    options.bufferGrowthRounds = 63;
    options.incrementalAnalysis = incremental;
    EXPECT_THROW((void)mapApplication(app, arch, options), Error) << "incremental " << incremental;
  }
}

TEST(FlowTest, MoreTilesDoNotHurtThroughput) {
  const ApplicationModel app = test::makeAppModel(test::figure2Graph(), {500, 800, 400});
  const auto one = mapApplication(app, makeArch(1, InterconnectKind::Fsl), {});
  const auto three = mapApplication(app, makeArch(3, InterconnectKind::Fsl), {});
  ASSERT_TRUE(one.has_value());
  ASSERT_TRUE(three.has_value());
  ASSERT_TRUE(one->throughput.ok());
  ASSERT_TRUE(three->throughput.ok());
  EXPECT_GE(three->throughput.iterationsPerCycle * Rational(11, 10),
            one->throughput.iterationsPerCycle);
}

TEST(FlowTest, BindingAwareGraphsStayOnTheMcrFastPath) {
  // The flow's hot path: binding-aware graphs (comm-model expansion,
  // capacity back-edges, static-order schedules) must be analyzable by
  // the MCR engine, and the fast path must agree with the state-space
  // engine to the exact rational on both interconnects.
  const ApplicationModel app = test::makeAppModel(test::figure2Graph(), {500, 800, 400});
  for (const auto kind : {InterconnectKind::Fsl, InterconnectKind::NocMesh}) {
    const auto result = mapApplication(app, makeArch(3, kind), {});
    ASSERT_TRUE(result.has_value());
    ASSERT_TRUE(result->throughput.ok());
    EXPECT_EQ(result->throughput.engine, analysis::ThroughputEngine::Mcr);

    analysis::ThroughputOptions stateSpace;
    stateSpace.engine = analysis::ThroughputEngine::StateSpace;
    const auto reference =
        analysis::computeThroughput(result->model.graph, result->model.resources, stateSpace);
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(result->throughput.iterationsPerCycle, reference.iterationsPerCycle);
  }
}

TEST(FlowTest, NocMappingWorks) {
  const ApplicationModel app = test::makeAppModel(test::figure2Graph(), {500, 800, 400});
  const auto result = mapApplication(app, makeArch(4, InterconnectKind::NocMesh), {});
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->throughput.ok());
  // Inter-tile channels must have routes with reserved wires.
  for (const ChannelRoute& r : result->mapping.channelRoutes) {
    if (r.interTile) {
      EXPECT_FALSE(r.route.empty());
      EXPECT_GE(r.wires, 1u);
    }
  }
}

TEST(FlowTest, FslFasterOrEqualNoc) {
  // Point-to-point FSLs avoid router latency; with equal settings the
  // FSL mapping must not be slower (Section 5.3.1).
  const ApplicationModel app = test::makeAppModel(test::figure2Graph(), {500, 800, 400});
  const auto fsl = mapApplication(app, makeArch(3, InterconnectKind::Fsl), {});
  const auto noc = mapApplication(app, makeArch(3, InterconnectKind::NocMesh), {});
  ASSERT_TRUE(fsl.has_value());
  ASSERT_TRUE(noc.has_value());
  ASSERT_TRUE(fsl->throughput.ok());
  ASSERT_TRUE(noc->throughput.ok());
  EXPECT_GE(fsl->throughput.iterationsPerCycle, noc->throughput.iterationsPerCycle);
}

TEST(FlowTest, AnalyzeMappingWithMeasuredTimes) {
  // Shorter measured execution times must never lower the predicted
  // throughput (the "expected" value of Figure 6 sits above the
  // worst-case line).
  const ApplicationModel app = test::makeAppModel(test::figure2Graph(), {100, 200, 300});
  const Architecture arch = makeArch(2, InterconnectKind::Fsl);
  const auto result = mapApplication(app, arch, {});
  ASSERT_TRUE(result.has_value());
  const auto expected = analyzeMapping(app, arch, result->mapping, {50, 100, 150});
  ASSERT_TRUE(expected.ok());
  EXPECT_GE(expected.iterationsPerCycle, result->throughput.iterationsPerCycle);
}

TEST(FlowTest, InconsistentAppRejected) {
  sdf::Graph g("bad");
  const auto a = g.addActor("a");
  const auto b = g.addActor("b");
  g.connect(a, 2, b, 1, 0, "c1");
  g.connect(a, 1, b, 1, 0, "c2");
  const ApplicationModel app = test::makeAppModel(std::move(g), {10, 10});
  EXPECT_FALSE(mapApplication(app, makeArch(2, InterconnectKind::Fsl), {}).has_value());
}

TEST(FlowTest, UsageAccountsRuntimeLayer) {
  const ApplicationModel app = test::makeAppModel(test::figure2Graph(), {10, 20, 30});
  const auto result = mapApplication(app, makeArch(2, InterconnectKind::Fsl), {});
  ASSERT_TRUE(result.has_value());
  for (const TileUsage& usage : result->usage) {
    EXPECT_GE(usage.instrBytes, runtimeLayerInstrBytes());
    EXPECT_GE(usage.dataBytes, runtimeLayerDataBytes());
  }
}

}  // namespace
}  // namespace mamps::mapping
