// Unit tests for the SDF core: graph construction, repetition vectors,
// deadlock analysis, HSDF conversion, the application model, and XML I/O.
#include <gtest/gtest.h>

#include "sdf/app_model.hpp"
#include "hsdf_oracle.hpp"
#include "sdf/graph.hpp"
#include "sdf/io.hpp"
#include "sdf/repetition_vector.hpp"
#include "test_util.hpp"

namespace mamps::sdf {
namespace {

// ------------------------------------------------------------------- Graph

TEST(GraphTest, AddActorsAndChannels) {
  Graph g("t");
  const auto a = g.addActor("a");
  const auto b = g.addActor("b");
  const auto c = g.connect(a, 2, b, 3, 1, "ab");
  EXPECT_EQ(g.actorCount(), 2u);
  EXPECT_EQ(g.channelCount(), 1u);
  EXPECT_EQ(g.channel(c).prodRate, 2u);
  EXPECT_EQ(g.channel(c).consRate, 3u);
  EXPECT_EQ(g.channel(c).initialTokens, 1u);
  EXPECT_EQ(g.actor(a).outputs.size(), 1u);
  EXPECT_EQ(g.actor(b).inputs.size(), 1u);
}

TEST(GraphTest, DuplicateActorNameThrows) {
  Graph g;
  g.addActor("a");
  EXPECT_THROW(g.addActor("a"), ModelError);
}

TEST(GraphTest, EmptyActorNameThrows) {
  Graph g;
  EXPECT_THROW(g.addActor(""), ModelError);
}

TEST(GraphTest, ZeroRateThrows) {
  Graph g;
  const auto a = g.addActor("a");
  const auto b = g.addActor("b");
  EXPECT_THROW(g.connect(a, 0, b, 1), ModelError);
  EXPECT_THROW(g.connect(a, 1, b, 0), ModelError);
}

TEST(GraphTest, BadEndpointThrows) {
  Graph g;
  const auto a = g.addActor("a");
  EXPECT_THROW(g.connect(a, 1, 99, 1), ModelError);
}

TEST(GraphTest, SelfEdge) {
  Graph g;
  const auto a = g.addActor("a");
  const auto c = g.connect(a, 1, a, 1, 1);
  EXPECT_TRUE(g.channel(c).isSelfEdge());
  EXPECT_EQ(g.actor(a).inputs.size(), 1u);
  EXPECT_EQ(g.actor(a).outputs.size(), 1u);
}

TEST(GraphTest, FindByName) {
  Graph g;
  g.addActor("alpha");
  g.addActor("beta");
  EXPECT_EQ(g.findActor("beta"), ActorId{1});
  EXPECT_FALSE(g.findActor("gamma").has_value());
  EXPECT_EQ(g.actorByName("alpha"), ActorId{0});
  EXPECT_THROW((void)g.actorByName("gamma"), ModelError);
}

TEST(GraphTest, AutoChannelNamesAreUnique) {
  Graph g;
  const auto a = g.addActor("a");
  const auto b = g.addActor("b");
  const auto c1 = g.connect(a, 1, b, 1);
  const auto c2 = g.connect(a, 1, b, 1);
  EXPECT_NE(g.channel(c1).name, g.channel(c2).name);
}

TEST(GraphTest, DuplicateChannelNameThrows) {
  Graph g;
  const auto a = g.addActor("a");
  const auto b = g.addActor("b");
  g.connect(a, 1, b, 1, 0, "x");
  EXPECT_THROW(g.connect(a, 1, b, 1, 0, "x"), ModelError);
}

TEST(GraphTest, Connectivity) {
  Graph g;
  const auto a = g.addActor("a");
  const auto b = g.addActor("b");
  g.addActor("island");
  g.connect(a, 1, b, 1);
  EXPECT_FALSE(g.isConnected());
}

TEST(GraphTest, ConnectedGraph) { EXPECT_TRUE(test::figure2Graph().isConnected()); }

TEST(GraphTest, EmptyGraphIsConnected) { EXPECT_TRUE(Graph().isConnected()); }

TEST(GraphTest, SetInitialTokens) {
  Graph g = test::pipelineGraph(1, 1);
  g.setInitialTokens(0, 5);
  EXPECT_EQ(g.channel(0).initialTokens, 5u);
}

TEST(GraphTest, ValidatePasses) { EXPECT_NO_THROW(test::figure2Graph().validate()); }

// -------------------------------------------------------- RepetitionVector

TEST(RepetitionVectorTest, Figure2) {
  const auto q = computeRepetitionVector(test::figure2Graph());
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ((*q)[0], 1u);  // A
  EXPECT_EQ((*q)[1], 2u);  // B
  EXPECT_EQ((*q)[2], 1u);  // C
}

TEST(RepetitionVectorTest, Pipeline) {
  const auto q = computeRepetitionVector(test::pipelineGraph(3, 2));
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ((*q)[0], 2u);
  EXPECT_EQ((*q)[1], 3u);
}

TEST(RepetitionVectorTest, HomogeneousRing) {
  const auto q = computeRepetitionVector(test::ringGraph(5));
  ASSERT_TRUE(q.has_value());
  for (const auto v : *q) {
    EXPECT_EQ(v, 1u);
  }
}

TEST(RepetitionVectorTest, InconsistentGraph) {
  Graph g;
  const auto a = g.addActor("a");
  const auto b = g.addActor("b");
  g.connect(a, 2, b, 1);
  g.connect(a, 1, b, 1);  // contradicts the first channel
  EXPECT_FALSE(computeRepetitionVector(g).has_value());
  EXPECT_FALSE(isConsistent(g));
}

TEST(RepetitionVectorTest, DisconnectedComponentsScaledIndependently) {
  Graph g;
  const auto a = g.addActor("a");
  const auto b = g.addActor("b");
  const auto c = g.addActor("c");
  const auto d = g.addActor("d");
  g.connect(a, 2, b, 1);
  g.connect(c, 1, d, 3);
  const auto q = computeRepetitionVector(g);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ((*q)[0], 1u);
  EXPECT_EQ((*q)[1], 2u);
  EXPECT_EQ((*q)[2], 3u);
  EXPECT_EQ((*q)[3], 1u);
}

TEST(RepetitionVectorTest, IsolatedActorGetsOne) {
  Graph g;
  g.addActor("solo");
  const auto q = computeRepetitionVector(g);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ((*q)[0], 1u);
}

TEST(RepetitionVectorTest, MjpegShapedRates) {
  // VLD produces up to 10 blocks per MCU (Figure 5): rate-10 edge.
  Graph g;
  const auto vld = g.addActor("vld");
  const auto iqzz = g.addActor("iqzz");
  g.connect(vld, 10, iqzz, 1);
  const auto q = computeRepetitionVector(g);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ((*q)[0], 1u);
  EXPECT_EQ((*q)[1], 10u);
}

// ---------------------------------------------------------------- Deadlock

TEST(DeadlockTest, Figure2IsLive) { EXPECT_TRUE(isDeadlockFree(test::figure2Graph())); }

TEST(DeadlockTest, TokenlessRingDeadlocks) {
  Graph g;
  const auto a = g.addActor("a");
  const auto b = g.addActor("b");
  g.connect(a, 1, b, 1);
  g.connect(b, 1, a, 1);  // no initial tokens anywhere
  EXPECT_FALSE(isDeadlockFree(g));
}

TEST(DeadlockTest, RingWithTokenIsLive) { EXPECT_TRUE(isDeadlockFree(test::ringGraph(4))); }

TEST(DeadlockTest, SelfEdgeWithoutTokenDeadlocks) {
  Graph g;
  const auto a = g.addActor("a");
  g.connect(a, 1, a, 1, 0);
  EXPECT_FALSE(isDeadlockFree(g));
}

TEST(DeadlockTest, MultiRateCycleNeedsEnoughTokens) {
  Graph g;
  const auto a = g.addActor("a");
  const auto b = g.addActor("b");
  g.connect(a, 2, b, 3);
  g.connect(b, 3, a, 2, 1);  // one token is not enough for a to fire (needs 2)
  EXPECT_FALSE(isDeadlockFree(g));

  Graph g2;
  const auto a2 = g2.addActor("a");
  const auto b2 = g2.addActor("b");
  g2.connect(a2, 2, b2, 3);
  g2.connect(b2, 3, a2, 2, 6);
  EXPECT_TRUE(isDeadlockFree(g2));
}

// -------------------------------------------------------------------- HSDF

TEST(HsdfTest, ActorCountsMatchRepetitionVector) {
  TimedGraph timed{test::figure2Graph(), {5, 3, 2}};
  const test::HsdfExpansion expansion = test::toHsdf(timed);
  // q = [1, 2, 1] -> 4 HSDF actors.
  EXPECT_EQ(expansion.hsdf.graph.actorCount(), 4u);
  EXPECT_EQ(expansion.originalActor.size(), 4u);
  EXPECT_EQ(expansion.hsdf.execTime.size(), 4u);
}

TEST(HsdfTest, AllRatesAreOne) {
  TimedGraph timed{test::figure2Graph(), {5, 3, 2}};
  const test::HsdfExpansion expansion = test::toHsdf(timed);
  for (const Channel& c : expansion.hsdf.graph.channels()) {
    EXPECT_EQ(c.prodRate, 1u);
    EXPECT_EQ(c.consRate, 1u);
  }
}

TEST(HsdfTest, ExecTimesCarriedOver) {
  TimedGraph timed{test::figure2Graph(), {5, 3, 2}};
  const test::HsdfExpansion expansion = test::toHsdf(timed);
  for (std::size_t i = 0; i < expansion.hsdf.graph.actorCount(); ++i) {
    EXPECT_EQ(expansion.hsdf.execTime[i], timed.execTime[expansion.originalActor[i]]);
  }
}

TEST(HsdfTest, HsdfOfHomogeneousGraphKeepsStructure) {
  TimedGraph timed{test::ringGraph(3), {1, 1, 1}};
  const test::HsdfExpansion expansion = test::toHsdf(timed);
  EXPECT_EQ(expansion.hsdf.graph.actorCount(), 3u);
  // Original 3 channels + 3 no-auto-concurrency self-edges.
  EXPECT_EQ(expansion.hsdf.graph.channelCount(), 6u);
}

TEST(HsdfTest, InconsistentGraphThrows) {
  Graph g;
  const auto a = g.addActor("a");
  const auto b = g.addActor("b");
  g.connect(a, 2, b, 1);
  g.connect(a, 1, b, 1);
  TimedGraph timed{std::move(g), {1, 1}};
  EXPECT_THROW(test::toHsdf(timed), AnalysisError);
}

TEST(HsdfTest, HsdfIsConsistentAndLiveForLiveInput) {
  TimedGraph timed{test::figure2Graph(), {5, 3, 2}};
  const test::HsdfExpansion expansion = test::toHsdf(timed);
  EXPECT_TRUE(isConsistent(expansion.hsdf.graph));
  EXPECT_TRUE(isDeadlockFree(expansion.hsdf.graph));
}

// -------------------------------------------------------- ApplicationModel

ApplicationModel makeFigure2Model() {
  ApplicationModel model(test::figure2Graph());
  for (ActorId a = 0; a < model.graph().actorCount(); ++a) {
    ActorImplementation impl;
    impl.functionName = "actor_" + model.graph().actor(a).name;
    impl.processorType = "microblaze";
    impl.wcetCycles = 100 * (a + 1);
    impl.instrMemBytes = 1024;
    impl.dataMemBytes = 512;
    for (const ChannelId c : model.graph().actor(a).outputs) {
      if (!model.graph().channel(c).isSelfEdge()) {
        impl.argumentChannels.push_back(c);
      }
    }
    model.addImplementation(a, impl);
  }
  return model;
}

TEST(ApplicationModelTest, SelfEdgesDefaultImplicit) {
  const ApplicationModel model = makeFigure2Model();
  const auto selfEdge = model.graph().findChannel("aState");
  ASSERT_TRUE(selfEdge.has_value());
  EXPECT_TRUE(model.isImplicit(*selfEdge));
  const auto dataEdge = model.graph().findChannel("a2b");
  ASSERT_TRUE(dataEdge.has_value());
  EXPECT_TRUE(model.isExplicit(*dataEdge));
}

TEST(ApplicationModelTest, ValidateAcceptsCompleteModel) {
  EXPECT_NO_THROW(makeFigure2Model().validate());
}

TEST(ApplicationModelTest, ValidateRejectsMissingImplementation) {
  ApplicationModel model(test::figure2Graph());
  EXPECT_THROW(model.validate(), ModelError);
}

TEST(ApplicationModelTest, ImplementationForProcessorType) {
  const ApplicationModel model = makeFigure2Model();
  EXPECT_NE(model.implementationFor(0, "microblaze"), nullptr);
  EXPECT_EQ(model.implementationFor(0, "arm"), nullptr);
}

TEST(ApplicationModelTest, WcetVector) {
  const ApplicationModel model = makeFigure2Model();
  const auto wcet = model.wcetVector("microblaze");
  ASSERT_EQ(wcet.size(), 3u);
  EXPECT_EQ(wcet[0], 100u);
  EXPECT_EQ(wcet[1], 200u);
  EXPECT_EQ(wcet[2], 300u);
  EXPECT_THROW(model.wcetVector("arm"), ModelError);
}

TEST(ApplicationModelTest, ArgumentMustBeIncident) {
  ApplicationModel model(test::figure2Graph());
  ActorImplementation impl;
  impl.functionName = "f";
  impl.processorType = "microblaze";
  impl.argumentChannels.push_back(2);  // b2c is not incident to actor A
  EXPECT_THROW(model.addImplementation(0, impl), ModelError);
}

TEST(ApplicationModelTest, ImplicitArgumentRejectedByValidate) {
  ApplicationModel model = makeFigure2Model();
  // Force the self-edge of A into an implementation argument list.
  const auto selfEdge = *model.graph().findChannel("aState");
  model.setImplicit(selfEdge, false);
  ActorImplementation impl;
  impl.functionName = "g";
  impl.processorType = "other";
  impl.argumentChannels.push_back(selfEdge);
  model.addImplementation(0, impl);
  model.setImplicit(selfEdge, true);
  EXPECT_THROW(model.validate(), ModelError);
}

TEST(ApplicationModelTest, ThroughputConstraint) {
  ApplicationModel model = makeFigure2Model();
  model.setThroughputConstraint(Rational(1, 1000));
  EXPECT_EQ(model.throughputConstraint(), Rational(1, 1000));
  EXPECT_THROW(model.setThroughputConstraint(Rational(-1, 2)), ModelError);
}

// ---------------------------------------------------------------------- IO

TEST(IoTest, GraphRoundTrip) {
  const Graph original = test::figure2Graph();
  const Graph reparsed = graphFromString(graphToXml(original));
  EXPECT_EQ(reparsed.name(), original.name());
  ASSERT_EQ(reparsed.actorCount(), original.actorCount());
  ASSERT_EQ(reparsed.channelCount(), original.channelCount());
  for (ChannelId c = 0; c < original.channelCount(); ++c) {
    EXPECT_EQ(reparsed.channel(c).name, original.channel(c).name);
    EXPECT_EQ(reparsed.channel(c).prodRate, original.channel(c).prodRate);
    EXPECT_EQ(reparsed.channel(c).consRate, original.channel(c).consRate);
    EXPECT_EQ(reparsed.channel(c).initialTokens, original.channel(c).initialTokens);
    EXPECT_EQ(reparsed.channel(c).tokenSizeBytes, original.channel(c).tokenSizeBytes);
  }
}

TEST(IoTest, ApplicationModelRoundTrip) {
  ApplicationModel model = makeFigure2Model();
  model.setThroughputConstraint(Rational(3, 700));
  const ApplicationModel reparsed = applicationModelFromString(applicationModelToXml(model));
  EXPECT_EQ(reparsed.throughputConstraint(), Rational(3, 700));
  ASSERT_EQ(reparsed.graph().actorCount(), model.graph().actorCount());
  for (ActorId a = 0; a < model.graph().actorCount(); ++a) {
    const auto& lhs = model.implementations(a);
    const auto& rhs = reparsed.implementations(a);
    ASSERT_EQ(lhs.size(), rhs.size());
    for (std::size_t i = 0; i < lhs.size(); ++i) {
      EXPECT_EQ(lhs[i].functionName, rhs[i].functionName);
      EXPECT_EQ(lhs[i].processorType, rhs[i].processorType);
      EXPECT_EQ(lhs[i].wcetCycles, rhs[i].wcetCycles);
      EXPECT_EQ(lhs[i].argumentChannels, rhs[i].argumentChannels);
    }
  }
  for (ChannelId c = 0; c < model.graph().channelCount(); ++c) {
    EXPECT_EQ(reparsed.isImplicit(c), model.isImplicit(c));
  }
}

TEST(IoTest, MalformedGraphXmlThrows) {
  EXPECT_THROW(graphFromString("<sdfGraph><channel src=\"x\" dst=\"y\"/></sdfGraph>"),
               Error);
  EXPECT_THROW(graphFromString("<wrongRoot/>"), ParseError);
}

TEST(IoTest, RatesAbove32BitsThrowInsteadOfTruncating) {
  // A narrowing cast would wrap 2^32 + 1 to 1 and load a different
  // (homogeneous) graph without a word; the reader must refuse it.
  const auto channelWith = [](const std::string& attribute) {
    return "<sdfGraph><actor name=\"a\"/><actor name=\"b\"/><channel src=\"a\" dst=\"b\" " +
           attribute + "/></sdfGraph>";
  };
  EXPECT_NO_THROW(graphFromString(channelWith("srcRate=\"2\" dstRate=\"2\"")));
  EXPECT_THROW(graphFromString(channelWith("srcRate=\"4294967297\"")), ParseError);
  EXPECT_THROW(graphFromString(channelWith("dstRate=\"4294967297\"")), ParseError);
  EXPECT_THROW(graphFromString(channelWith("tokenSize=\"4294967300\"")), ParseError);
}

TEST(IoTest, GraphXmlIsParsableXml) {
  // The emitted XML must parse with the generic XML parser too.
  EXPECT_NO_THROW(xml::parse(graphToXml(test::figure2Graph())));
}

}  // namespace
}  // namespace mamps::sdf
