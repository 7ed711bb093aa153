// Unit tests for the communication model (Figure 4): channel expansion,
// parameter derivation, and the model's analytic properties.
#include <gtest/gtest.h>

#include "analysis/mcm.hpp"
#include "analysis/throughput.hpp"
#include "comm/model.hpp"
#include "comm/params.hpp"
#include "sdf/repetition_vector.hpp"
#include "test_util.hpp"

namespace mamps::comm {
namespace {

using sdf::ChannelId;
using sdf::Graph;
using sdf::TimedGraph;

/// A strongly bounded two-actor graph whose only forward channel can be
/// expanded: src -> dst plus a return edge keeping execution bounded.
TimedGraph boundedPair(std::uint32_t tokenSize, std::uint64_t srcTime, std::uint64_t dstTime,
                       std::uint64_t windowTokens = 4) {
  Graph g("pair");
  const auto src = g.addActor("src");
  const auto dst = g.addActor("dst");
  sdf::ChannelSpec spec;
  spec.src = src;
  spec.dst = dst;
  spec.prodRate = 1;
  spec.consRate = 1;
  spec.tokenSizeBytes = tokenSize;
  spec.name = "fwd";
  g.connect(spec);
  g.connect(dst, 1, src, 1, windowTokens, "ret");
  return TimedGraph{std::move(g), {srcTime, dstTime}, {}};
}

CommModelParams basicParams(std::uint32_t n) {
  CommModelParams p;
  p.wordsPerToken = n;
  p.serializeTime = 10;
  p.deserializeTime = 10;
  p.cyclesPerWord = 1;
  p.latencyCycles = 3;
  p.wordsInFlight = 2;
  p.connectionBufferWords = 8;
  p.txBufferWords = 8;
  p.srcBufferTokens = 2;
  p.dstBufferTokens = 2;
  return p;
}

// ----------------------------------------------------------- wordsPerToken

TEST(WordsPerTokenTest, RoundsUpToWords) {
  EXPECT_EQ(wordsPerToken(1), 1u);
  EXPECT_EQ(wordsPerToken(4), 1u);
  EXPECT_EQ(wordsPerToken(5), 2u);
  EXPECT_EQ(wordsPerToken(128), 32u);
  EXPECT_THROW((void)wordsPerToken(0), Error);
}

// -------------------------------------------------------------- Parameters

TEST(ParamsTest, SerializationCostsOrdering) {
  // The CA must be cheaper than the software loop for any token size
  // (this is the premise of the Section 6.3 experiment).
  for (const std::uint32_t words : {1u, 4u, 32u, 256u}) {
    EXPECT_LT(commAssistSerializationCost().cycles(words),
              processorSerializationCost().cycles(words));
  }
}

TEST(ParamsTest, FslParamsDeriveFromConfig) {
  sdf::Channel channel;
  channel.src = 0;
  channel.dst = 1;
  channel.tokenSizeBytes = 16;  // 4 words
  platform::FslConfig config;
  config.fifoDepthWords = 16;
  config.latencyCycles = 1;
  const CommModelParams p =
      fslParams(channel, config, SerializationMode::OnProcessor, 4, 4);
  EXPECT_EQ(p.wordsPerToken, 4u);
  EXPECT_EQ(p.cyclesPerWord, 1u);
  EXPECT_EQ(p.latencyCycles, 1u);
  EXPECT_EQ(p.wordsInFlight, 1u);
  EXPECT_EQ(p.connectionBufferWords, 16u);
  EXPECT_EQ(p.serializeTime, processorSerializationCost().cycles(4));
}

TEST(ParamsTest, NocParamsScaleWithWiresAndHops) {
  sdf::Channel channel;
  channel.src = 0;
  channel.dst = 1;
  channel.tokenSizeBytes = 8;
  platform::NocConfig config;
  config.hopLatencyCycles = 3;
  const CommModelParams few =
      nocParams(channel, config, /*hops=*/2, /*wires=*/4, SerializationMode::CommAssist, 4, 4);
  const CommModelParams many =
      nocParams(channel, config, /*hops=*/2, /*wires=*/16, SerializationMode::CommAssist, 4, 4);
  EXPECT_GT(few.cyclesPerWord, many.cyclesPerWord);
  EXPECT_EQ(few.latencyCycles, 6u);
  EXPECT_EQ(few.wordsInFlight, 2u);
  const CommModelParams far =
      nocParams(channel, config, /*hops=*/5, /*wires=*/4, SerializationMode::CommAssist, 4, 4);
  EXPECT_GT(far.latencyCycles, few.latencyCycles);
  EXPECT_THROW(
      (void)nocParams(channel, config, 2, 0, SerializationMode::CommAssist, 4, 4), ModelError);
  EXPECT_THROW(
      (void)nocParams(channel, config, 2, 64, SerializationMode::CommAssist, 4, 4), ModelError);
}

TEST(ParamsTest, ValidationCatchesTightBuffers) {
  CommModelParams p = basicParams(2);
  p.srcBufferTokens = 0;
  EXPECT_THROW(p.validateFor(1, 1, 0), ModelError);
  p = basicParams(2);
  p.dstBufferTokens = 0;
  EXPECT_THROW(p.validateFor(1, 1, 0), ModelError);
  p = basicParams(2);
  // alpha_src must also cover initial tokens resting in the source buffer.
  EXPECT_THROW(p.validateFor(1, 1, 5), ModelError);
}

// --------------------------------------------------------------- Expansion

TEST(ExpansionTest, CreatesEightActorsPerChannel) {
  const TimedGraph timed = boundedPair(8, 5, 5);
  const ChannelId fwd = *timed.graph.findChannel("fwd");
  const CommExpansion result = expandChannels(timed, {{fwd, basicParams(2)}});
  // 2 original + 8 model actors.
  EXPECT_EQ(result.graph.graph.actorCount(), 10u);
  ASSERT_EQ(result.expanded.size(), 1u);
  EXPECT_EQ(result.graph.graph.actor(result.expanded[0].s1).name, "fwd_s1");
  EXPECT_EQ(result.graph.graph.actor(result.expanded[0].d1).name, "fwd_d1");
  // The latency stage pipelines words.
  EXPECT_EQ(result.graph.concurrencyLimit(result.expanded[0].c2), 0u);
}

TEST(ExpansionTest, PreservesActorIdsAndLocalChannels) {
  const TimedGraph timed = boundedPair(8, 5, 5);
  const ChannelId fwd = *timed.graph.findChannel("fwd");
  const CommExpansion result = expandChannels(timed, {{fwd, basicParams(2)}});
  EXPECT_EQ(result.graph.graph.actor(0).name, "src");
  EXPECT_EQ(result.graph.graph.actor(1).name, "dst");
  EXPECT_TRUE(result.graph.graph.findChannel("ret").has_value());
  EXPECT_FALSE(result.graph.graph.findChannel("fwd").has_value());  // replaced
}

TEST(ExpansionTest, ExpandedGraphIsConsistentAndLive) {
  const TimedGraph timed = boundedPair(8, 5, 5);
  const ChannelId fwd = *timed.graph.findChannel("fwd");
  const CommExpansion result = expandChannels(timed, {{fwd, basicParams(2)}});
  EXPECT_TRUE(sdf::computeRepetitionVector(result.graph.graph).has_value());
  EXPECT_TRUE(test::isDeadlockFree(result.graph.graph));
}

TEST(ExpansionTest, InitialTokensLandInSourceBuffer) {
  Graph g("init");
  const auto a = g.addActor("a");
  const auto b = g.addActor("b");
  sdf::ChannelSpec spec;
  spec.src = a;
  spec.dst = b;
  spec.initialTokens = 2;
  spec.name = "fwd";
  g.connect(spec);
  g.connect(b, 1, a, 1, 2, "ret");
  const TimedGraph timed{std::move(g), {3, 3}, {}};
  CommModelParams p = basicParams(1);
  p.srcBufferTokens = 4;  // must cover prodRate + initial
  const CommExpansion result =
      expandChannels(timed, {{*timed.graph.findChannel("fwd"), p}});
  const auto srcq = result.graph.graph.findChannel("fwd_srcq");
  ASSERT_TRUE(srcq.has_value());
  EXPECT_EQ(result.graph.graph.channel(*srcq).initialTokens, 2u);
  const auto alphaSrc = result.graph.graph.findChannel("fwd_alpha_src");
  ASSERT_TRUE(alphaSrc.has_value());
  EXPECT_EQ(result.graph.graph.channel(*alphaSrc).initialTokens, 2u);  // 4 - 2
}

TEST(ExpansionTest, SelfEdgeCannotBeExpanded) {
  Graph g;
  const auto a = g.addActor("a");
  g.connect(a, 1, a, 1, 1, "self");
  const TimedGraph timed{std::move(g), {1}, {}};
  EXPECT_THROW(expandChannels(timed, {{0, basicParams(1)}}), ModelError);
}

TEST(ExpansionTest, ThroughputWithGenerousResourcesApproachesOriginal) {
  // With zero comm times and ample buffers the expansion must not slow
  // the graph down.
  const TimedGraph plain = boundedPair(4, 10, 10);
  const auto original = analysis::computeThroughput(plain);
  ASSERT_TRUE(original.ok());

  CommModelParams p;
  p.wordsPerToken = 1;
  p.serializeTime = 0;
  p.deserializeTime = 0;
  p.cyclesPerWord = 0;
  p.latencyCycles = 0;
  p.wordsInFlight = 8;
  p.connectionBufferWords = 64;
  p.txBufferWords = 64;
  p.srcBufferTokens = 8;
  p.dstBufferTokens = 8;
  const CommExpansion expanded =
      expandChannels(plain, {{*plain.graph.findChannel("fwd"), p}});
  const auto result = analysis::computeThroughput(expanded.graph);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.iterationsPerCycle, original.iterationsPerCycle);
}

TEST(ExpansionTest, ThroughputMonotoneInWordsInFlight) {
  const TimedGraph plain = boundedPair(64, 4, 4, /*windowTokens=*/8);
  const ChannelId fwd = *plain.graph.findChannel("fwd");
  Rational previous(0);
  for (const std::uint32_t w : {1u, 2u, 4u, 8u}) {
    CommModelParams p = basicParams(16);
    p.wordsInFlight = w;
    p.srcBufferTokens = 8;
    p.dstBufferTokens = 8;
    const auto result =
        analysis::computeThroughput(expandChannels(plain, {{fwd, p}}).graph);
    ASSERT_TRUE(result.ok()) << "w=" << w;
    EXPECT_GE(result.iterationsPerCycle, previous);
    previous = result.iterationsPerCycle;
  }
}

TEST(ExpansionTest, ThroughputMonotoneInBuffers) {
  const TimedGraph plain = boundedPair(64, 4, 4, /*windowTokens=*/8);
  const ChannelId fwd = *plain.graph.findChannel("fwd");
  Rational previous(0);
  for (const std::uint64_t buf : {2u, 3u, 4u, 6u}) {
    CommModelParams p = basicParams(16);
    p.srcBufferTokens = buf;
    p.dstBufferTokens = buf;
    const auto result =
        analysis::computeThroughput(expandChannels(plain, {{fwd, p}}).graph);
    ASSERT_TRUE(result.ok()) << "buf=" << buf;
    EXPECT_GE(result.iterationsPerCycle, previous);
    previous = result.iterationsPerCycle;
  }
}

TEST(ExpansionTest, SlowInterconnectBecomesBottleneck) {
  const TimedGraph plain = boundedPair(64, 4, 4, /*windowTokens=*/8);
  const ChannelId fwd = *plain.graph.findChannel("fwd");
  CommModelParams fast = basicParams(16);
  fast.cyclesPerWord = 1;
  fast.srcBufferTokens = 8;
  fast.dstBufferTokens = 8;
  CommModelParams slow = fast;
  slow.cyclesPerWord = 8;  // 16 words * 8 cycles >> actor times
  const auto fastResult =
      analysis::computeThroughput(expandChannels(plain, {{fwd, fast}}).graph);
  const auto slowResult =
      analysis::computeThroughput(expandChannels(plain, {{fwd, slow}}).graph);
  ASSERT_TRUE(fastResult.ok());
  ASSERT_TRUE(slowResult.ok());
  EXPECT_GT(fastResult.iterationsPerCycle, slowResult.iterationsPerCycle);
  // The slow connection needs at least 16 words * 8 cycles per token.
  EXPECT_LE(slowResult.iterationsPerCycle, Rational(1, 128));
}

TEST(ExpansionTest, MultiRateChannelExpansion) {
  Graph g("mr");
  const auto a = g.addActor("a");
  const auto b = g.addActor("b");
  sdf::ChannelSpec spec;
  spec.src = a;
  spec.prodRate = 2;
  spec.dst = b;
  spec.consRate = 3;
  spec.tokenSizeBytes = 8;
  spec.name = "fwd";
  g.connect(spec);
  g.connect(b, 3, a, 2, 12, "ret");  // q(a)=3, q(b)=2
  const TimedGraph timed{std::move(g), {5, 5}, {}};
  CommModelParams p = basicParams(2);
  p.srcBufferTokens = 6;
  p.dstBufferTokens = 6;
  const CommExpansion result =
      expandChannels(timed, {{*timed.graph.findChannel("fwd"), p}});
  const auto q = sdf::computeRepetitionVector(result.graph.graph);
  ASSERT_TRUE(q.has_value());
  // q(a)=3, q(b)=2; s1 runs once per token: 3*2=6; words: 6*2=12.
  EXPECT_EQ((*q)[result.expanded[0].s1], 6u);
  EXPECT_EQ((*q)[result.expanded[0].c1], 12u);
  const auto throughput = analysis::computeThroughput(result.graph);
  EXPECT_TRUE(throughput.ok());
}

}  // namespace
}  // namespace mamps::comm
