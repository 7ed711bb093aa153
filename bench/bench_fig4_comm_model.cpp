// Figure 4 / Section 4.2: the parameterized interconnect communication
// model. Sweeps the model parameters (w = words in flight, alpha_n =
// connection buffering, wires per SDM connection) on a producer/consumer
// stream and reports the resulting guaranteed throughput, demonstrating
// the latency-rate behaviour of the c1/c2 stage and the back-pressure of
// the alpha buffers.
#include <cstdio>
#include <map>

#include "analysis/throughput.hpp"
#include "comm/model.hpp"
#include "platform/noc_topology.hpp"
#include "sdf/graph.hpp"

using namespace mamps;

namespace {

sdf::TimedGraph streamPair(std::uint64_t actorTime) {
  sdf::Graph g("stream");
  const auto a = g.addActor("src");
  const auto b = g.addActor("dst");
  sdf::ChannelSpec spec;
  spec.src = a;
  spec.dst = b;
  spec.tokenSizeBytes = 128;  // 32 words per token
  spec.name = "fwd";
  g.connect(spec);
  g.connect(b, 1, a, 1, 8, "window");
  return sdf::TimedGraph{std::move(g), {actorTime, actorTime}, {}};
}

double throughputWith(const comm::CommModelParams& params) {
  const sdf::TimedGraph plain = streamPair(40);
  const auto expansion =
      comm::expandChannels(plain, {{*plain.graph.findChannel("fwd"), params}});
  const auto result = analysis::computeThroughput(expansion.graph);
  return result.ok() ? result.iterationsPerCycle.toDouble() : 0.0;
}

comm::CommModelParams baseParams() {
  comm::CommModelParams p;
  p.wordsPerToken = 32;
  p.serializeTime = 0;
  p.deserializeTime = 0;
  p.cyclesPerWord = 1;
  p.latencyCycles = 6;
  p.wordsInFlight = 2;
  p.connectionBufferWords = 32;
  p.txBufferWords = 32;
  p.srcBufferTokens = 4;
  p.dstBufferTokens = 4;
  return p;
}

}  // namespace

int main() {
  std::printf("Figure 4 - parameterized communication model (32-word tokens)\n\n");

  std::printf("Throughput vs words in flight (w), latency 6 cycles:\n");
  std::printf("%-6s %18s\n", "w", "iterations/kcycle");
  for (const std::uint32_t w : {1u, 2u, 3u, 4u, 6u, 8u}) {
    comm::CommModelParams p = baseParams();
    p.wordsInFlight = w;
    std::printf("%-6u %18.4f\n", w, throughputWith(p) * 1e3);
  }

  std::printf("\nThroughput vs connection buffering (alpha_n):\n");
  std::printf("%-8s %18s\n", "alpha_n", "iterations/kcycle");
  for (const std::uint32_t alpha : {32u, 48u, 64u, 96u, 128u}) {
    comm::CommModelParams p = baseParams();
    p.wordsInFlight = 8;
    p.connectionBufferWords = alpha;
    std::printf("%-8u %18.4f\n", alpha, throughputWith(p) * 1e3);
  }

  std::printf("\nThroughput vs SDM wires (rate = ceil(32/wires) cycles/word):\n");
  std::printf("%-6s %12s %18s\n", "wires", "cyc/word", "iterations/kcycle");
  for (const std::uint32_t wires : {32u, 16u, 8u, 4u, 2u, 1u}) {
    comm::CommModelParams p = baseParams();
    p.wordsInFlight = 8;
    p.cyclesPerWord = platform::cyclesPerWord(wires);
    std::printf("%-6u %12llu %18.4f\n", wires,
                static_cast<unsigned long long>(p.cyclesPerWord), throughputWith(p) * 1e3);
  }

  std::printf("\nShape: throughput saturates once w covers the latency-rate\n");
  std::printf("product and degrades inversely with cycles-per-word; alpha_n\n");
  std::printf("beyond one token adds pipelining headroom (Section 4.2).\n");
  return 0;
}
