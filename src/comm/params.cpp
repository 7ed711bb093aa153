#include "comm/params.hpp"

#include "platform/noc_topology.hpp"

namespace mamps::comm {
namespace {

SerializationCost costFor(SerializationMode mode) {
  return mode == SerializationMode::OnProcessor ? processorSerializationCost()
                                                : commAssistSerializationCost();
}

}  // namespace

SerializationCost processorSerializationCost() {
  // Microblaze software loop: function call + pointer setup, then a
  // load, an FSL put/get (blocking handshake), and loop bookkeeping per
  // 32-bit word.
  return {.fixedCycles = 24, .perWordCycles = 8};
}

SerializationCost commAssistSerializationCost() {
  // CA-MPSoC [13]: descriptor setup, then the CA streams one word every
  // other cycle without occupying the processor.
  return {.fixedCycles = 8, .perWordCycles = 2};
}

CommModelParams fslParams(const sdf::Channel& channel, const platform::FslConfig& config,
                          SerializationMode mode, std::uint64_t srcBufferTokens,
                          std::uint64_t dstBufferTokens) {
  const std::uint32_t n = wordsPerToken(channel.tokenSizeBytes);
  const SerializationCost cost = costFor(mode);
  CommModelParams p;
  p.wordsPerToken = n;
  p.serializeTime = cost.cycles(n);
  p.deserializeTime = cost.cycles(n);
  p.cyclesPerWord = 1;  // the FSL accepts one word per cycle
  p.latencyCycles = config.latencyCycles;
  p.wordsInFlight = 1;  // a simplex link holds one word in its register
  p.connectionBufferWords = config.fifoDepthWords;
  p.txBufferWords = config.fifoDepthWords;
  p.srcBufferTokens = srcBufferTokens;
  p.dstBufferTokens = dstBufferTokens;
  p.validateFor(channel.prodRate, channel.consRate, channel.initialTokens);
  return p;
}

CommModelParams nocParams(const sdf::Channel& channel, const platform::NocConfig& config,
                          std::uint32_t hops, std::uint32_t wires, SerializationMode mode,
                          std::uint64_t srcBufferTokens, std::uint64_t dstBufferTokens) {
  if (wires == 0 || wires > config.wiresPerLink) {
    throw ModelError("nocParams: invalid wire count");
  }
  const std::uint32_t n = wordsPerToken(channel.tokenSizeBytes);
  const SerializationCost cost = costFor(mode);
  CommModelParams p;
  p.wordsPerToken = n;
  p.serializeTime = cost.cycles(n);
  p.deserializeTime = cost.cycles(n);
  p.cyclesPerWord = platform::cyclesPerWord(wires);
  // A connection with zero hops degenerates to a local NI loopback.
  p.latencyCycles = std::max<std::uint64_t>(1, std::uint64_t{hops} * config.hopLatencyCycles);
  // One word can sit in each router stage of the route.
  p.wordsInFlight = std::max<std::uint32_t>(1, hops);
  p.connectionBufferWords = config.connectionBufferWords;
  p.txBufferWords = config.connectionBufferWords;
  p.srcBufferTokens = srcBufferTokens;
  p.dstBufferTokens = dstBufferTokens;
  p.validateFor(channel.prodRate, channel.consRate, channel.initialTokens);
  return p;
}

}  // namespace mamps::comm
