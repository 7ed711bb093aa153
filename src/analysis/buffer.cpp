#include "analysis/buffer.hpp"

#include <algorithm>
#include <numeric>

#include "analysis/self_timed.hpp"

namespace mamps::analysis {

using sdf::ActorId;
using sdf::Channel;
using sdf::ChannelId;
using sdf::ChannelSpec;
using sdf::Graph;

Graph withCapacities(const Graph& g, const BufferCapacities& capacities,
                     std::vector<ChannelId>* spaceEdges) {
  if (capacities.size() != g.channelCount()) {
    throw ModelError("withCapacities: capacity vector size mismatch");
  }
  std::vector<ChannelId> unread;
  std::vector<ChannelId>& spaceEdge = spaceEdges != nullptr ? *spaceEdges : unread;
  spaceEdge.assign(g.channelCount(), sdf::kInvalidChannel);
  Graph out = g;
  for (ChannelId c = 0; c < g.channelCount(); ++c) {
    const Channel& channel = g.channel(c);
    const std::uint64_t beta = capacities[c];
    if (beta == 0 || channel.isSelfEdge()) {
      continue;
    }
    if (beta < channel.initialTokens) {
      throw ModelError("capacity of channel " + channel.name +
                       " is smaller than its initial tokens");
    }
    if (beta < std::max(channel.prodRate, channel.consRate)) {
      throw ModelError("capacity of channel " + channel.name +
                       " is smaller than a single production/consumption");
    }
    ChannelSpec space;
    space.src = channel.dst;
    space.dst = channel.src;
    space.prodRate = channel.consRate;  // consuming frees that much space
    space.consRate = channel.prodRate;  // producing claims that much space
    space.initialTokens = beta - channel.initialTokens;
    space.tokenSizeBytes = 1;  // space tokens carry no payload
    space.name = channel.name + "_space";
    spaceEdge[c] = out.connect(space);
  }
  return out;
}

sdf::TimedGraph withCapacities(const sdf::TimedGraph& timed, const BufferCapacities& capacities,
                               std::vector<ChannelId>* spaceEdges) {
  // rebuildFrom carries over every per-actor annotation — in particular
  // maxConcurrent, which an earlier field-by-field rebuild here dropped,
  // silently serializing the pipelined (limit-0) latency stages of
  // binding-aware graphs.
  return sdf::TimedGraph::rebuildFrom(timed,
                                      withCapacities(timed.graph, capacities, spaceEdges));
}

std::uint64_t capacityLowerBound(const Channel& c) {
  const std::uint64_t g = std::gcd(c.prodRate, c.consRate);
  const std::uint64_t bound = c.prodRate + c.consRate - g + (c.initialTokens % g);
  return std::max<std::uint64_t>({bound, c.initialTokens, c.prodRate, c.consRate});
}

namespace {

/// Run a budgeted execution until it stops, with one-cycle firings.
/// Every actor is serialized, so an instant starts and retires each
/// actor at most once and settle() never reaches its livelock bound.
/// @return true when every actor spent its budget
bool completesBudget(SelfTimedExecution& execution) {
  const auto oneCycle = [](ActorId) { return std::uint64_t{1}; };
  const auto ignore = [](ActorId) {};
  for (;;) {
    (void)execution.settle(oneCycle, ignore);
    if (!execution.active()) {
      break;
    }
    execution.advance();
  }
  const auto& budget = execution.budget();
  return std::all_of(budget.begin(), budget.end(), [](std::uint64_t b) { return b == 0; });
}

}  // namespace

bool isDeadlockFree(const Graph& g, std::span<const std::uint64_t> q) {
  // An empty budget is one that never runs out: it would never stop.
  if (q.size() != g.actorCount()) {
    throw AnalysisError("isDeadlockFree: the repetition vector does not match the actor count");
  }
  SelfTimedExecution execution(g, {}, nullptr, q);
  return completesBudget(execution);
}

}  // namespace mamps::analysis
