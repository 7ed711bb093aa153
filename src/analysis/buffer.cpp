#include "analysis/buffer.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "sdf/repetition_vector.hpp"

namespace mamps::analysis {

using sdf::ActorId;
using sdf::Channel;
using sdf::ChannelId;
using sdf::ChannelSpec;
using sdf::Graph;

Graph withCapacities(const Graph& g, const BufferCapacities& capacities) {
  if (capacities.size() != g.channelCount()) {
    throw ModelError("withCapacities: capacity vector size mismatch");
  }
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
    out.connect(space);
  }
  return out;
}

sdf::TimedGraph withCapacities(const sdf::TimedGraph& timed, const BufferCapacities& capacities) {
  // rebuildFrom carries over every per-actor annotation — in particular
  // maxConcurrent, which an earlier field-by-field rebuild here dropped,
  // silently serializing the pipelined (limit-0) latency stages of
  // binding-aware graphs.
  return sdf::TimedGraph::rebuildFrom(timed, withCapacities(timed.graph, capacities));
}

std::uint64_t capacityLowerBound(const Channel& c) {
  const std::uint64_t g = std::gcd(c.prodRate, c.consRate);
  const std::uint64_t bound = c.prodRate + c.consRate - g + (c.initialTokens % g);
  return std::max<std::uint64_t>({bound, c.initialTokens, c.prodRate, c.consRate});
}

namespace {

/// Token-counting execution of one iteration on the capacitated graph;
/// on deadlock, reports a channel whose capacity growth would unblock a
/// producer (nullopt when the deadlock is not capacity-induced).
struct IterationProbe {
  bool completed = false;
  std::optional<ChannelId> blockedChannel;  // original channel id
};

IterationProbe probeIteration(const Graph& g, const BufferCapacities& capacities,
                              const std::vector<std::uint64_t>& q) {
  // Token state for forward channels and derived space state.
  std::vector<std::uint64_t> tokens(g.channelCount());
  std::vector<std::uint64_t> space(g.channelCount());
  for (ChannelId c = 0; c < g.channelCount(); ++c) {
    const Channel& channel = g.channel(c);
    tokens[c] = channel.initialTokens;
    space[c] = (capacities[c] == 0 || channel.isSelfEdge())
                   ? std::numeric_limits<std::uint64_t>::max()
                   : capacities[c] - channel.initialTokens;
  }
  std::vector<std::uint64_t> remaining(q.begin(), q.end());

  bool progress = true;
  while (progress) {
    progress = false;
    for (ActorId a = 0; a < g.actorCount(); ++a) {
      if (remaining[a] == 0) {
        continue;
      }
      bool ready = true;
      for (const ChannelId c : g.actor(a).inputs) {
        if (tokens[c] < g.channel(c).consRate) {
          ready = false;
          break;
        }
      }
      if (!ready) {
        continue;
      }
      for (const ChannelId c : g.actor(a).outputs) {
        if (space[c] != std::numeric_limits<std::uint64_t>::max() &&
            space[c] < g.channel(c).prodRate) {
          ready = false;
          break;
        }
      }
      if (!ready) {
        continue;
      }
      for (const ChannelId c : g.actor(a).inputs) {
        tokens[c] -= g.channel(c).consRate;
        if (space[c] != std::numeric_limits<std::uint64_t>::max()) {
          space[c] += g.channel(c).consRate;
        }
      }
      for (const ChannelId c : g.actor(a).outputs) {
        tokens[c] += g.channel(c).prodRate;
        if (space[c] != std::numeric_limits<std::uint64_t>::max()) {
          space[c] -= g.channel(c).prodRate;
        }
      }
      --remaining[a];
      progress = true;
    }
  }

  IterationProbe out;
  out.completed = std::all_of(remaining.begin(), remaining.end(),
                              [](std::uint64_t r) { return r == 0; });
  if (out.completed) {
    return out;
  }
  // Find a pending actor that is token-ready but space-blocked; its
  // fullest blocking channel is the growth candidate.
  for (ActorId a = 0; a < g.actorCount(); ++a) {
    if (remaining[a] == 0) {
      continue;
    }
    bool tokenReady = true;
    for (const ChannelId c : g.actor(a).inputs) {
      if (tokens[c] < g.channel(c).consRate) {
        tokenReady = false;
        break;
      }
    }
    if (!tokenReady) {
      continue;
    }
    for (const ChannelId c : g.actor(a).outputs) {
      if (space[c] != std::numeric_limits<std::uint64_t>::max() &&
          space[c] < g.channel(c).prodRate) {
        out.blockedChannel = c;
        return out;
      }
    }
  }
  return out;
}

}  // namespace

std::optional<BufferCapacities> minimalDeadlockFreeCapacities(const Graph& g) {
  const auto qOpt = sdf::computeRepetitionVector(g);
  if (!qOpt) {
    throw AnalysisError("minimalDeadlockFreeCapacities: inconsistent graph");
  }
  if (!sdf::isDeadlockFree(g)) {
    return std::nullopt;  // deadlocks even with unbounded buffers
  }
  BufferCapacities capacities(g.channelCount(), 0);
  for (ChannelId c = 0; c < g.channelCount(); ++c) {
    if (!g.channel(c).isSelfEdge()) {
      capacities[c] = capacityLowerBound(g.channel(c));
    }
  }
  // Demand-driven growth. An upper bound on any needed capacity is the
  // total tokens moved in one iteration, so this terminates.
  for (std::uint64_t round = 0;; ++round) {
    const IterationProbe probe = probeIteration(g, capacities, *qOpt);
    if (probe.completed) {
      return capacities;
    }
    if (!probe.blockedChannel) {
      // Deadlock not caused by capacities — cannot happen because the
      // unbounded graph is deadlock-free, but guard against it.
      return std::nullopt;
    }
    capacities[*probe.blockedChannel] += g.channel(*probe.blockedChannel).prodRate;
    if (round > 1'000'000) {
      throw AnalysisError("minimalDeadlockFreeCapacities: runaway growth");
    }
  }
}

}  // namespace mamps::analysis
