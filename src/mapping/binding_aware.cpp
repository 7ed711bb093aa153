#include "mapping/binding_aware.hpp"

#include <map>

#include "analysis/buffer.hpp"
#include "comm/params.hpp"

namespace mamps::mapping {

using comm::CommModelParams;
using comm::SerializationMode;
using sdf::ActorId;
using sdf::ChannelId;

BindingAwareModel buildBindingAware(const sdf::ApplicationModel& app,
                                    const platform::Architecture& arch, const Mapping& mapping,
                                    const std::vector<std::uint64_t>& actorExecTimes) {
  const sdf::Graph& g = app.graph();
  if (actorExecTimes.size() != g.actorCount()) {
    throw ModelError("buildBindingAware: execTime size mismatch");
  }
  if (mapping.actorToTile.size() != g.actorCount() ||
      mapping.channelRoutes.size() != g.channelCount()) {
    throw ModelError("buildBindingAware: mapping shape mismatch");
  }

  const bool onPe = mapping.serialization == SerializationMode::OnProcessor;
  const comm::SerializationCost serCost = onPe ? comm::processorSerializationCost()
                                               : comm::commAssistSerializationCost();

  // Effective actor execution times: with PE-based serialization the
  // wrapper serializes every produced token and de-serializes every
  // consumed token of inter-tile channels inline. Checked, because a
  // WCET read from a file can make the sum wrap, and a wrapped (smaller)
  // time would make the guarantee optimistic.
  std::vector<std::uint64_t> effective = actorExecTimes;
  const auto charge = [&](ActorId a, std::uint32_t rate, std::uint64_t cycles) {
    std::uint64_t overhead = 0;
    if (__builtin_mul_overflow(std::uint64_t{rate}, cycles, &overhead) ||
        __builtin_add_overflow(effective[a], overhead, &effective[a])) {
      throw ModelError("buildBindingAware: PE-serialized time of actor " + g.actor(a).name +
                       " overflows 64 bits");
    }
  };
  if (onPe) {
    for (ChannelId c = 0; c < g.channelCount(); ++c) {
      if (!mapping.channelRoutes[c].interTile) {
        continue;
      }
      const sdf::Channel& channel = g.channel(c);
      const std::uint64_t cycles = serCost.cycles(comm::wordsPerToken(channel.tokenSizeBytes));
      charge(channel.src, channel.prodRate, cycles);
      charge(channel.dst, channel.consRate, cycles);
    }
  }

  // Communication-model parameters per inter-tile channel.
  std::map<ChannelId, CommModelParams> params;
  for (ChannelId c = 0; c < g.channelCount(); ++c) {
    const ChannelRoute& route = mapping.channelRoutes[c];
    if (!route.interTile) {
      continue;
    }
    const sdf::Channel& channel = g.channel(c);
    CommModelParams p;
    if (arch.interconnect() == platform::InterconnectKind::Fsl) {
      p = comm::fslParams(channel, arch.fsl(), mapping.serialization, mapping.srcBufferTokens[c],
                          mapping.dstBufferTokens[c]);
    } else {
      p = comm::nocParams(channel, arch.noc(), static_cast<std::uint32_t>(route.route.size()),
                          route.wires, mapping.serialization, mapping.srcBufferTokens[c],
                          mapping.dstBufferTokens[c]);
    }
    if (onPe) {
      // The serialization cost already sits in the actor times; the s1/d1
      // stages of the model then only mark the hand-over to the NI.
      p.serializeTime = 0;
      p.deserializeTime = 0;
    }
    params.emplace(c, p);
  }

  // lint:allow(timedgraph-rebuild) -- origin point: this literal CREATES the timed view (same actor set as g, annotations built above); there is no prior TimedGraph to rebuild from
  sdf::TimedGraph timed{g, std::move(effective), {}};
  comm::CommExpansion expansion = comm::expandChannels(timed, params);

  // Capacity back-edges for the local channels. The expansion copies
  // unexpanded channels first, in their original order.
  analysis::BufferCapacities capacities(expansion.graph.graph.channelCount(), 0);
  {
    std::size_t newId = 0;
    for (ChannelId c = 0; c < g.channelCount(); ++c) {
      if (params.contains(c)) {
        continue;
      }
      if (!g.channel(c).isSelfEdge()) {
        capacities[newId] = mapping.localCapacityTokens[c];
      }
      ++newId;
    }
  }
  BindingAwareModel out;
  out.graph = analysis::withCapacities(expansion.graph, capacities);
  out.expanded = std::move(expansion.expanded);

  // Record where each application channel's capacity tokens live.
  // Inter-tile channels: the alpha back-edges of the expansion. Local
  // channels: the space back-edges, which withCapacities appends after
  // the expansion's channels in channel order (only bounded, non-self
  // channels get one).
  out.capacityEdges.assign(g.channelCount(), {});
  for (const comm::ExpandedChannel& e : out.expanded) {
    out.capacityEdges[e.original].alphaSrc = e.alphaSrc;
    out.capacityEdges[e.original].alphaDst = e.alphaDst;
  }
  {
    auto spaceId = static_cast<ChannelId>(expansion.graph.graph.channelCount());
    std::size_t newId = 0;
    for (ChannelId c = 0; c < g.channelCount(); ++c) {
      if (params.contains(c)) {
        continue;
      }
      if (capacities[newId] != 0 && !g.channel(c).isSelfEdge()) {
        out.capacityEdges[c].localSpace = spaceId++;
      }
      ++newId;
    }
  }

  // Resource constraints: application actors occupy their tile's PE in
  // static order; communication-model stages are NI/interconnect
  // hardware (or the CA) with dedicated resources.
  out.resources.actorResource.assign(out.graph.graph.actorCount(),
                                     analysis::ResourceConstraints::kUnbound);
  for (ActorId a = 0; a < g.actorCount(); ++a) {
    out.resources.actorResource[a] = mapping.actorToTile[a];
  }
  out.resources.staticOrder = mapping.schedules;
  return out;
}

}  // namespace mamps::mapping
