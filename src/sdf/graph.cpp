#include "sdf/graph.hpp"

#include <algorithm>

namespace mamps::sdf {

ActorId Graph::addActor(std::string name) {
  if (name.empty()) {
    throw ModelError("actor name must be non-empty");
  }
  const auto id = static_cast<ActorId>(actors_.size());
  if (!actorIndex_.try_emplace(name, id).second) {
    throw ModelError("duplicate actor name: " + name);
  }
  actors_.push_back(Actor{std::move(name), {}, {}});
  return id;
}

ChannelId Graph::connect(const ChannelSpec& spec) {
  if (spec.src >= actors_.size() || spec.dst >= actors_.size()) {
    throw ModelError("channel endpoint out of range");
  }
  if (spec.prodRate == 0 || spec.consRate == 0) {
    throw ModelError("channel rates must be positive");
  }
  if (spec.tokenSizeBytes == 0) {
    throw ModelError("token size must be positive");
  }
  Channel channel;
  channel.src = spec.src;
  channel.dst = spec.dst;
  channel.prodRate = spec.prodRate;
  channel.consRate = spec.consRate;
  channel.initialTokens = spec.initialTokens;
  channel.tokenSizeBytes = spec.tokenSizeBytes;
  channel.name = spec.name.empty() ? actors_[spec.src].name + "_to_" + actors_[spec.dst].name +
                                         "_" + std::to_string(channels_.size())
                                   : spec.name;
  const auto id = static_cast<ChannelId>(channels_.size());
  if (!channelIndex_.try_emplace(channel.name, id).second) {
    throw ModelError("duplicate channel name: " + channel.name);
  }
  channels_.push_back(std::move(channel));
  actors_[spec.src].outputs.push_back(id);
  actors_[spec.dst].inputs.push_back(id);
  return id;
}

ChannelId Graph::connect(ActorId src, std::uint32_t prodRate, ActorId dst, std::uint32_t consRate,
                         std::uint64_t initialTokens, std::string name) {
  ChannelSpec spec;
  spec.src = src;
  spec.prodRate = prodRate;
  spec.dst = dst;
  spec.consRate = consRate;
  spec.initialTokens = initialTokens;
  spec.name = std::move(name);
  return connect(spec);
}

const Actor& Graph::actor(ActorId id) const {
  if (id >= actors_.size()) {
    throw ModelError("actor id out of range: " + std::to_string(id));
  }
  return actors_[id];
}

const Channel& Graph::channel(ChannelId id) const {
  if (id >= channels_.size()) {
    throw ModelError("channel id out of range: " + std::to_string(id));
  }
  return channels_[id];
}

std::optional<ActorId> Graph::findActor(std::string_view name) const {
  const auto it = actorIndex_.find(name);
  if (it == actorIndex_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::optional<ChannelId> Graph::findChannel(std::string_view name) const {
  const auto it = channelIndex_.find(name);
  if (it == channelIndex_.end()) {
    return std::nullopt;
  }
  return it->second;
}

ActorId Graph::actorByName(std::string_view name) const {
  const auto id = findActor(name);
  if (!id) {
    throw ModelError("no such actor: " + std::string(name));
  }
  return *id;
}

void Graph::setInitialTokens(ChannelId id, std::uint64_t tokens) {
  if (id >= channels_.size()) {
    throw ModelError("channel id out of range");
  }
  channels_[id].initialTokens = tokens;
}

bool Graph::isConnected() const {
  if (actors_.empty()) {
    return true;
  }
  std::vector<bool> seen(actors_.size(), false);
  std::vector<ActorId> stack{0};
  seen[0] = true;
  std::size_t reached = 1;
  while (!stack.empty()) {
    const ActorId a = stack.back();
    stack.pop_back();
    const auto visit = [&](ChannelId c) {
      const Channel& channel = channels_[c];
      const ActorId other = channel.src == a ? channel.dst : channel.src;
      if (!seen[other]) {
        seen[other] = true;
        ++reached;
        stack.push_back(other);
      }
    };
    for (const ChannelId c : actors_[a].inputs) {
      visit(c);
    }
    for (const ChannelId c : actors_[a].outputs) {
      visit(c);
    }
  }
  return reached == actors_.size();
}

void Graph::validate() const {
  for (std::size_t i = 0; i < actors_.size(); ++i) {
    if (actors_[i].name.empty()) {
      throw ModelError("actor " + std::to_string(i) + " has an empty name");
    }
    for (std::size_t j = i + 1; j < actors_.size(); ++j) {
      if (actors_[i].name == actors_[j].name) {
        throw ModelError("duplicate actor name: " + actors_[i].name);
      }
    }
  }
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    const Channel& c = channels_[i];
    if (c.src >= actors_.size() || c.dst >= actors_.size()) {
      throw ModelError("channel " + c.name + " has an endpoint out of range");
    }
    if (c.prodRate == 0 || c.consRate == 0) {
      throw ModelError("channel " + c.name + " has a zero rate");
    }
    if (c.tokenSizeBytes == 0) {
      throw ModelError("channel " + c.name + " has a zero token size");
    }
    const auto& outs = actors_[c.src].outputs;
    const auto& ins = actors_[c.dst].inputs;
    const auto cid = static_cast<ChannelId>(i);
    if (std::find(outs.begin(), outs.end(), cid) == outs.end() ||
        std::find(ins.begin(), ins.end(), cid) == ins.end()) {
      throw ModelError("channel " + c.name + " is not registered with its endpoints");
    }
  }
}

}  // namespace mamps::sdf
