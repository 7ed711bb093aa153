// Synchronous Dataflow (SDF) graph data structure.
//
// An SDF graph (Lee & Messerschmitt [9]) consists of actors connected by
// channels. Each channel has a fixed production rate at its source, a
// fixed consumption rate at its destination, and may carry initial
// tokens. Actors fire when every input channel holds at least the
// consumption rate's worth of tokens; a firing consumes and produces
// fixed token amounts.
//
// The Graph class is purely structural. Timing (execution times),
// implementation metadata, and mapping information are layered on top by
// TimedGraph (this header), ApplicationModel (app_model.hpp), and the
// mapping module.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "support/error.hpp"

namespace mamps::sdf {

using ActorId = std::uint32_t;
using ChannelId = std::uint32_t;

inline constexpr ActorId kInvalidActor = std::numeric_limits<ActorId>::max();
inline constexpr ChannelId kInvalidChannel = std::numeric_limits<ChannelId>::max();

/// A directed, rate-annotated edge between two actors.
struct Channel {
  std::string name;
  ActorId src = kInvalidActor;
  ActorId dst = kInvalidActor;
  std::uint32_t prodRate = 1;   ///< tokens produced per firing of src
  std::uint32_t consRate = 1;   ///< tokens consumed per firing of dst
  std::uint64_t initialTokens = 0;
  std::uint32_t tokenSizeBytes = 4;  ///< payload size of one token

  [[nodiscard]] bool isSelfEdge() const { return src == dst; }
};

/// An SDF actor; ports are implied by the incident channels.
struct Actor {
  std::string name;
  std::vector<ChannelId> inputs;   ///< channels with dst == this actor
  std::vector<ChannelId> outputs;  ///< channels with src == this actor
};

/// Parameters for Graph::connect.
struct ChannelSpec {
  ActorId src = kInvalidActor;
  std::uint32_t prodRate = 1;
  ActorId dst = kInvalidActor;
  std::uint32_t consRate = 1;
  std::uint64_t initialTokens = 0;
  std::uint32_t tokenSizeBytes = 4;
  std::string name;  ///< auto-generated when empty
};

/// A structural SDF graph. Actor and channel ids are dense indices and
/// remain stable; elements are never removed (build-only container).
class Graph {
 public:
  Graph() = default;
  explicit Graph(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  void setName(std::string name) { name_ = std::move(name); }

  /// Add an actor; names must be unique and non-empty.
  ActorId addActor(std::string name);

  /// Add a channel; rates must be positive, endpoints valid.
  ChannelId connect(const ChannelSpec& spec);

  /// Convenience overload for the common case.
  ChannelId connect(ActorId src, std::uint32_t prodRate, ActorId dst, std::uint32_t consRate,
                    std::uint64_t initialTokens = 0, std::string name = {});

  [[nodiscard]] std::size_t actorCount() const { return actors_.size(); }
  [[nodiscard]] std::size_t channelCount() const { return channels_.size(); }

  [[nodiscard]] const Actor& actor(ActorId id) const;
  [[nodiscard]] const Channel& channel(ChannelId id) const;
  [[nodiscard]] const std::vector<Actor>& actors() const { return actors_; }
  [[nodiscard]] const std::vector<Channel>& channels() const { return channels_; }

  /// Find an actor by name.
  [[nodiscard]] std::optional<ActorId> findActor(std::string_view name) const;
  /// Find a channel by name.
  [[nodiscard]] std::optional<ChannelId> findChannel(std::string_view name) const;
  /// Find an actor by name; throws ModelError when absent.
  [[nodiscard]] ActorId actorByName(std::string_view name) const;

  /// Change the initial-token count of a channel (used when assigning
  /// buffer capacities and schedule edges).
  void setInitialTokens(ChannelId id, std::uint64_t tokens);

  /// True when every actor is reachable from every other actor treating
  /// channels as undirected edges. The empty graph is connected.
  [[nodiscard]] bool isConnected() const;

  /// Structural validation; throws ModelError on violations. Graphs
  /// produced through the builder API are valid by construction; this
  /// exists for graphs deserialized from files.
  void validate() const;

 private:
  /// Transparent string hasher so the name indexes answer
  /// string_view lookups without materializing a std::string.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::string name_ = "sdf";
  std::vector<Actor> actors_;
  std::vector<Channel> channels_;
  // Name -> id indexes so addActor/connect duplicate checks and
  // findActor/findChannel are O(1) instead of a linear name scan (HSDF
  // expansions add tens of thousands of uniquely named elements, making
  // the scan quadratic in the expansion size).
  // lint:allow(unordered-deterministic) -- lookup-only index (find/emplace by exact name), never iterated
  std::unordered_map<std::string, ActorId, NameHash, std::equal_to<>> actorIndex_;
  // lint:allow(unordered-deterministic) -- lookup-only index (find/emplace by exact name), never iterated
  std::unordered_map<std::string, ChannelId, NameHash, std::equal_to<>> channelIndex_;
};

/// An SDF graph together with one execution time (in clock cycles of the
/// platform, the flow's base time unit) per actor firing.
struct TimedGraph {
  Graph graph;
  std::vector<std::uint64_t> execTime;  ///< indexed by ActorId

  /// Per-actor self-concurrency limit: how many firings of the actor may
  /// overlap. Empty = every actor is serialized (limit 1), which models
  /// software actors on a processing element. An entry of 0 means
  /// unlimited; the communication model uses it for the latency stage of
  /// an interconnect connection, where multiple words pipeline.
  std::vector<std::uint32_t> maxConcurrent{};

  [[nodiscard]] std::uint64_t timeOf(ActorId id) const { return execTime.at(id); }

  /// Effective concurrency limit of an actor (0 = unlimited).
  [[nodiscard]] std::uint32_t concurrencyLimit(ActorId id) const {
    return maxConcurrent.empty() ? 1 : maxConcurrent.at(id);
  }

  /// Rebuild a TimedGraph around a transformed structural graph that
  /// kept the actor set (same ids, e.g. after adding channels): every
  /// per-actor annotation is carried over from `timing`. All
  /// graph-rewriting code must go through this (or copy the whole
  /// struct) instead of assigning fields one by one, so a future field
  /// cannot be silently dropped the way `maxConcurrent` once was in
  /// analysis::withCapacities. Transformations that change the actor
  /// set (comm::expandChannels, the tests' HSDF oracle) cannot use it
  /// and must instead populate every annotation per actor they emit.
  /// @param timing source of the per-actor annotations
  /// @param structure the transformed graph; must have the same actor
  ///   count as `timing.graph`
  /// @return `timing` with its structural graph replaced by `structure`
  /// @throws ModelError when the actor counts disagree
  [[nodiscard]] static TimedGraph rebuildFrom(const TimedGraph& timing, Graph structure) {
    if (structure.actorCount() != timing.graph.actorCount()) {
      throw ModelError("TimedGraph::rebuildFrom: actor count changed by the transformation");
    }
    TimedGraph out = timing;  // whole-struct copy: picks up every field
    out.graph = std::move(structure);
    return out;
  }
};

}  // namespace mamps::sdf
