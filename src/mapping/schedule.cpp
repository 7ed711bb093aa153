#include "mapping/schedule.hpp"

#include <algorithm>
#include <limits>

#include "sdf/repetition_vector.hpp"

namespace mamps::mapping {

using platform::TileId;
using sdf::ActorId;
using sdf::ChannelId;

std::optional<std::vector<std::vector<ActorId>>> buildStaticOrderSchedules(
    const sdf::ApplicationModel& app, const platform::Architecture& arch,
    const std::vector<TileId>& actorToTile) {
  const sdf::Graph& g = app.graph();
  const auto qOpt = sdf::computeRepetitionVector(g);
  if (!qOpt) {
    throw ModelError("buildStaticOrderSchedules: inconsistent graph");
  }
  const auto& q = *qOpt;
  if (actorToTile.size() != g.actorCount()) {
    throw ModelError("buildStaticOrderSchedules: binding size mismatch");
  }

  // Resource-constrained list scheduling of one iteration with WCETs and
  // unbounded channels. Event-driven: tiles pick the ready actor that
  // became enabled first (ties: smallest actor id) whenever they go idle.
  std::vector<std::uint64_t> tokens(g.channelCount());
  for (ChannelId c = 0; c < g.channelCount(); ++c) {
    tokens[c] = g.channel(c).initialTokens;
  }
  std::vector<std::uint64_t> remainingFirings(q.begin(), q.end());
  std::vector<std::uint64_t> wcet(g.actorCount());
  for (ActorId a = 0; a < g.actorCount(); ++a) {
    const auto* impl = app.implementationFor(a, arch.tile(actorToTile[a]).processorType);
    if (impl == nullptr) {
      throw ModelError("buildStaticOrderSchedules: actor " + g.actor(a).name +
                       " has no implementation for its tile");
    }
    wcet[a] = impl->wcetCycles;
  }

  struct Running {
    ActorId actor = sdf::kInvalidActor;
    std::uint64_t finishTime = 0;
  };
  std::vector<std::optional<Running>> busy(arch.tileCount());
  std::vector<std::vector<ActorId>> schedules(arch.tileCount());

  const auto isReady = [&](ActorId a) {
    if (remainingFirings[a] == 0) {
      return false;
    }
    for (const ChannelId c : g.actor(a).inputs) {
      if (tokens[c] < g.channel(c).consRate) {
        return false;
      }
    }
    return true;
  };

  std::uint64_t now = 0;
  std::uint64_t totalRemaining = 0;
  for (const auto r : remainingFirings) {
    totalRemaining += r;
  }

  while (totalRemaining > 0) {
    // Start work on every idle tile (repeat: a start may enable another
    // actor on the same tile only after completion, but zero-WCET actors
    // complete immediately below).
    bool started = true;
    while (started) {
      started = false;
      for (TileId t = 0; t < arch.tileCount(); ++t) {
        if (busy[t].has_value()) {
          continue;
        }
        std::optional<ActorId> pick;
        for (ActorId a = 0; a < g.actorCount(); ++a) {
          if (actorToTile[a] == t && isReady(a)) {
            pick = a;
            break;  // smallest actor id among ready ones
          }
        }
        if (!pick) {
          continue;
        }
        for (const ChannelId c : g.actor(*pick).inputs) {
          tokens[c] -= g.channel(c).consRate;
        }
        busy[t] = Running{*pick, now + wcet[*pick]};
        schedules[t].push_back(*pick);
        started = true;
      }
      // Retire zero-time work immediately so it can cascade.
      for (TileId t = 0; t < arch.tileCount(); ++t) {
        if (busy[t] && busy[t]->finishTime == now) {
          for (const ChannelId c : g.actor(busy[t]->actor).outputs) {
            tokens[c] += g.channel(c).prodRate;
          }
          --remainingFirings[busy[t]->actor];
          --totalRemaining;
          busy[t].reset();
          started = true;
        }
      }
    }

    if (totalRemaining == 0) {
      break;  // zero-time retirements finished the iteration
    }
    // Advance to the earliest completion.
    std::uint64_t nextTime = std::numeric_limits<std::uint64_t>::max();
    for (TileId t = 0; t < arch.tileCount(); ++t) {
      if (busy[t]) {
        nextTime = std::min(nextTime, busy[t]->finishTime);
      }
    }
    if (nextTime == std::numeric_limits<std::uint64_t>::max()) {
      return std::nullopt;  // nothing running and nothing startable: deadlock
    }
    now = nextTime;
    for (TileId t = 0; t < arch.tileCount(); ++t) {
      if (busy[t] && busy[t]->finishTime == now) {
        for (const ChannelId c : g.actor(busy[t]->actor).outputs) {
          tokens[c] += g.channel(c).prodRate;
        }
        --remainingFirings[busy[t]->actor];
        --totalRemaining;
        busy[t].reset();
      }
    }
  }

  return schedules;
}

}  // namespace mamps::mapping
