#include "mapping/workload.hpp"

#include <algorithm>
#include <numeric>
#include <optional>

#include "analysis/buffer.hpp"
#include "analysis/incremental.hpp"
#include "mapping/binding.hpp"
#include "mapping/schedule.hpp"
#include "support/log.hpp"

namespace mamps::mapping {

using platform::ResourceBudget;
using platform::TileId;
using sdf::ActorId;
using sdf::ChannelId;

bool routeChannels(const sdf::Graph& g, const platform::Architecture& arch,
                   const std::vector<TileId>& actorToTile, const MappingOptions& options,
                   ResourceBudget& budget, std::uint32_t client,
                   std::vector<ChannelRoute>& routes) {
  // All-or-nothing: allocate on a copy, commit only a complete success.
  // The contract is load-bearing for callers that hold a long-lived
  // budget (the admission controller's live platform state): a failed
  // route must not corrupt it.
  ResourceBudget trial = budget;
  routes.assign(g.channelCount(), {});
  for (ChannelId c = 0; c < g.channelCount(); ++c) {
    const sdf::Channel& channel = g.channel(c);
    ChannelRoute& route = routes[c];
    route.srcTile = actorToTile[channel.src];
    route.dstTile = actorToTile[channel.dst];
    route.interTile = route.srcTile != route.dstTile;
    if (!route.interTile) {
      continue;
    }
    if (arch.interconnect() == platform::InterconnectKind::Fsl) {
      if (trial.fslLinksAvailable() == 0) {
        return false;  // the FSL port budget (minus failed links) is exhausted
      }
      route.fslIndex = trial.allocateFslLink(client);
      continue;
    }
    route.route = trial.nocTopology().xyRoute(route.srcTile, route.dstTile);
    std::uint32_t wires = std::min(options.nocWiresPerConnection, arch.noc().wiresPerLink);
    wires = std::max<std::uint32_t>(wires, 1);
    while (!trial.reserveNocWires(route.route, wires, client)) {
      if (wires == 1) {
        return false;  // the route is saturated
      }
      wires /= 2;
    }
    route.wires = wires;
  }
  budget = std::move(trial);
  return true;
}

namespace {

/// Initial buffer distribution: conservative lower bounds scaled by the
/// configured factor.
void assignBuffers(const sdf::Graph& g, const std::vector<ChannelRoute>& routes,
                   std::uint32_t scale, Mapping& mapping) {
  mapping.localCapacityTokens.assign(g.channelCount(), 0);
  mapping.srcBufferTokens.assign(g.channelCount(), 0);
  mapping.dstBufferTokens.assign(g.channelCount(), 0);
  for (ChannelId c = 0; c < g.channelCount(); ++c) {
    const sdf::Channel& channel = g.channel(c);
    if (channel.isSelfEdge()) {
      continue;
    }
    if (routes[c].interTile) {
      mapping.srcBufferTokens[c] =
          (std::uint64_t{channel.prodRate} + channel.initialTokens) * scale;
      mapping.dstBufferTokens[c] = std::uint64_t{channel.consRate} * scale;
    } else {
      mapping.localCapacityTokens[c] = analysis::capacityLowerBound(channel) * scale;
    }
  }
}

void growBuffers(const sdf::Graph& g, Mapping& mapping) {
  // Checked, because bufferGrowthRounds is a user option and a wrapped
  // (smaller) capacity would make the guarantee optimistic.
  const auto twice = [&](std::uint64_t& tokens, ChannelId c) {
    if (__builtin_mul_overflow(tokens, std::uint64_t{2}, &tokens)) {
      throw ModelError("mapOntoBudget: buffer of channel " + g.channel(c).name +
                       " overflows 64 bits");
    }
  };
  for (ChannelId c = 0; c < g.channelCount(); ++c) {
    if (g.channel(c).isSelfEdge()) {
      continue;
    }
    if (mapping.channelRoutes[c].interTile) {
      twice(mapping.srcBufferTokens[c], c);
      twice(mapping.dstBufferTokens[c], c);
    } else {
      twice(mapping.localCapacityTokens[c], c);
    }
  }
}

/// Push the mapping's current buffer sizes into the binding-aware model
/// and the incremental analysis context by patching the capacity
/// back-edges' initial tokens — the only part of the model that depends
/// on buffer sizes, so this replaces a full rebuild.
void patchCapacityTokens(const sdf::Graph& g, const Mapping& mapping, BindingAwareModel& model,
                         analysis::IncrementalThroughput& context) {
  const auto apply = [&](ChannelId id, std::uint64_t tokens) {
    if (id == sdf::kInvalidChannel) {
      return;
    }
    model.graph.graph.setInitialTokens(id, tokens);
    context.setInitialTokens(id, tokens);
  };
  for (ChannelId c = 0; c < g.channelCount(); ++c) {
    const sdf::Channel& channel = g.channel(c);
    if (channel.isSelfEdge()) {
      continue;
    }
    const CapacityEdgeIds& ids = model.capacityEdges[c];
    if (mapping.channelRoutes[c].interTile) {
      apply(ids.alphaSrc, mapping.srcBufferTokens[c] - channel.initialTokens);
      apply(ids.alphaDst, mapping.dstBufferTokens[c]);
    } else {
      apply(ids.localSpace, mapping.localCapacityTokens[c] - channel.initialTokens);
    }
  }
}

}  // namespace

std::optional<MappingResult> mapOntoBudget(const AppAnalysisCache& cache,
                                           const platform::Architecture& arch,
                                           const MappingOptions& options, ResourceBudget& budget,
                                           std::uint32_t client) {
  const sdf::ApplicationModel& app = *cache.app;
  const sdf::Graph& g = app.graph();
  if (!cache.consistent || !cache.deadlockFree) {
    return std::nullopt;
  }

  // Trial everything on a copy; `budget` only advances on success.
  ResourceBudget work = budget;
  const auto binding = bindActors(app, options, work, client);
  if (!binding) {
    logWarning("mapOntoBudget: no feasible binding");
    return std::nullopt;
  }

  const auto schedules = buildStaticOrderSchedules(app, arch, binding->actorToTile);
  if (!schedules) {
    logWarning("mapOntoBudget: schedule construction deadlocked");
    return std::nullopt;
  }

  MappingResult result;
  result.mapping.actorToTile = binding->actorToTile;
  result.mapping.schedules = *schedules;
  result.mapping.serialization = options.serialization;
  result.usage = binding->usage;

  // Route with the requested SDM width; when a link saturates, retry the
  // whole allocation with a globally halved request so early connections
  // do not starve later ones. routeChannels is all-or-nothing, so a
  // failed attempt leaves `work` untouched.
  {
    std::uint32_t wires = std::max<std::uint32_t>(1, options.nocWiresPerConnection);
    MappingOptions attempt = options;
    for (;;) {
      attempt.nocWiresPerConnection = wires;
      if (routeChannels(g, arch, binding->actorToTile, attempt, work, client,
                        result.mapping.channelRoutes)) {
        break;
      }
      if (wires == 1) {
        logWarning("mapOntoBudget: routing failed (saturated links or FSL capacity)");
        return std::nullopt;
      }
      wires /= 2;
    }
  }

  // Record the TDM shares the binder reserved; admission replay
  // re-reserves exactly these before re-committing load/memory.
  result.mapping.tileTdmSlots.assign(arch.tileCount(), 0);
  for (TileId t = 0; t < arch.tileCount(); ++t) {
    result.mapping.tileTdmSlots[t] = work.tileSlots(t, client);
  }

  // WCETs per actor on its bound tile (from the per-application cache;
  // bindActors only places actors on tiles they have an implementation
  // for, so the lookups always hit).
  std::vector<std::uint64_t> wcet(g.actorCount());
  for (ActorId a = 0; a < g.actorCount(); ++a) {
    const auto it = cache.wcetByType.find(arch.tile(binding->actorToTile[a]).processorType);
    if (it == cache.wcetByType.end() || it->second[a] == AppAnalysisCache::kNoWcet) {
      throw ModelError("mapOntoBudget: actor " + g.actor(a).name +
                       " bound to a tile without an implementation");
    }
    wcet[a] = it->second[a];
    // Conservative TDM accounting: holding k of the wheel's S slots,
    // a firing of raw length w needs at most ceil(w / (k/S)) cycles of
    // wall-clock wheel time plus the slot-switch overhead, REGARDLESS
    // of what co-resident applications run in the other slots. The
    // analyzed throughput under these inflated WCETs is therefore a
    // composable lower bound. A fully-held wheel stays uninflated (the
    // exclusive pre-TDM case).
    const platform::TileId t = binding->actorToTile[a];
    const std::uint32_t held = work.tileSlots(t, client);
    const std::uint32_t wheel = work.tileSlotCapacity(t);
    if (held != 0 && held < wheel) {
      // The effective wheel (degraded when the tile is) sets both the
      // share and the switch overhead. Checked, because a WCET read
      // from a file can make wcet * wheel wrap, and a wrapped (smaller)
      // WCET would make the guarantee optimistic.
      std::uint64_t scaled = 0;
      if (__builtin_mul_overflow(wcet[a], std::uint64_t{wheel}, &scaled) ||
          __builtin_add_overflow(scaled, std::uint64_t{held - 1}, &scaled) ||
          __builtin_add_overflow(scaled / held, work.tileWheelOverheadCycles(t), &wcet[a])) {
        throw ModelError("mapOntoBudget: TDM-inflated WCET of actor " + g.actor(a).name +
                         " overflows 64 bits");
      }
    }
  }

  // Buffer distribution: start from scaled lower bounds, grow until the
  // throughput constraint holds or the growth budget is spent.
  assignBuffers(g, result.mapping.channelRoutes,
                std::max<std::uint32_t>(1, options.initialBufferScale), result.mapping);
  const Rational constraint = app.throughputConstraint();
  const auto constraintMet = [&](const analysis::ThroughputResult& t) {
    return t.ok() && (constraint.isZero() || t.iterationsPerCycle >= constraint);
  };
  // With incremental analysis the model is built once: growth rounds
  // only change capacity back-edge tokens, which are patched into the
  // model and the context instead of rebuilding and re-expanding. The
  // from-scratch baseline rebuilds the model and re-runs the unified
  // analysis every round (bit-identical to the incremental path).
  result.model = buildBindingAware(app, arch, result.mapping, wcet);
  std::optional<analysis::IncrementalThroughput> context;
  if (options.incrementalAnalysis) {
    context.emplace(result.model.graph, &result.model.resources);
    // Cross-run warm start: seed the first solve from the caller's
    // handle (e.g. the previous design point of a DSE sweep) and hand
    // the converged policy back after the growth loop. Acceleration
    // only — results never depend on the seed.
    if (options.solverWarmStart != nullptr) {
      context->adoptWarmStart(*options.solverWarmStart);
    }
  }
  for (std::uint32_t round = 0;; ++round) {
    result.throughput = context ? context->compute()
                                : analysis::computeThroughput(result.model.graph,
                                                              result.model.resources);
    const bool met = constraintMet(result.throughput);
    if (met || round >= options.bufferGrowthRounds) {
      result.meetsConstraint = met;
      break;
    }
    growBuffers(g, result.mapping);
    if (context) {
      patchCapacityTokens(g, result.mapping, result.model, *context);
    } else {
      result.model = buildBindingAware(app, arch, result.mapping, wcet);
    }
  }
  if (context && options.solverWarmStart != nullptr && context->onFastPath()) {
    context->exportWarmStart(*options.solverWarmStart);
  }
  budget = std::move(work);
  return result;
}

std::size_t WorkloadResult::mappedCount() const {
  std::size_t n = 0;
  for (const auto& app : apps) {
    n += app.has_value() ? 1 : 0;
  }
  return n;
}

bool WorkloadResult::meetsConstraints() const {
  if (!feasible()) {
    return false;
  }
  for (const auto& app : apps) {
    if (!app->meetsConstraint) {
      return false;
    }
  }
  return true;
}

WorkloadResult mapWorkload(std::span<const AppAnalysisCache> apps,
                           const platform::Architecture& arch, const WorkloadOptions& options) {
  arch.validate();
  if (!options.appOptions.empty() && options.appOptions.size() != apps.size()) {
    throw ModelError("mapWorkload: appOptions size does not match the workload");
  }
  if (!options.priorities.empty() && options.priorities.size() != apps.size()) {
    throw ModelError("mapWorkload: priorities size does not match the workload");
  }

  // Priority order: higher first, ties in input order (stable).
  std::vector<std::size_t> order(apps.size());
  std::iota(order.begin(), order.end(), 0);
  if (!options.priorities.empty()) {
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return options.priorities[a] > options.priorities[b];
    });
  }

  ResourceBudget budget(arch);
  budget.commitBaseline(runtimeLayerInstrBytes(), runtimeLayerDataBytes());

  WorkloadResult out;
  out.apps.resize(apps.size());
  out.mappingOrder = order;
  for (const std::size_t i : order) {
    const MappingOptions& appOptions =
        options.appOptions.empty() ? options.options : options.appOptions[i];
    out.apps[i] =
        mapOntoBudget(apps[i], arch, appOptions, budget, static_cast<std::uint32_t>(i));
  }

  // Combined platform accounting straight from the final budget.
  out.usage.assign(arch.tileCount(), {});
  for (TileId t = 0; t < arch.tileCount(); ++t) {
    const platform::TileBudget& committed = budget.tiles()[t];
    out.usage[t].loadCycles = committed.loadCycles;
    out.usage[t].instrBytes = committed.instrBytes;
    out.usage[t].dataBytes = committed.dataBytes;
  }
  return out;
}

}  // namespace mamps::mapping
