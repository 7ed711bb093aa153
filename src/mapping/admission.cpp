#include "mapping/admission.hpp"

#include <chrono>

#include "mapping/binding.hpp"
#include "support/strings.hpp"

namespace mamps::mapping {

using platform::ResourceBudget;
using platform::TileBudget;
using platform::TileId;
using sdf::ActorId;

AdmissionController::AdmissionController(const platform::Architecture& arch,
                                         const AdmissionOptions& options)
    : arch_(&arch), options_(options), budget_(arch) {
  arch.validate();
  budget_.commitBaseline(runtimeLayerInstrBytes(), runtimeLayerDataBytes());
  pristine_ = budget_;
}

std::string AdmissionController::decisionKey(const AppAnalysisCache& app,
                                             const MappingOptions& options,
                                             bool enforceHeadroom) const {
  // Everything the mapping step (mapOntoBudget) reads must be covered:
  // the application (the cache is a pure function of the model), the
  // mapping knobs, and — from the live budget — per-tile slot occupancy
  // and committed load/memory, per-link SDM wires, and the live FSL
  // link count. Slot occupancy is load-bearing: two residuals with
  // identical load/memory but different reserved TDM slots bind (and
  // inflate WCETs) differently, so omitting it would replay a stale
  // plan and corrupt the budget. Fully-reserved wheels are collapsed to
  // a marker: binding skips them before reading any of their values,
  // and FSL link *indices* are re-allocated on replay, so neither
  // affects the decision.
  //
  // The fault epoch leads the key: it is bumped on every injectFault
  // AND repair, so within this controller an epoch uniquely identifies
  // one platform fault state — a plan recorded on a healthy platform
  // can never replay onto a failed one (or vice versa), even when the
  // reservation signature matches. The headroom flag separates the two
  // decision families (normal admissions vs recovery re-admissions,
  // which bypass the headroom) when a RecoveryPolicy is active.
  // lint:allow(nondeterminism) -- process-local cache key: the cache must outlive the app model, so its address IS its identity; the key is never serialized or compared across runs
  std::string key = strprintf("e%llu|h%d|app=%p|o=%a,%a,%a,%a,%d,%u,%u,%u,%d,%u,%u|",
                              static_cast<unsigned long long>(faultEpoch_),
                              enforceHeadroom ? 1 : 0,
                              static_cast<const void*>(app.app), options.weights.processing,
                              options.weights.memory, options.weights.communication,
                              options.weights.latency, static_cast<int>(options.serialization),
                              options.nocWiresPerConnection, options.bufferGrowthRounds,
                              options.initialBufferScale,
                              options.incrementalAnalysis ? 1 : 0, options.maxTiles,
                              options.tdmSlots);
  for (TileId t = 0; t < arch_->tileCount(); ++t) {
    const TileBudget& tile = budget_.tiles()[t];
    if (budget_.freeTileSlots(t) == 0) {
      key += "X;";  // wheel fully reserved (or tile failed): unavailable
    } else {
      key += strprintf("%llu,%u,%u,s%u;", static_cast<unsigned long long>(tile.loadCycles),
                       tile.instrBytes, tile.dataBytes, tile.slotsUsed());
    }
  }
  if (arch_->interconnect() == platform::InterconnectKind::NocMesh) {
    key += "|w";
    const std::size_t links = budget_.nocTopology().linkCount();
    for (platform::LinkId link = 0; link < links; ++link) {
      key += strprintf("%u,", budget_.usedWires(link));
    }
  } else {
    key += strprintf("|f%u", budget_.fslLinksUsed());
  }
  return key;
}

void AdmissionController::touchCacheEntry(CachedDecision& entry) {
  lru_.splice(lru_.begin(), lru_, entry.lruPosition);
}

void AdmissionController::storeCacheEntry(std::string key, CachedDecision memo) {
  const auto it = plans_.find(key);
  if (it != plans_.end()) {
    // Re-memoization after a failed replay: keep the LRU node, refresh
    // the decision.
    memo.lruPosition = it->second.lruPosition;
    it->second = std::move(memo);
    touchCacheEntry(it->second);
    return;
  }
  lru_.push_front(key);
  memo.lruPosition = lru_.begin();
  plans_.emplace(std::move(key), std::move(memo));
  if (options_.planCacheCapacity > 0 && plans_.size() > options_.planCacheCapacity) {
    plans_.erase(lru_.back());
    lru_.pop_back();
    ++stats_.planCacheEvictions;
  }
}

bool AdmissionController::violatesHeadroom(const ResourceBudget& work) const {
  std::uint32_t freeTiles = 0;
  for (TileId t = 0; t < arch_->tileCount(); ++t) {
    if (!work.tileFailed(t) && work.tiles()[t].slotOwners.empty()) {
      ++freeTiles;
    }
  }
  return freeTiles < options_.recovery.spareTiles;
}

bool AdmissionController::replayAdmission(const CachedDecision& cached,
                                          const AppAnalysisCache& app,
                                          const MappingOptions& options, ClientId client,
                                          AdmissionDecision& out) {
  const sdf::Graph& g = app.app->graph();
  MappingResult result = cached.plan;
  ResourceBudget work = budget_;
  try {
    // Re-reserve the plan's TDM shares first: commitTile only claims
    // whole wheels implicitly, and the plan's inflated guarantee is
    // only valid for exactly these slot counts.
    for (TileId t = 0; t < result.mapping.tileTdmSlots.size(); ++t) {
      if (result.mapping.tileTdmSlots[t] > 0) {
        work.reserveTileSlots(t, client, result.mapping.tileTdmSlots[t]);
      }
    }
    for (ActorId a = 0; a < g.actorCount(); ++a) {
      const TileId tile = result.mapping.actorToTile[a];
      const auto* impl = app.app->implementationFor(a, arch_->tile(tile).processorType);
      if (impl == nullptr) {
        return false;
      }
      work.commitTile(tile, client, impl->wcetCycles * app.repetition[a], impl->instrMemBytes,
                      impl->dataMemBytes);
    }
    for (ChannelRoute& route : result.mapping.channelRoutes) {
      if (!route.interTile) {
        continue;
      }
      if (arch_->interconnect() == platform::InterconnectKind::Fsl) {
        // Link indices are budget state, not plan state: take fresh
        // ones from the free-list so provenance stays exact.
        route.fslIndex = work.allocateFslLink(client);
      } else if (!work.reserveNocWires(route.route, route.wires, client)) {
        return false;
      }
    }
  } catch (const Error&) {
    return false;  // signature mismatch bug: fall back to the cold path
  }
  // The per-tile accounting reflects the budget *now*, not at plan
  // time: other residents' reservations may differ even though the
  // decision (which only reads unclaimed tiles) is identical.
  for (TileId t = 0; t < arch_->tileCount(); ++t) {
    const TileBudget& committed = work.tiles()[t];
    result.usage[t].loadCycles = committed.loadCycles;
    result.usage[t].instrBytes = committed.instrBytes;
    result.usage[t].dataBytes = committed.dataBytes;
  }
  budget_ = std::move(work);
  out.client = client;
  out.result = std::move(result);
  residents_.emplace(client, Resident{*out.result, &app, options});
  return true;
}

AdmissionDecision AdmissionController::decide(const AppAnalysisCache& app,
                                              const MappingOptions& options, ClientId client,
                                              bool enforceHeadroom) {
  const auto start = std::chrono::steady_clock::now();
  AdmissionDecision decision;
  const bool headroom = enforceHeadroom && options_.recovery.active();

  std::string key;
  CachedDecision* cached = nullptr;
  if (options_.planCache) {
    key = decisionKey(app, options, headroom);
    const auto it = plans_.find(key);
    if (it != plans_.end()) {
      cached = &it->second;
    }
  }

  bool decided = false;
  if (cached != nullptr) {
    if (!cached->admitted) {
      decision.reason = cached->reason;
      decided = true;
    } else {
      decided = replayAdmission(*cached, app, options, client, decision);
    }
    if (decided) {
      touchCacheEntry(*cached);
    }
    decision.planCacheHit = decided;
  }

  if (!decided) {
    if (options_.planCache) {
      ++stats_.planCacheMisses;
    }
    // Cold path: the complete mapping step, trialled on a copy of the
    // live budget so a rejection (infeasible OR constraint-missing OR
    // headroom-violating) commits nothing.
    ResourceBudget work = budget_;
    auto result = mapOntoBudget(app, *arch_, options, work, client);
    if (!result.has_value()) {
      decision.reason = "no feasible mapping on the residual platform";
    } else if (!result->meetsConstraint) {
      decision.reason = "throughput guarantee does not compose with the residents";
    } else if (headroom && violatesHeadroom(work)) {
      decision.reason = "admission would cut into the recovery headroom";
    } else {
      budget_ = std::move(work);
      decision.client = client;
      decision.result = std::move(result);
      residents_.emplace(client, Resident{*decision.result, &app, options});
    }
    if (options_.planCache) {
      CachedDecision memo;
      memo.admitted = decision.admitted();
      if (memo.admitted) {
        memo.plan = *decision.result;
      } else {
        memo.reason = decision.reason;
      }
      storeCacheEntry(std::move(key), std::move(memo));
    }
  }

  if (decision.planCacheHit) {
    ++stats_.planCacheHits;
  }
  decision.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return decision;
}

AdmissionDecision AdmissionController::admit(const AppAnalysisCache& app,
                                             const MappingOptions& options) {
  support::MutexLock lock(mu_);
  ++stats_.arrivals;
  const ClientId client = nextClient_++;
  AdmissionDecision decision = decide(app, options, client, /*enforceHeadroom=*/true);
  if (decision.admitted()) {
    ++stats_.admitted;
  } else {
    ++stats_.rejected;
  }
  return decision;
}

void AdmissionController::depart(ClientId client) {
  support::MutexLock lock(mu_);
  const auto it = residents_.find(client);
  if (it == residents_.end()) {
    throw Error("AdmissionController::depart: client " + std::to_string(client) +
                " is not resident");
  }
  budget_.release(client);
  residents_.erase(it);
  ++stats_.departures;
}

RecoveryReport AdmissionController::injectFault(const FaultEvent& fault) {
  support::MutexLock lock(mu_);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::uint32_t> stranded;
  switch (fault.kind) {
    case FaultEvent::Kind::TileFail:
      stranded = budget_.failTile(fault.tile);
      break;
    case FaultEvent::Kind::NocLinkFail:
      stranded = budget_.failNocLink(fault.link);
      break;
    case FaultEvent::Kind::FslLinkFail:
      stranded = budget_.failFslLink(fault.fslIndex);
      break;
    case FaultEvent::Kind::TdmDegrade:
      stranded = budget_.degradeTileWheel(fault.tile, fault.wheel);
      break;
  }
  ++faultEpoch_;  // no plan recorded before this fault may replay now
  ++stats_.faultsInjected;
  stats_.evacuated += stranded.size();

  RecoveryReport report;
  for (const auto& [client, res] : residents_) {
    report.verdicts[client] = RecoveryOutcome::Untouched;
  }

  // Evacuate every stranded client before re-admitting any: teardown
  // first frees the maximum healthy capacity for recovery to work with.
  std::vector<std::pair<ClientId, Resident>> evacuees;
  evacuees.reserve(stranded.size());
  for (const std::uint32_t client : stranded) {
    const auto it = residents_.find(client);
    if (it == residents_.end()) {
      throw Error("AdmissionController::injectFault: stranded client " +
                  std::to_string(client) + " is not resident");
    }
    report.stranded.push_back(client);
    evacuees.emplace_back(client, std::move(it->second));
    residents_.erase(it);
    budget_.release(client);
  }

  // Re-admit in admission (oldest-first) order under the SAME client
  // id, bypassing the recovery headroom — using the reserve is its
  // purpose. Each attempt is the full trial-on-copy decision, so a
  // failed recovery commits nothing.
  for (const auto& [client, res] : evacuees) {
    const AdmissionDecision decision = decide(*res.app, res.options, client,
                                              /*enforceHeadroom=*/false);
    if (decision.admitted()) {
      report.verdicts[client] = RecoveryOutcome::Recovered;
      report.recovered.push_back(client);
      ++stats_.recovered;
    } else {
      report.verdicts[client] = RecoveryOutcome::Degraded;
      report.degraded.push_back(client);
      ++stats_.degradedClients;
    }
  }
  report.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return report;
}

void AdmissionController::repair(const FaultEvent& fault) {
  support::MutexLock lock(mu_);
  switch (fault.kind) {
    case FaultEvent::Kind::TileFail:
      budget_.repairTile(fault.tile);
      break;
    case FaultEvent::Kind::NocLinkFail:
      budget_.repairNocLink(fault.link);
      break;
    case FaultEvent::Kind::FslLinkFail:
      budget_.repairFslLink(fault.fslIndex);
      break;
    case FaultEvent::Kind::TdmDegrade:
      budget_.repairTileWheel(fault.tile);
      break;
  }
  ++faultEpoch_;  // plans recorded under the fault may not replay now
  ++stats_.repairs;
}

std::vector<ClientId> AdmissionController::residentIds() const {
  support::MutexLock lock(mu_);
  std::vector<ClientId> ids;
  ids.reserve(residents_.size());
  for (const auto& [client, res] : residents_) {
    ids.push_back(client);
  }
  return ids;
}

const MappingResult& AdmissionController::resident(ClientId client) const {
  support::MutexLock lock(mu_);
  const auto it = residents_.find(client);
  if (it == residents_.end()) {
    throw Error("AdmissionController::resident: client " + std::to_string(client) +
                " is not resident");
  }
  return it->second.result;
}

}  // namespace mamps::mapping
