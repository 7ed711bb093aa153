#include "platform/resource_budget.hpp"

#include <algorithm>

namespace mamps::platform {

ResourceBudget::ResourceBudget(const Architecture& arch) : arch_(&arch) {
  tiles_.assign(arch.tileCount(), {});
  if (arch.interconnect() == InterconnectKind::NocMesh) {
    topology_.emplace(arch.noc());
    usedWires_.assign(topology_->linkCount(), 0);
  }
}

// lint:allow(budget-provenance) -- the baseline is deliberately unclaimed: it belongs to the platform (runtime layer), not to any client, so no ledger entry exists to record it
void ResourceBudget::commitBaseline(std::uint32_t instrBytes, std::uint32_t dataBytes) {
  // Validate every software tile before committing to any: a rejected
  // baseline must leave the budget untouched (all-or-nothing, matching
  // commitTile's contract). The sums are widened to 64 bits so a
  // baseline near UINT32_MAX cannot wrap past the capacity check.
  for (TileId t = 0; t < tiles_.size(); ++t) {
    if (arch_->tile(t).kind == TileKind::HardwareIp) {
      continue;
    }
    const MemorySpec& capacity = arch_->tile(t).memory;
    if (std::uint64_t{tiles_[t].instrBytes} + instrBytes > capacity.instrBytes ||
        std::uint64_t{tiles_[t].dataBytes} + dataBytes > capacity.dataBytes) {
      throw Error("ResourceBudget::commitBaseline: baseline exceeds the residual memory of tile " +
                  arch_->tile(t).name);
    }
  }
  for (TileId t = 0; t < tiles_.size(); ++t) {
    if (arch_->tile(t).kind == TileKind::HardwareIp) {
      continue;  // hardware IP tiles run no software
    }
    tiles_[t].instrBytes += instrBytes;
    tiles_[t].dataBytes += dataBytes;
  }
}

bool ResourceBudget::tileAvailable(TileId tile, std::uint32_t client) const {
  if (faults_.tileFailed(tile)) {
    return false;
  }
  return tileSlots(tile, client) > 0 || freeTileSlots(tile) > 0;
}

std::uint32_t ResourceBudget::tileSlotCapacity(TileId tile) const {
  (void)tiles_.at(tile);
  const auto degraded = faults_.degradedTdm.find(tile);
  const std::uint32_t slots = degraded != faults_.degradedTdm.end()
                                  ? degraded->second.slotsPerWheel
                                  : arch_->tile(tile).tdm.slotsPerWheel;
  return slots == 0 ? 1 : slots;
}

std::uint32_t ResourceBudget::tileWheelOverheadCycles(TileId tile) const {
  (void)tiles_.at(tile);
  const auto degraded = faults_.degradedTdm.find(tile);
  return degraded != faults_.degradedTdm.end() ? degraded->second.wheelOverheadCycles
                                               : arch_->tile(tile).tdm.wheelOverheadCycles;
}

std::uint32_t ResourceBudget::freeTileSlots(TileId tile) const {
  if (faults_.tileFailed(tile)) {
    return 0;
  }
  const std::uint32_t capacity = tileSlotCapacity(tile);
  const std::uint32_t used = tiles_.at(tile).slotsUsed();
  return used >= capacity ? 0 : capacity - used;
}

std::uint32_t ResourceBudget::tileSlots(TileId tile, std::uint32_t client) const {
  const auto& owners = tiles_.at(tile).slotOwners;
  const auto it = owners.find(client);
  return it == owners.end() ? 0 : it->second;
}

void ResourceBudget::reserveTileSlots(TileId tile, std::uint32_t client, std::uint32_t slots) {
  if (slots == 0) {
    throw ModelError("ResourceBudget::reserveTileSlots: cannot reserve zero slots");
  }
  if (client == TileBudget::kNoClient) {
    throw Error("ResourceBudget::reserveTileSlots: invalid client id");
  }
  if (faults_.tileFailed(tile)) {
    throw Error("ResourceBudget::reserveTileSlots: tile " + arch_->tile(tile).name +
                " is failed");
  }
  if (slots > freeTileSlots(tile)) {
    throw Error("ResourceBudget::reserveTileSlots: tile " + arch_->tile(tile).name + " has " +
                std::to_string(freeTileSlots(tile)) + " free TDM slots, " + std::to_string(slots) +
                " requested");
  }
  tiles_[tile].slotOwners[client] += slots;
  ledgers_[client].tiles[tile].slots += slots;
}

std::uint32_t ResourceBudget::freeInstrBytes(TileId tile) const {
  if (faults_.tileFailed(tile)) {
    return 0;
  }
  const std::uint32_t capacity = arch_->tile(tile).memory.instrBytes;
  const std::uint32_t used = tiles_.at(tile).instrBytes;
  return used >= capacity ? 0 : capacity - used;
}

std::uint32_t ResourceBudget::freeDataBytes(TileId tile) const {
  if (faults_.tileFailed(tile)) {
    return 0;
  }
  const std::uint32_t capacity = arch_->tile(tile).memory.dataBytes;
  const std::uint32_t used = tiles_.at(tile).dataBytes;
  return used >= capacity ? 0 : capacity - used;
}

void ResourceBudget::commitTile(TileId tile, std::uint32_t client, std::uint64_t loadCycles,
                                std::uint32_t instrBytes, std::uint32_t dataBytes) {
  if (client == TileBudget::kNoClient) {
    throw Error("ResourceBudget::commitTile: invalid client id");
  }
  if (faults_.tileFailed(tile)) {
    throw Error("ResourceBudget::commitTile: tile " + arch_->tile(tile).name + " is failed");
  }
  // Slot-oblivious callers (the pre-TDM exclusive protocol) claim the
  // whole wheel on first touch; a wheel partially held by others must
  // be reserved explicitly via reserveTileSlots first. The claim is
  // deferred past the memory check so a rejected commit changes
  // nothing (the all-or-nothing contract).
  const bool claimWholeWheel = tileSlots(tile, client) == 0;
  if (claimWholeWheel && !tiles_.at(tile).slotOwners.empty()) {
    throw Error("ResourceBudget::commitTile: tile " + arch_->tile(tile).name +
                " is claimed by another client and " + std::to_string(client) +
                " holds no TDM slots on it");
  }
  if (instrBytes > freeInstrBytes(tile) || dataBytes > freeDataBytes(tile)) {
    throw Error("ResourceBudget::commitTile: reservation exceeds the residual memory of tile " +
                arch_->tile(tile).name);
  }
  if (claimWholeWheel) {
    reserveTileSlots(tile, client, tileSlotCapacity(tile));
  }
  TileBudget& budget = tiles_[tile];
  budget.loadCycles += loadCycles;
  budget.instrBytes += instrBytes;
  budget.dataBytes += dataBytes;
  ClientLedger::TileShare& share = ledgers_[client].tiles[tile];
  share.loadCycles += loadCycles;
  share.instrBytes += instrBytes;
  share.dataBytes += dataBytes;
}

const NocTopology& ResourceBudget::nocTopology() const {
  if (!topology_) {
    throw Error("ResourceBudget::nocTopology: architecture has no NoC");
  }
  return *topology_;
}

// Check-then-commit: a route that lacks `wires` free wires on any link
// changes nothing. This is the one per-link wire ledger of the flow.
bool ResourceBudget::reserveNocWires(const std::vector<LinkId>& route, std::uint32_t wires,
                                     std::uint32_t client) {
  if (wires == 0) {
    throw ModelError("ResourceBudget::reserveNocWires: cannot reserve zero wires");
  }
  if (client == TileBudget::kNoClient) {
    throw Error("ResourceBudget::reserveNocWires: invalid client id");
  }
  const std::uint32_t capacity = arch_->noc().wiresPerLink;
  for (const LinkId link : route) {
    if (faults_.nocLinkFailed(link) || usedWires_.at(link) + wires > capacity) {
      return false;
    }
  }
  ClientLedger& ledger = ledgers_[client];
  for (const LinkId link : route) {
    usedWires_[link] += wires;
    ledger.wires[link] += wires;
  }
  return true;
}

std::uint32_t ResourceBudget::usedWires(LinkId link) const { return usedWires_.at(link); }

std::uint32_t ResourceBudget::fslLinkCapacity() const { return fslLinkCapacityOf(*arch_); }

std::uint32_t ResourceBudget::fslLinksAvailable() const {
  // Failed indices that no client holds are dead capacity: they sit on
  // (or will be skipped onto) the free-list but must not be handed out,
  // so the effective capacity shrinks by each of them. Failed LIVE
  // links already count through fslLinksUsed().
  std::uint32_t failedFree = 0;
  for (const std::uint32_t index : faults_.failedFslLinks) {
    const bool live = index < nextFslIndex_ &&
                      !std::binary_search(freeFslLinks_.begin(), freeFslLinks_.end(), index);
    failedFree += live ? 0 : 1;
  }
  const std::uint32_t unavailable = fslLinksUsed() + failedFree;
  const std::uint32_t capacity = fslLinkCapacity();
  return unavailable >= capacity ? 0 : capacity - unavailable;
}

std::uint32_t ResourceBudget::allocateFslLink(std::uint32_t client) {
  if (client == TileBudget::kNoClient) {
    throw Error("ResourceBudget::allocateFslLink: invalid client id");
  }
  if (fslLinksAvailable() == 0) {
    throw Error("ResourceBudget::allocateFslLink: FSL link capacity (" +
                std::to_string(fslLinkCapacity()) + ") exhausted");
  }
  std::uint32_t index;
  const auto healthy = std::find_if(
      freeFslLinks_.begin(), freeFslLinks_.end(),
      [this](std::uint32_t candidate) { return !faults_.fslLinkFailed(candidate); });
  if (healthy != freeFslLinks_.end()) {
    index = *healthy;  // lowest released healthy index first
    freeFslLinks_.erase(healthy);
  } else {
    // Mint past failed indices, parking them on the free-list (they
    // stay unallocatable while failed and return to circulation on
    // repair); the capacity check above guarantees a healthy index
    // below the cap remains.
    while (faults_.fslLinkFailed(nextFslIndex_)) {
      freeFslLinks_.push_back(nextFslIndex_++);  // highest so far: stays sorted
    }
    index = nextFslIndex_++;
  }
  ledgers_[client].fslLinks.push_back(index);
  return index;
}

namespace {

// One holder rule per fault kind: does a client's ledger hold the failed
// tile, NoC link or FSL link? The fail* calls ask it of the new fault,
// strandedClients() of every standing one.
bool holdsTile(const ClientLedger& ledger, TileId tile) {
  return ledger.tiles.count(tile) != 0;
}

bool holdsNocLink(const ClientLedger& ledger, LinkId link) {
  return ledger.wires.count(link) != 0;
}

bool holdsFslLink(const ClientLedger& ledger, std::uint32_t index) {
  return std::find(ledger.fslLinks.begin(), ledger.fslLinks.end(), index) != ledger.fslLinks.end();
}

/// A degraded wheel strands every holder of its tile once the committed
/// slots no longer fit it: their analyzed slice assignments are void.
bool strandedByWheel(const ClientLedger& ledger, TileId tile, const TileBudget& budget,
                     const TdmConfig& wheel) {
  return budget.slotsUsed() > wheel.slotsPerWheel && holdsTile(ledger, tile);
}

/// The clients whose ledger satisfies `holds`, in ascending id order.
template <typename Holds>
std::vector<std::uint32_t> holders(const std::map<std::uint32_t, ClientLedger>& ledgers,
                                   const Holds& holds) {
  std::vector<std::uint32_t> clients;
  for (const auto& [client, ledger] : ledgers) {
    if (holds(ledger)) {
      clients.push_back(client);
    }
  }
  return clients;
}

}  // namespace

std::vector<std::uint32_t> ResourceBudget::failTile(TileId tile) {
  (void)tiles_.at(tile);
  if (faults_.tileFailed(tile)) {
    throw Error("ResourceBudget::failTile: tile " + arch_->tile(tile).name +
                " is already failed");
  }
  faults_.failedTiles.insert(tile);
  return holders(ledgers_, [tile](const ClientLedger& ledger) { return holdsTile(ledger, tile); });
}

void ResourceBudget::repairTile(TileId tile) {
  (void)tiles_.at(tile);
  if (faults_.failedTiles.erase(tile) == 0) {
    throw Error("ResourceBudget::repairTile: tile " + arch_->tile(tile).name +
                " is not failed");
  }
}

std::vector<std::uint32_t> ResourceBudget::failNocLink(LinkId link) {
  if (link >= nocTopology().linkCount()) {
    throw Error("ResourceBudget::failNocLink: link " + std::to_string(link) +
                " is out of range");
  }
  if (faults_.nocLinkFailed(link)) {
    throw Error("ResourceBudget::failNocLink: link " + std::to_string(link) +
                " is already failed");
  }
  faults_.failedNocLinks.insert(link);
  return holders(ledgers_,
                 [link](const ClientLedger& ledger) { return holdsNocLink(ledger, link); });
}

void ResourceBudget::repairNocLink(LinkId link) {
  if (faults_.failedNocLinks.erase(link) == 0) {
    throw Error("ResourceBudget::repairNocLink: link " + std::to_string(link) +
                " is not failed");
  }
}

std::vector<std::uint32_t> ResourceBudget::failFslLink(std::uint32_t index) {
  if (arch_->interconnect() != InterconnectKind::Fsl) {
    throw Error("ResourceBudget::failFslLink: architecture has no FSL interconnect");
  }
  if (index >= fslLinkCapacity()) {
    throw Error("ResourceBudget::failFslLink: index " + std::to_string(index) +
                " is out of range (capacity " + std::to_string(fslLinkCapacity()) + ")");
  }
  if (faults_.fslLinkFailed(index)) {
    throw Error("ResourceBudget::failFslLink: link " + std::to_string(index) +
                " is already failed");
  }
  faults_.failedFslLinks.insert(index);
  return holders(ledgers_,
                 [index](const ClientLedger& ledger) { return holdsFslLink(ledger, index); });
}

void ResourceBudget::repairFslLink(std::uint32_t index) {
  if (faults_.failedFslLinks.erase(index) == 0) {
    throw Error("ResourceBudget::repairFslLink: link " + std::to_string(index) +
                " is not failed");
  }
}

std::vector<std::uint32_t> ResourceBudget::degradeTileWheel(TileId tile,
                                                            const TdmConfig& wheel) {
  (void)tiles_.at(tile);
  if (faults_.degradedTdm.find(tile) != faults_.degradedTdm.end()) {
    throw Error("ResourceBudget::degradeTileWheel: tile " + arch_->tile(tile).name +
                " is already degraded");
  }
  FaultState degraded;  // the one check of a degraded wheel is FaultState::validate
  degraded.degradedTdm.emplace(tile, wheel);
  degraded.validate(*arch_);
  faults_.degradedTdm.emplace(tile, wheel);
  return holders(ledgers_, [&](const ClientLedger& ledger) {
    return strandedByWheel(ledger, tile, tiles_[tile], wheel);
  });
}

void ResourceBudget::repairTileWheel(TileId tile) {
  (void)tiles_.at(tile);
  if (faults_.degradedTdm.erase(tile) == 0) {
    throw Error("ResourceBudget::repairTileWheel: tile " + arch_->tile(tile).name +
                " is not degraded");
  }
}

std::vector<std::uint32_t> ResourceBudget::strandedClients() const {
  const FaultState& f = faults_;
  return holders(ledgers_, [&](const ClientLedger& ledger) {
    return std::any_of(f.failedTiles.begin(), f.failedTiles.end(),
                       [&](TileId tile) { return holdsTile(ledger, tile); }) ||
           std::any_of(f.failedNocLinks.begin(), f.failedNocLinks.end(),
                       [&](LinkId link) { return holdsNocLink(ledger, link); }) ||
           std::any_of(f.failedFslLinks.begin(), f.failedFslLinks.end(),
                       [&](std::uint32_t index) { return holdsFslLink(ledger, index); }) ||
           std::any_of(f.degradedTdm.begin(), f.degradedTdm.end(), [&](const auto& degraded) {
             const auto& [tile, wheel] = degraded;
             return strandedByWheel(ledger, tile, tiles_[tile], wheel);
           });
  });
}

const ClientLedger* ResourceBudget::ledger(std::uint32_t client) const {
  const auto it = ledgers_.find(client);
  return it == ledgers_.end() ? nullptr : &it->second;
}

void ResourceBudget::release(std::uint32_t client) {
  const auto it = ledgers_.find(client);
  if (it == ledgers_.end()) {
    throw Error("ResourceBudget::release: client " + std::to_string(client) +
                " holds no reservations");
  }
  const ClientLedger& ledger = it->second;
  for (const auto& [tile, share] : ledger.tiles) {
    TileBudget& budget = tiles_[tile];
    budget.loadCycles -= share.loadCycles;
    budget.instrBytes -= share.instrBytes;
    budget.dataBytes -= share.dataBytes;
    const auto owned = budget.slotOwners.find(client);
    if (owned != budget.slotOwners.end()) {
      owned->second -= std::min(owned->second, share.slots);
      if (owned->second == 0) {
        budget.slotOwners.erase(owned);  // back to the (unclaimed) baseline
      }
    }
  }
  for (const auto& [link, wires] : ledger.wires) {
    usedWires_[link] -= wires;
  }
  for (const std::uint32_t index : ledger.fslLinks) {
    freeFslLinks_.insert(
        std::lower_bound(freeFslLinks_.begin(), freeFslLinks_.end(), index), index);
  }
  // Shrink the high-water mark over the released tail so that a fully
  // torn-down budget is bit-identical to a freshly constructed one
  // (empty free-list, nextFslIndex_ == 0).
  while (!freeFslLinks_.empty() && freeFslLinks_.back() + 1 == nextFslIndex_) {
    freeFslLinks_.pop_back();
    --nextFslIndex_;
  }
  ledgers_.erase(it);
}

bool ResourceBudget::operator==(const ResourceBudget& other) const {
  // topology_ is derived deterministically from arch_, so comparing the
  // architecture covers it.
  return arch_ == other.arch_ && tiles_ == other.tiles_ && usedWires_ == other.usedWires_ &&
         nextFslIndex_ == other.nextFslIndex_ && freeFslLinks_ == other.freeFslLinks_ &&
         ledgers_ == other.ledgers_ && faults_ == other.faults_;
}

}  // namespace mamps::platform
