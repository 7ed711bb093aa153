// Shared-platform resource state: capacity minus committed reservations.
//
// One generated MAMPS platform serves a *workload* of applications
// (the paper maps multiple throughput-constrained applications onto one
// MPSoC). Every resource an application claims while being mapped —
// tile processor time, instruction/data memory, SDM wires on NoC links,
// dedicated FSL links — is committed here, so the next application of
// the workload is mapped onto the *residual* budget. The guarantees
// compose because every commitment is disjoint: a tile's TDM slot wheel
// grants each application its own time slices (an exclusive 1-slot
// wheel is the degenerate case), an SDM wire belongs to one connection,
// and an FSL link is point-to-point by construction, so no application
// can interfere with another's analyzed schedule.
//
// The budget is a value type: copy it to trial a mapping attempt and
// assign the copy back to commit, or drop it to roll back.
//
// Beyond batch co-mapping, the budget supports *online* admission
// control (mapping/admission.hpp): every commitment records per-client
// provenance — which tiles (and how much of each), how many SDM wires
// on which links, which FSL link indices — so release() can tear a
// departed client down exactly. After any interleaving of commits and
// releases that ends with every client released, the budget compares
// equal (field for field, operator==) to a freshly constructed one with
// the same baseline: nothing leaks, nothing drifts.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "platform/architecture.hpp"
#include "platform/fault.hpp"
#include "platform/noc_topology.hpp"

namespace mamps::platform {

/// Committed reservations on one tile of the shared platform.
struct TileBudget {
  /// Sentinel client id: no valid client carries this id.
  static constexpr std::uint32_t kNoClient = 0xffffffff;

  std::uint64_t loadCycles = 0;  ///< committed processor cycles per iteration
  std::uint32_t instrBytes = 0;  ///< committed instruction memory
  std::uint32_t dataBytes = 0;   ///< committed data memory
  /// TDM slot reservations: client -> slots held on this tile's wheel.
  /// Empty = unclaimed. A client's static-order schedule runs inside
  /// its own slots only, so co-resident clients cannot invalidate it;
  /// an exclusive (1-slot) wheel degenerates to the pre-TDM one-owner
  /// rule. std::map keeps iteration (and equality) deterministic.
  std::map<std::uint32_t, std::uint32_t> slotOwners;

  /// Slots currently reserved across all clients.
  /// @return the sum of every client's held slots
  [[nodiscard]] std::uint32_t slotsUsed() const {
    std::uint32_t used = 0;
    for (const auto& [client, slots] : slotOwners) {
      used += slots;
    }
    return used;
  }

  /// Field-for-field equality (pristine-restoration checks).
  /// @param other the tile budget to compare against
  /// @return true when every field matches
  [[nodiscard]] bool operator==(const TileBudget& other) const = default;
};

/// Per-client provenance of committed reservations: exactly what
/// release() must hand back. Recorded incrementally by commitTile /
/// reserveNocWires / allocateFslLink; std::map keeps the iteration
/// order (and thus release and equality) deterministic.
struct ClientLedger {
  /// Per claimed tile: this client's share of the committed load/memory
  /// (the tile may additionally carry the unclaimed platform baseline).
  struct TileShare {
    std::uint64_t loadCycles = 0;  ///< committed processor cycles
    std::uint32_t instrBytes = 0;  ///< committed instruction memory
    std::uint32_t dataBytes = 0;   ///< committed data memory
    std::uint32_t slots = 0;       ///< held TDM slots on the tile's wheel

    /// Field-for-field equality.
    /// @param other the share to compare against
    /// @return true when every field matches
    [[nodiscard]] bool operator==(const TileShare& other) const = default;
  };

  std::map<TileId, TileShare> tiles;         ///< tile -> this client's share
  std::map<LinkId, std::uint32_t> wires;     ///< NoC link -> reserved SDM wires
  std::vector<std::uint32_t> fslLinks;       ///< held FSL link indices

  /// Field-for-field equality.
  /// @param other the ledger to compare against
  /// @return true when every member matches
  [[nodiscard]] bool operator==(const ClientLedger& other) const = default;
};

/// Capacity-minus-reservations accounting for one architecture.
///
/// Clients (the applications of a workload, identified by opaque ids)
/// commit reservations; queries report the residual; release() returns
/// a departed client's reservations exactly. The referenced
/// Architecture must outlive the budget.
class ResourceBudget {
 public:
  /// An empty budget over no architecture (assign before use).
  ResourceBudget() = default;
  /// Start an empty budget over `arch` (no reservations committed).
  /// @param arch the architecture to track; must outlive the budget
  explicit ResourceBudget(const Architecture& arch);

  /// The architecture this budget tracks.
  /// @return the architecture, or null for a default-constructed budget
  [[nodiscard]] const Architecture* arch() const { return arch_; }

  // ------------------------------------------------------------- tiles

  /// Charge a platform-level baseline (e.g. the runtime layer image of
  /// the MAMPS scheduler/communication library) on every software tile.
  /// Hardware IP tiles run no software and are skipped. The tiles stay
  /// unclaimed, and the baseline belongs to no client — release() never
  /// returns it.
  /// @param instrBytes instruction memory to charge per software tile
  /// @param dataBytes data memory to charge per software tile
  /// @throws Error when the baseline does not fit the residual memory
  ///   of every software tile (checked overflow-safely before anything
  ///   is committed: a failed call changes nothing)
  void commitBaseline(std::uint32_t instrBytes, std::uint32_t dataBytes);

  /// May `client` place work on the tile?
  /// @param tile the tile to query
  /// @param client the asking client id
  /// @return false for failed tiles; otherwise true when `client`
  ///   already holds slots on the tile's TDM wheel, or free slots
  ///   remain for it to reserve
  [[nodiscard]] bool tileAvailable(TileId tile, std::uint32_t client) const;

  /// The tile's effective TDM wheel size (>= 1): the degraded wheel's
  /// when the tile is degraded, TdmConfig::slotsPerWheel otherwise.
  /// @param tile the tile to query
  /// @return the number of slots on the effective wheel
  [[nodiscard]] std::uint32_t tileSlotCapacity(TileId tile) const;

  /// Unreserved slots on the tile's TDM wheel; 0 for failed tiles.
  /// @param tile the tile to query
  /// @return effective wheel capacity minus every client's held slots
  [[nodiscard]] std::uint32_t freeTileSlots(TileId tile) const;

  /// Slots `client` holds on the tile's TDM wheel.
  /// @param tile the tile to query
  /// @param client the client to look up
  /// @return the held slot count (0 = no reservation)
  [[nodiscard]] std::uint32_t tileSlots(TileId tile, std::uint32_t client) const;

  /// Reserve `slots` additional TDM slots on the tile's wheel for
  /// `client` (recorded in the client's ledger; release() hands them
  /// back). The processor fraction a client owns is its held slots over
  /// the wheel size.
  /// @param tile the tile to reserve on
  /// @param client the reserving client id (not kNoClient)
  /// @param slots slots to add (> 0)
  /// @throws Error on a zero-slot request, an invalid client, a failed
  ///   tile, or when fewer than `slots` slots are free (nothing
  ///   committed)
  void reserveTileSlots(TileId tile, std::uint32_t client, std::uint32_t slots);

  /// Residual instruction memory of a tile; 0 for failed tiles.
  /// @param tile the tile to query
  /// @return capacity minus committed instruction bytes (0 when full)
  [[nodiscard]] std::uint32_t freeInstrBytes(TileId tile) const;
  /// Residual data memory of a tile; 0 for failed tiles.
  /// @param tile the tile to query
  /// @return capacity minus committed data bytes (0 when full)
  [[nodiscard]] std::uint32_t freeDataBytes(TileId tile) const;

  /// Commit a load/memory reservation for `client` on a tile it holds
  /// TDM slots on. For callers that never touch slots (the pre-TDM
  /// exclusive protocol), a commit to a completely unreserved wheel
  /// implicitly reserves ALL of its slots for `client` — on a 1-slot
  /// wheel that is exactly the old one-owner semantics.
  /// @param tile the tile to reserve on
  /// @param client the claiming client id (not kNoClient)
  /// @param loadCycles processor cycles per iteration to add
  /// @param instrBytes instruction memory to add
  /// @param dataBytes data memory to add
  /// @throws Error when the tile is failed, `client` holds no slots and
  ///   the wheel is partially reserved by others, or the reservation
  ///   exceeds the residual memory
  void commitTile(TileId tile, std::uint32_t client, std::uint64_t loadCycles,
                  std::uint32_t instrBytes, std::uint32_t dataBytes);

  /// Per-tile committed reservations.
  /// @return one TileBudget per tile, indexed by TileId
  [[nodiscard]] const std::vector<TileBudget>& tiles() const { return tiles_; }

  // ------------------------------------------------------ interconnect

  /// The NoC topology of the tracked architecture.
  /// @return the topology
  /// @throws Error when the architecture has no NoC interconnect
  [[nodiscard]] const NocTopology& nocTopology() const;

  /// Reserve SDM wires on every link of a route for `client`.
  /// @param route the links of the connection's XY route
  /// @param wires wires to claim on each link
  /// @param client the reserving client id (not kNoClient)
  /// @return true on success; false (and nothing committed) when any
  ///   link lacks capacity or is failed
  [[nodiscard]] bool reserveNocWires(const std::vector<LinkId>& route, std::uint32_t wires,
                                     std::uint32_t client);

  /// SDM wires committed on a link.
  /// @param link the link to query
  /// @return the committed wire count
  [[nodiscard]] std::uint32_t usedWires(LinkId link) const;

  /// Claim a dedicated FSL link for `client`. Links come from a capped
  /// free-list: released indices are reused (lowest first) before new
  /// ones are minted, so indices stay dense under admit/release churn
  /// and match the generated point-to-point hardware. Failed indices
  /// are never handed out; while failed-and-free they reduce the
  /// effective capacity.
  /// @param client the claiming client id (not kNoClient)
  /// @return the claimed link index
  /// @throws Error when no healthy link below the architecture's FSL
  ///   link capacity (fslLinkCapacity()) remains
  [[nodiscard]] std::uint32_t allocateFslLink(std::uint32_t client);

  /// FSL links currently held by clients (live links, not the
  /// high-water mark: released links do not count).
  /// @return the number of live links
  [[nodiscard]] std::uint32_t fslLinksUsed() const {
    return nextFslIndex_ - static_cast<std::uint32_t>(freeFslLinks_.size());
  }

  /// The architecture's FSL link capacity: FslConfig::maxLinks, or —
  /// when that is 0 — kFslPortsPerTile point-to-point links per tile
  /// (the MicroBlaze FSL port limit).
  /// @return the maximum number of simultaneously live FSL links
  [[nodiscard]] std::uint32_t fslLinkCapacity() const;

  /// FSL links allocateFslLink could still hand out: the capacity minus
  /// live links minus failed-and-free indices (dead capacity until
  /// repaired).
  /// @return the number of remaining allocatable links
  [[nodiscard]] std::uint32_t fslLinksAvailable() const;

  // ------------------------------------------------------------ faults

  /// The budget's current failure state. Failing a resource never
  /// touches reservations or ledgers — it only marks the resource, so
  /// a stranded client's provenance survives for evacuation and repair
  /// restores capacity bit-identically (fail -> repair is a no-op on
  /// every accounting field).
  /// @return the fault state (empty = healthy)
  [[nodiscard]] const FaultState& faults() const { return faults_; }

  /// Is a tile failed? Failed tiles report zero free slots and memory,
  /// and commitTile / reserveTileSlots reject them outright.
  /// @param tile the tile to query
  /// @return true when the tile is currently failed
  [[nodiscard]] bool tileFailed(TileId tile) const { return faults_.tileFailed(tile); }

  /// Fail a tile: its capacity drops to zero for new work (existing
  /// reservations stay in the ledgers — callers evacuate stranded
  /// clients via release()).
  /// @param tile the tile to fail
  /// @return the clients currently holding reservations on the tile
  ///   (ascending id order) — exactly who is stranded by this failure
  /// @throws Error when the tile is already failed
  std::vector<std::uint32_t> failTile(TileId tile);

  /// Repair a failed tile: capacity returns bit-identically (the fault
  /// mark is the only state failTile touched).
  /// @param tile the tile to repair
  /// @throws Error when the tile is not failed
  void repairTile(TileId tile);

  /// Fail a directed NoC mesh link: reserveNocWires rejects any route
  /// crossing it until repaired (existing wire reservations stay).
  /// @param link the link to fail
  /// @return the clients currently holding SDM wires on the link
  ///   (ascending id order)
  /// @throws Error when the platform has no NoC or the link is already
  ///   failed
  std::vector<std::uint32_t> failNocLink(LinkId link);

  /// Repair a failed NoC link.
  /// @param link the link to repair
  /// @throws Error when the link is not failed
  void repairNocLink(LinkId link);

  /// Fail an FSL link index: allocateFslLink never hands it out until
  /// repaired, and the effective link capacity shrinks by one while the
  /// index is failed-and-free.
  /// @param index the FSL link index to fail
  /// @return the client currently holding the link, if any (at most one
  ///   — FSL links are point-to-point)
  /// @throws Error when the platform has no FSL interconnect, the index
  ///   is out of range, or it is already failed
  std::vector<std::uint32_t> failFslLink(std::uint32_t index);

  /// Repair a failed FSL link index.
  /// @param index the index to repair
  /// @throws Error when the index is not failed
  void repairFslLink(std::uint32_t index);

  /// Degrade a tile's TDM wheel to `wheel` (fewer slots and/or a
  /// different switch overhead than the tile was built with). Capacity
  /// and WCET-inflation queries (tileSlotCapacity,
  /// tileWheelOverheadCycles) read the degraded wheel until
  /// repairTileWheel. Guarantees analyzed on the BUILT wheel stay valid
  /// on a smaller one (holding k of S' < S slots is a larger processor
  /// share), but reservations may no longer fit: when the committed
  /// slots exceed the degraded capacity, every slot-holding client of
  /// the tile is stranded.
  /// @param tile the tile to degrade
  /// @param wheel the effective wheel (validated against the built one)
  /// @return the stranded clients (ascending id order; empty when every
  ///   reservation still fits the degraded wheel)
  /// @throws ModelError when the degraded wheel is invalid
  /// @throws Error when the tile is already degraded
  std::vector<std::uint32_t> degradeTileWheel(TileId tile, const TdmConfig& wheel);

  /// Restore a degraded tile's built TDM wheel.
  /// @param tile the tile to restore
  /// @throws Error when the tile is not degraded
  void repairTileWheel(TileId tile);

  /// The effective per-firing wheel-switch overhead of a tile: the
  /// degraded wheel's when degraded, the built wheel's otherwise.
  /// @param tile the tile to query
  /// @return TdmConfig::wheelOverheadCycles of the effective wheel
  [[nodiscard]] std::uint32_t tileWheelOverheadCycles(TileId tile) const;

  /// Every client holding a reservation on any currently failed or
  /// over-committed degraded resource — exactly the set an admission
  /// controller must evacuate.
  /// @return stranded client ids, ascending, each listed once
  [[nodiscard]] std::vector<std::uint32_t> strandedClients() const;

  // ------------------------------------------------- release / equality

  /// The committed reservations of one client, exactly as release()
  /// would return them.
  /// @param client the client to look up
  /// @return the ledger, or null when the client holds nothing
  [[nodiscard]] const ClientLedger* ledger(std::uint32_t client) const;

  /// Tear down every reservation `client` holds: tile load/memory goes
  /// back to the residual (the platform baseline stays), TDM slots
  /// return to their wheels, SDM wires return to their links, and FSL
  /// links return to the free-list. After all clients of a budget are
  /// released, the budget equals a freshly constructed one with the
  /// same baseline, field for field.
  /// @param client the departing client id
  /// @throws Error when the client holds no reservations (a
  ///   double-release or unknown-client bug in the caller)
  void release(std::uint32_t client);

  /// Field-for-field equality: same architecture, same per-tile
  /// reservations and ownership, same per-link wires, same FSL
  /// free-list state, same client ledgers, same fault state. This is
  /// the pristine-restoration check of the admission controller (a
  /// budget with an outstanding failure is NOT pristine until
  /// repaired).
  /// @param other the budget to compare against
  /// @return true when every field matches
  [[nodiscard]] bool operator==(const ResourceBudget& other) const;

 private:
  const Architecture* arch_ = nullptr;
  std::vector<TileBudget> tiles_;
  std::optional<NocTopology> topology_;
  std::vector<std::uint32_t> usedWires_;  // per NoC link
  /// High-water mark of minted FSL indices; indices < nextFslIndex_ not
  /// on the free-list are live.
  std::uint32_t nextFslIndex_ = 0;
  /// Released FSL indices, kept sorted ascending; allocation pops the
  /// lowest. release() re-normalizes against nextFslIndex_ so a fully
  /// torn-down budget is bit-identical to a fresh one.
  std::vector<std::uint32_t> freeFslLinks_;
  /// Per-client provenance; empty once every client released.
  std::map<std::uint32_t, ClientLedger> ledgers_;
  /// Currently failed/degraded resources; empty on a healthy platform.
  /// Fail/repair touch ONLY this member, which is what makes
  /// fail -> repair -> drain bit-identical to pristine.
  FaultState faults_;
};

}  // namespace mamps::platform
