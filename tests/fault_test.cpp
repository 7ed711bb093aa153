// Tests for fault injection and self-healing admission: the
// ResourceBudget fail/repair semantics (capacity-to-zero, stranded
// reporting through the provenance ledgers, bit-identical restore),
// FaultState XML round-trips with legacy byte-stability, the admission
// controller's evacuate/re-admit recovery with its per-client verdicts,
// the fault-epoch plan-cache regression (a stale plan must never replay
// onto a failed platform), the LRU-bounded plan cache, and the
// x125-seed fail/repair/admit/depart property wall.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "apps/suite/churn.hpp"
#include "mapping/admission.hpp"
#include "mapping/flow.hpp"
#include "platform/arch_template.hpp"
#include "platform/fault.hpp"
#include "platform/io.hpp"
#include "platform/resource_budget.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace mamps::mapping {
namespace {

using platform::FaultState;
using platform::InterconnectKind;
using platform::ResourceBudget;
using platform::TdmConfig;
using platform::TileId;

platform::Architecture stockArch(std::uint32_t tiles, InterconnectKind kind,
                                 std::uint32_t fslMaxLinks = 0) {
  platform::TemplateRequest request;
  request.tileCount = tiles;
  request.interconnect = kind;
  request.fslMaxLinks = fslMaxLinks;
  return platform::generateFromTemplate(request);
}

platform::Architecture tdmArch(std::uint32_t tiles, std::uint32_t slotsPerWheel) {
  platform::TemplateRequest request;
  request.tileCount = tiles;
  request.interconnect = InterconnectKind::Fsl;
  return platform::generateFromTemplate(platform::withTdm(request, slotsPerWheel, 100));
}

// The suite workload is expensive to prepare (per-application analysis)
// and immutable — share one instance across every test in this file.
const suite::ChurnWorkload& sharedWorkload() {
  static const suite::ChurnWorkload workload = suite::suiteChurnWorkload();
  return workload;
}

// ------------------------------------------------ budget: tile failures

TEST(FaultBudgetTest, FailTileDropsCapacityAndRepairRestoresBitIdentically) {
  const auto arch = stockArch(3, InterconnectKind::Fsl);
  ResourceBudget budget(arch);
  budget.commitBaseline(runtimeLayerInstrBytes(), runtimeLayerDataBytes());
  const ResourceBudget healthy = budget;

  EXPECT_TRUE(budget.failTile(1).empty());  // nobody was on it
  EXPECT_TRUE(budget.tileFailed(1));
  EXPECT_FALSE(budget.tileAvailable(1, /*client=*/0));
  EXPECT_EQ(budget.freeTileSlots(1), 0u);
  EXPECT_EQ(budget.freeInstrBytes(1), 0u);
  EXPECT_EQ(budget.freeDataBytes(1), 0u);
  EXPECT_THROW(budget.reserveTileSlots(1, 0, 1), Error);
  EXPECT_THROW(budget.commitTile(1, 0, 100, 64, 64), Error);
  EXPECT_FALSE(budget == healthy);  // an outstanding failure is visible

  // Double-fail and not-failed repair are caller bugs.
  EXPECT_THROW((void)budget.failTile(1), Error);
  EXPECT_THROW(budget.repairTile(0), Error);

  budget.repairTile(1);
  EXPECT_TRUE(budget == healthy);  // fail -> repair touched nothing else
}

TEST(FaultBudgetTest, FailTileReportsExactlyTheStrandedClients) {
  const auto arch = stockArch(3, InterconnectKind::Fsl);
  ResourceBudget budget(arch);
  budget.commitTile(0, /*client=*/7, 100, 64, 64);
  budget.commitTile(1, /*client=*/3, 100, 64, 64);
  budget.commitTile(1, /*client=*/3, 100, 64, 64);  // same client again

  const auto stranded = budget.failTile(1);
  ASSERT_EQ(stranded.size(), 1u);
  EXPECT_EQ(stranded[0], 3u);
  EXPECT_EQ(budget.strandedClients(), stranded);

  // Client 7 (tile 0) is untouched; evacuating 3 clears the stranding.
  budget.release(3);
  EXPECT_TRUE(budget.strandedClients().empty());
  budget.repairTile(1);
}

// ------------------------------------------------- budget: NoC failures

TEST(FaultBudgetTest, FailedNocLinkBlocksRoutesAndReportsWireHolders) {
  const auto arch = stockArch(4, InterconnectKind::NocMesh);
  ResourceBudget budget(arch);
  const auto route = budget.nocTopology().xyRoute(0, 3);
  ASSERT_FALSE(route.empty());
  ASSERT_TRUE(budget.reserveNocWires(route, 2, /*client=*/5));

  const auto stranded = budget.failNocLink(route.front());
  ASSERT_EQ(stranded.size(), 1u);
  EXPECT_EQ(stranded[0], 5u);

  // No new wires across the failed link, even though capacity remains.
  EXPECT_FALSE(budget.reserveNocWires(route, 1, /*client=*/6));
  budget.repairNocLink(route.front());
  EXPECT_TRUE(budget.reserveNocWires(route, 1, /*client=*/6));

  EXPECT_THROW((void)budget.failNocLink(9999), Error);
  EXPECT_THROW(budget.repairNocLink(route.front()), Error);
}

// ------------------------------------------------- budget: FSL failures

TEST(FaultBudgetTest, FailedFslIndicesAreSkippedAndShrinkTheCapacity) {
  const auto arch = stockArch(2, InterconnectKind::Fsl, /*fslMaxLinks=*/3);
  ResourceBudget budget(arch);

  // Fail index 0 while it is unminted: allocation must skip it.
  EXPECT_TRUE(budget.failFslLink(0).empty());
  EXPECT_EQ(budget.fslLinksAvailable(), 2u);
  EXPECT_EQ(budget.allocateFslLink(/*client=*/1), 1u);
  EXPECT_EQ(budget.allocateFslLink(/*client=*/1), 2u);
  // Capacity 3 minus one dead index: a third live link cannot exist.
  EXPECT_EQ(budget.fslLinksAvailable(), 0u);
  EXPECT_THROW((void)budget.allocateFslLink(1), Error);

  // Repair returns the index to circulation, lowest-first.
  budget.repairFslLink(0);
  EXPECT_EQ(budget.allocateFslLink(/*client=*/2), 0u);

  // Failing a LIVE link reports its (single) holder.
  const auto stranded = budget.failFslLink(2);
  ASSERT_EQ(stranded.size(), 1u);
  EXPECT_EQ(stranded[0], 1u);
  EXPECT_EQ(budget.strandedClients(), stranded);
}

TEST(FaultBudgetTest, FslFailAllocateReleaseRepairRestoresPristine) {
  const auto arch = stockArch(2, InterconnectKind::Fsl, /*fslMaxLinks=*/4);
  ResourceBudget budget(arch);
  const ResourceBudget pristine = budget;

  // The parking path: failing a free index forces the next mint to skip
  // it onto the free-list; release() renormalizes the tail; repair must
  // land back on bit-identical pristine.
  EXPECT_TRUE(budget.failFslLink(0).empty());
  EXPECT_EQ(budget.allocateFslLink(/*client=*/9), 1u);
  budget.release(9);
  budget.repairFslLink(0);
  EXPECT_TRUE(budget == pristine);
}

// --------------------------------------------- budget: degraded wheels

TEST(FaultBudgetTest, DegradedWheelShrinksCapacityAndStrandsOverCommit) {
  const auto arch = tdmArch(2, /*slotsPerWheel=*/4);
  ResourceBudget budget(arch);
  budget.reserveTileSlots(0, /*client=*/11, 3);

  // Degrading to 3 still fits the reservation: nobody is stranded.
  TdmConfig threeSlots{3, 150};
  EXPECT_TRUE(budget.degradeTileWheel(0, threeSlots).empty());
  EXPECT_EQ(budget.tileSlotCapacity(0), 3u);
  EXPECT_EQ(budget.tileWheelOverheadCycles(0), 150u);
  EXPECT_EQ(budget.freeTileSlots(0), 0u);
  budget.repairTileWheel(0);
  EXPECT_EQ(budget.tileSlotCapacity(0), 4u);
  EXPECT_EQ(budget.tileWheelOverheadCycles(0), 100u);

  // Degrading below the committed slots strands every holder.
  TdmConfig twoSlots{2, 100};
  const auto stranded = budget.degradeTileWheel(0, twoSlots);
  ASSERT_EQ(stranded.size(), 1u);
  EXPECT_EQ(stranded[0], 11u);
  EXPECT_EQ(budget.strandedClients(), stranded);
  budget.repairTileWheel(0);

  // Invalid degraded wheels are model errors.
  EXPECT_THROW((void)budget.degradeTileWheel(0, TdmConfig{0, 0}), ModelError);
  EXPECT_THROW((void)budget.degradeTileWheel(0, TdmConfig{5, 0}), ModelError);
}

// ----------------------------------------------------- XML round-trips

TEST(FaultXmlTest, LegacyDocumentsStayByteStableOnRewrite) {
  for (const InterconnectKind kind : {InterconnectKind::NocMesh, InterconnectKind::Fsl}) {
    const auto arch = stockArch(4, kind);
    const std::string xml = platform::architectureToXml(arch);
    // No fault attributes appear in a healthy document...
    EXPECT_EQ(xml.find("failed"), std::string::npos);
    EXPECT_EQ(xml.find("degraded"), std::string::npos);
    // ...the fault-aware writer with an empty state is byte-identical...
    EXPECT_EQ(platform::architectureToXml(arch, FaultState{}), xml);
    // ...and parse -> rewrite is byte-stable, via both entry points.
    EXPECT_EQ(platform::architectureToXml(platform::architectureFromString(xml)), xml);
    const auto parsed = platform::architectureWithFaultsFromString(xml);
    EXPECT_TRUE(parsed.faults.empty());
    EXPECT_EQ(platform::architectureToXml(parsed.arch, parsed.faults), xml);
  }
}

TEST(FaultXmlTest, NocFaultAnnotationsRoundTrip) {
  const auto arch = stockArch(4, InterconnectKind::NocMesh);
  FaultState faults;
  faults.failedTiles = {1, 3};
  faults.failedNocLinks = {0, 2, 5};
  faults.degradedTdm.emplace(2, TdmConfig{1, 40});
  faults.validate(arch);

  const std::string xml = platform::architectureToXml(arch, faults);
  EXPECT_NE(xml.find("failed=\"true\""), std::string::npos);
  EXPECT_NE(xml.find("failedLinks=\"0,2,5\""), std::string::npos);

  const auto parsed = platform::architectureWithFaultsFromString(xml);
  EXPECT_TRUE(parsed.faults == faults);
  // Round-trip again: the annotated document is itself byte-stable.
  EXPECT_EQ(platform::architectureToXml(parsed.arch, parsed.faults), xml);
}

TEST(FaultXmlTest, FslFaultAnnotationsRoundTrip) {
  const auto arch = stockArch(3, InterconnectKind::Fsl, /*fslMaxLinks=*/8);
  FaultState faults;
  faults.failedFslLinks = {0, 7};
  faults.validate(arch);

  const std::string xml = platform::architectureToXml(arch, faults);
  const auto parsed = platform::architectureWithFaultsFromString(xml);
  EXPECT_TRUE(parsed.faults == faults);
  EXPECT_EQ(platform::architectureToXml(parsed.arch, parsed.faults), xml);
}

TEST(FaultXmlTest, ValidationRejectsFaultsThePlatformCannotHave) {
  const auto noc = stockArch(4, InterconnectKind::NocMesh);
  const auto fsl = stockArch(4, InterconnectKind::Fsl, /*fslMaxLinks=*/4);

  FaultState badTile;
  badTile.failedTiles = {99};
  EXPECT_THROW(badTile.validate(noc), ModelError);

  FaultState nocOnFsl;
  nocOnFsl.failedNocLinks = {0};
  EXPECT_THROW(nocOnFsl.validate(fsl), ModelError);

  FaultState fslOnNoc;
  fslOnNoc.failedFslLinks = {0};
  EXPECT_THROW(fslOnNoc.validate(noc), ModelError);

  FaultState fslRange;
  fslRange.failedFslLinks = {4};
  EXPECT_THROW(fslRange.validate(fsl), ModelError);

  FaultState badWheel;
  badWheel.degradedTdm.emplace(0, TdmConfig{7, 0});  // built with 1 slot
  EXPECT_THROW(badWheel.validate(noc), ModelError);
}

// --------------------------------------- controller: evacuate + recover

TEST(FaultAdmissionTest, SingleTileFailureEvacuatesAndRecovers) {
  const suite::ChurnWorkload& workload = sharedWorkload();
  const auto arch = platform::generateFromTemplate(platform::largeMeshPreset(12));
  AdmissionController controller(arch);

  // Fill residents from the suite mix (whichever instances fit — a
  // rejection on the shared platform is a legitimate outcome).
  std::vector<ClientId> admitted;
  for (std::size_t app = 0; app < workload.caches.size(); ++app) {
    const AdmissionDecision d = controller.admit(workload.caches[app], workload.options[app]);
    if (d.admitted()) {
      admitted.push_back(*d.client);
    }
  }
  ASSERT_GE(admitted.size(), 2u);

  // Fail a tile the first resident actually uses.
  const MappingResult& victim = controller.resident(admitted.front());
  const TileId failed = victim.mapping.actorToTile.front();
  const RecoveryReport report =
      controller.injectFault(FaultEvent::tileFailure(failed));

  ASSERT_FALSE(report.stranded.empty());
  EXPECT_EQ(report.stranded.size(), report.recovered.size() + report.degraded.size());
  EXPECT_GE(report.recovered.size(), 1u);  // the residual has room to heal
  EXPECT_EQ(report.verdicts.size(), admitted.size());
  EXPECT_EQ(controller.faultEpoch(), 1u);

  // Nothing resident references the failed tile, and every recovered
  // guarantee still composes.
  EXPECT_TRUE(controller.budget().strandedClients().empty());
  for (const ClientId client : controller.residentIds()) {
    const auto* ledger = controller.budget().ledger(client);
    ASSERT_NE(ledger, nullptr);
    EXPECT_EQ(ledger->tiles.count(failed), 0u);
    EXPECT_TRUE(controller.resident(client).meetsConstraint);
    for (const TileId t : controller.resident(client).mapping.actorToTile) {
      EXPECT_NE(t, failed);
    }
  }
  for (const ClientId client : report.recovered) {
    EXPECT_EQ(report.verdicts.at(client), RecoveryOutcome::Recovered);
  }

  // fail -> repair -> drain lands on bit-identical pristine.
  controller.repair(FaultEvent::tileFailure(failed));
  EXPECT_EQ(controller.faultEpoch(), 2u);
  for (const ClientId client : controller.residentIds()) {
    controller.depart(client);
  }
  EXPECT_TRUE(controller.pristine());
  EXPECT_EQ(controller.stats().evacuated,
            controller.stats().recovered + controller.stats().degradedClients);
}

/// Admit each application of `workload` once (a rejection on the shared
/// platform is a legitimate outcome).
void admitEach(AdmissionController& controller, const suite::ChurnWorkload& workload) {
  for (std::size_t app = 0; app < workload.caches.size(); ++app) {
    (void)controller.admit(workload.caches[app], workload.options[app]);
  }
}

/// The residents whose ledger satisfies `uses`, ascending.
template <typename Uses>
std::vector<ClientId> residentsWhere(const AdmissionController& controller, Uses uses) {
  std::vector<ClientId> out;
  for (const ClientId client : controller.residentIds()) {
    const platform::ClientLedger* ledger = controller.budget().ledger(client);
    if (ledger != nullptr && uses(*ledger)) {
      out.push_back(client);
    }
  }
  return out;
}

/// Inject `fault`, whose resource exactly the residents `users` hold,
/// then check the recovery contract and that repair plus a full drain
/// restores the pristine budget.
void expectStrandsExactlyAndRecovers(AdmissionController& controller, const FaultEvent& fault,
                                     const std::vector<ClientId>& users) {
  ASSERT_FALSE(users.empty());
  const RecoveryReport report = controller.injectFault(fault);
  EXPECT_EQ(report.stranded, users);
  for (const ClientId client : report.stranded) {
    const RecoveryOutcome verdict = report.verdicts.at(client);
    EXPECT_TRUE(verdict == RecoveryOutcome::Recovered || verdict == RecoveryOutcome::Degraded)
        << "client " << client;
  }
  EXPECT_TRUE(controller.budget().strandedClients().empty());
  for (const ClientId client : report.recovered) {
    EXPECT_TRUE(controller.resident(client).meetsConstraint) << "client " << client;
  }

  controller.repair(fault);
  for (const ClientId client : controller.residentIds()) {
    controller.depart(client);
  }
  EXPECT_TRUE(controller.pristine());
}

TEST(FaultAdmissionTest, NocLinkFailureStrandsExactlyTheWireHolders) {
  const auto arch = platform::generateFromTemplate(platform::largeMeshPreset(12));
  AdmissionController controller(arch);
  admitEach(controller, sharedWorkload());

  const auto holders = residentsWhere(
      controller, [](const platform::ClientLedger& l) { return !l.wires.empty(); });
  ASSERT_FALSE(holders.empty());
  const platform::LinkId link = controller.budget().ledger(holders.front())->wires.begin()->first;
  expectStrandsExactlyAndRecovers(
      controller, FaultEvent::nocLinkFailure(link),
      residentsWhere(controller,
                     [&](const platform::ClientLedger& l) { return l.wires.count(link) != 0; }));
}

TEST(FaultAdmissionTest, FslLinkFailureStrandsExactlyTheLinkHolder) {
  const auto arch = platform::generateFromTemplate(platform::heterogeneousPreset(4, {"accel"}));
  AdmissionController controller(arch);
  admitEach(controller, sharedWorkload());

  const auto holders = residentsWhere(
      controller, [](const platform::ClientLedger& l) { return !l.fslLinks.empty(); });
  ASSERT_FALSE(holders.empty());
  const std::uint32_t index = controller.budget().ledger(holders.front())->fslLinks.front();
  expectStrandsExactlyAndRecovers(
      controller, FaultEvent::fslLinkFailure(index),
      residentsWhere(controller, [&](const platform::ClientLedger& l) {
        return std::find(l.fslLinks.begin(), l.fslLinks.end(), index) != l.fslLinks.end();
      }));
}

TEST(FaultAdmissionTest, TdmDegradeStrandsEveryHolderOfTheOvercommittedWheel) {
  const suite::ChurnWorkload workload = suite::suiteTdmChurnWorkload(4, 2);
  const auto arch =
      platform::generateFromTemplate(platform::withTdm(platform::largeMeshPreset(12), 4, 200));
  AdmissionController controller(arch);
  admitEach(controller, workload);

  const auto holders = residentsWhere(
      controller, [](const platform::ClientLedger& l) { return !l.tiles.empty(); });
  ASSERT_FALSE(holders.empty());
  const TileId tile = controller.budget().ledger(holders.front())->tiles.begin()->first;
  // Every application holds 2 slots per claimed tile, so a 1-slot wheel
  // no longer fits the tile's commitments and strands all its holders.
  expectStrandsExactlyAndRecovers(
      controller, FaultEvent::tdmDegrade(tile, TdmConfig{1, 200}),
      residentsWhere(controller, [&](const platform::ClientLedger& l) {
        const auto share = l.tiles.find(tile);
        return share != l.tiles.end() && share->second.slots > 0;
      }));
}

// Regression (pre-fix failure): replayAdmission re-committed a recorded
// plan without re-validating resource liveness. With the plan cache
// keyed only by the reservation signature, "admit -> depart -> fail
// tile -> admit" reproduced the original residual signature and
// replayed the stale plan straight onto the failed tile. The fault
// epoch in the decision key forces a miss and a fresh (fault-aware)
// recompute.
TEST(FaultAdmissionTest, StalePlanNeverReplaysOntoAFailedTile) {
  const suite::ChurnWorkload& workload = sharedWorkload();
  const auto arch = platform::generateFromTemplate(platform::largeMeshPreset(12));
  AdmissionController controller(arch);
  const std::size_t app = 0;

  const AdmissionDecision first = controller.admit(workload.caches[app], workload.options[app]);
  ASSERT_TRUE(first.admitted());
  const TileId failed = first.result->mapping.actorToTile.front();
  controller.depart(*first.client);

  // Sanity: on the unchanged platform the decision IS replayed.
  const AdmissionDecision replay = controller.admit(workload.caches[app], workload.options[app]);
  ASSERT_TRUE(replay.admitted());
  EXPECT_TRUE(replay.planCacheHit);
  controller.depart(*replay.client);

  // Now the platform changes underneath the cache: the same residual
  // signature, but the plan's tile is gone.
  (void)controller.injectFault(FaultEvent::tileFailure(failed));
  const AdmissionDecision after = controller.admit(workload.caches[app], workload.options[app]);
  EXPECT_FALSE(after.planCacheHit);  // epoch changed: stale plan cannot hit
  ASSERT_TRUE(after.admitted());     // 11 healthy tiles remain
  for (const TileId t : after.result->mapping.actorToTile) {
    EXPECT_NE(t, failed);
  }
  const auto* ledger = controller.budget().ledger(*after.client);
  ASSERT_NE(ledger, nullptr);
  EXPECT_EQ(ledger->tiles.count(failed), 0u);
}

TEST(FaultAdmissionTest, RecoveryHeadroomHoldsBackAdmissionsButNotRecovery) {
  const suite::ChurnWorkload& workload = sharedWorkload();
  const auto arch = platform::generateFromTemplate(platform::largeMeshPreset(12));

  // Measure the application's tile footprint on the empty platform,
  // then reserve everything beyond it: the first instance exactly
  // reaches the headroom boundary and the second must cross it.
  std::size_t footprint = 0;
  {
    AdmissionController probe(arch);
    const AdmissionDecision d = probe.admit(workload.caches[0], workload.options[0]);
    ASSERT_TRUE(d.admitted());
    footprint = probe.budget().ledger(*d.client)->tiles.size();
    ASSERT_GE(footprint, 1u);
  }
  AdmissionOptions options;
  options.recovery.spareTiles = static_cast<std::uint32_t>(12 - footprint);
  AdmissionController controller(arch, options);

  // The first instance fits exactly inside the headroom...
  const AdmissionDecision a = controller.admit(workload.caches[0], workload.options[0]);
  ASSERT_TRUE(a.admitted());
  // ...the second would eat into the reserve and is rejected for it.
  const AdmissionDecision b = controller.admit(workload.caches[0], workload.options[0]);
  ASSERT_FALSE(b.admitted());
  EXPECT_NE(b.reason.find("headroom"), std::string::npos);

  // Recovery bypasses the headroom: the evacuated resident re-lands
  // even though a normal admission would be rejected in this state.
  const TileId failed = controller.resident(*a.client).mapping.actorToTile.front();
  const RecoveryReport report = controller.injectFault(FaultEvent::tileFailure(failed));
  ASSERT_EQ(report.stranded.size(), 1u);
  ASSERT_EQ(report.recovered.size(), 1u);
  EXPECT_EQ(report.recovered.front(), *a.client);
  EXPECT_TRUE(controller.resident(*a.client).meetsConstraint);
}

// ------------------------------------------- satellite: LRU plan cache

TEST(FaultAdmissionTest, TinyLruCapIsBitIdenticalToCacheOff) {
  const suite::ChurnWorkload& workload = sharedWorkload();
  const auto arch = platform::generateFromTemplate(platform::largeMeshPreset(12));

  AdmissionOptions capped;
  capped.planCacheCapacity = 1;  // evicts on almost every decision
  AdmissionOptions off;
  off.planCache = false;
  AdmissionController a(arch, capped);
  AdmissionController b(arch, off);

  // Same alternating admit/depart sequence on both controllers: every
  // decision must match field-for-field (an eviction only ever costs a
  // recompute, never changes an outcome).
  Rng rng(7);
  std::vector<ClientId> residentsA;
  std::vector<ClientId> residentsB;
  for (int i = 0; i < 40; ++i) {
    if (!residentsA.empty() && rng.chance(0.4)) {
      const std::size_t pick = static_cast<std::size_t>(rng.range(0, residentsA.size() - 1));
      a.depart(residentsA[pick]);
      b.depart(residentsB[pick]);
      residentsA.erase(residentsA.begin() + static_cast<std::ptrdiff_t>(pick));
      residentsB.erase(residentsB.begin() + static_cast<std::ptrdiff_t>(pick));
      continue;
    }
    const std::size_t app = static_cast<std::size_t>(rng.range(0, workload.caches.size() - 1));
    const AdmissionDecision da = a.admit(workload.caches[app], workload.options[app]);
    const AdmissionDecision db = b.admit(workload.caches[app], workload.options[app]);
    ASSERT_EQ(da.admitted(), db.admitted());
    if (da.admitted()) {
      EXPECT_EQ(da.result->mapping.actorToTile, db.result->mapping.actorToTile);
      EXPECT_EQ(da.result->throughput.iterationsPerCycle,
                db.result->throughput.iterationsPerCycle);
      residentsA.push_back(*da.client);
      residentsB.push_back(*db.client);
    }
    EXPECT_TRUE(a.budget() == b.budget());
  }
  EXPECT_LE(a.planCacheSize(), 1u);
  EXPECT_GT(a.stats().planCacheEvictions, 0u);
  EXPECT_EQ(b.stats().planCacheHits, 0u);
}

// ------------------------------------------------ fault churn (suite)

TEST(FaultChurnTest, SeededFaultChurnConservesTheBudget) {
  const suite::ChurnWorkload& workload = sharedWorkload();
  const auto arch = platform::generateFromTemplate(platform::largeMeshPreset(12));
  AdmissionController controller(arch);

  suite::ChurnOptions options;
  options.seed = 42;
  options.events = 300;
  options.faultChance = 0.08;
  options.repairChance = 0.25;
  const suite::ChurnResult result = suite::runChurnTrace(controller, workload, options);

  EXPECT_TRUE(result.pristineAfterDrain);
  EXPECT_GT(result.stats.faultsInjected, 0u);
  EXPECT_EQ(result.stats.faultsInjected, result.stats.repairs);
  EXPECT_EQ(result.stats.evacuated, result.stats.recovered + result.stats.degradedClients);

  std::size_t faultEvents = 0;
  for (const suite::ChurnEvent& event : result.trace) {
    if (event.kind == suite::ChurnEvent::Kind::Fault) {
      ++faultEvents;
      EXPECT_EQ(event.strandedCount, event.recoveredCount + event.degradedCount);
    }
  }
  EXPECT_EQ(faultEvents, result.stats.faultsInjected);
}

TEST(FaultChurnTest, FaultFreeTraceIsBitIdenticalToLegacy) {
  // faultChance = 0 must not consume a single extra RNG draw: the trace
  // (event for event) matches a controller run with the legacy options.
  const suite::ChurnWorkload& workload = sharedWorkload();
  const auto arch = platform::generateFromTemplate(platform::largeMeshPreset(12));

  suite::ChurnOptions legacy;
  legacy.seed = 11;
  legacy.events = 120;
  AdmissionController a(arch);
  const suite::ChurnResult withDefaults = suite::runChurnTrace(a, workload, legacy);

  suite::ChurnOptions zeroed = legacy;
  zeroed.faultChance = 0.0;
  zeroed.repairChance = 0.0;
  AdmissionController b(arch);
  const suite::ChurnResult withZeroKnobs = suite::runChurnTrace(b, workload, zeroed);

  ASSERT_EQ(withDefaults.trace.size(), withZeroKnobs.trace.size());
  for (std::size_t i = 0; i < withDefaults.trace.size(); ++i) {
    EXPECT_EQ(withDefaults.trace[i].kind, withZeroKnobs.trace[i].kind);
    EXPECT_EQ(withDefaults.trace[i].client, withZeroKnobs.trace[i].client);
    EXPECT_EQ(withDefaults.trace[i].admitted, withZeroKnobs.trace[i].admitted);
  }
  EXPECT_TRUE(withDefaults.pristineAfterDrain);
  EXPECT_TRUE(withZeroKnobs.pristineAfterDrain);
}

// ------------------------------- x125 fail/repair/admit/depart property

class FaultChurnProperty : public ::testing::TestWithParam<std::uint64_t> {};

// Any seeded interleaving of admissions, departures, tile failures, and
// repairs: no client is ever left on a failed resource, recovered
// guarantees still compose, and repair-all + drain lands on
// bit-identical pristine.
TEST_P(FaultChurnProperty, NeverStrandsNeverLeaksAlwaysComposes) {
  const suite::ChurnWorkload& workload = sharedWorkload();
  static const platform::Architecture arch =
      platform::generateFromTemplate(platform::largeMeshPreset(6));
  AdmissionController controller(arch);

  Rng rng(GetParam());
  std::vector<FaultEvent> outstanding;
  const std::size_t steps = 12 + rng.range(0, 12);
  for (std::size_t i = 0; i < steps; ++i) {
    switch (rng.range(0, 4)) {
      case 0:
      case 1: {  // arrival
        const std::size_t app =
            static_cast<std::size_t>(rng.range(0, workload.caches.size() - 1));
        (void)controller.admit(workload.caches[app], workload.options[app]);
        break;
      }
      case 2: {  // departure
        const auto residents = controller.residentIds();
        if (!residents.empty()) {
          controller.depart(
              residents[static_cast<std::size_t>(rng.range(0, residents.size() - 1))]);
        }
        break;
      }
      case 3: {  // fault: a healthy tile fails (keep one tile alive)
        if (outstanding.size() + 1 >= arch.tileCount()) {
          break;
        }
        std::vector<TileId> healthy;
        for (TileId t = 0; t < arch.tileCount(); ++t) {
          if (!controller.budget().tileFailed(t)) {
            healthy.push_back(t);
          }
        }
        const TileId tile =
            healthy[static_cast<std::size_t>(rng.range(0, healthy.size() - 1))];
        const FaultEvent fault = FaultEvent::tileFailure(tile);
        (void)controller.injectFault(fault);
        outstanding.push_back(fault);
        break;
      }
      default: {  // repair a random outstanding failure
        if (!outstanding.empty()) {
          const std::size_t pick =
              static_cast<std::size_t>(rng.range(0, outstanding.size() - 1));
          controller.repair(outstanding[pick]);
          outstanding.erase(outstanding.begin() + static_cast<std::ptrdiff_t>(pick));
        }
        break;
      }
    }

    // Invariants after EVERY event: no resident on a failed resource,
    // and every resident's guarantee (re-analyzed at recovery time for
    // recovered clients) still meets its constraint.
    EXPECT_TRUE(controller.budget().strandedClients().empty());
    for (const ClientId client : controller.residentIds()) {
      const auto* ledger = controller.budget().ledger(client);
      ASSERT_NE(ledger, nullptr);
      for (const auto& [tile, share] : ledger->tiles) {
        EXPECT_FALSE(controller.budget().tileFailed(tile));
      }
      EXPECT_TRUE(controller.resident(client).meetsConstraint);
    }
  }

  // Repair everything, drain everyone: bit-identical pristine.
  for (const FaultEvent& fault : outstanding) {
    controller.repair(fault);
  }
  for (const ClientId client : controller.residentIds()) {
    controller.depart(client);
  }
  EXPECT_TRUE(controller.pristine());
  EXPECT_EQ(controller.stats().evacuated,
            controller.stats().recovered + controller.stats().degradedClients);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultChurnProperty, ::testing::Range<std::uint64_t>(0, 125));

}  // namespace
}  // namespace mamps::mapping
