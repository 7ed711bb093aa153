// Tests for TDM processor sharing: slot-wheel reservation semantics on
// the resource budget (validation, the commit auto-claim rule, release
// teardown), the deterministic WCET-inflation pin and its 64-bit
// overflow check, the x125-seed property wall around composability —
// (a) the TDM-inflated guarantee is never optimistic against a
// standalone run slowed to the same slot fraction, (b) any interleaving
// of slot reservations, commits, and releases tears down to a
// bit-identical pristine budget — plus the admission-control
// regressions: the plan cache is keyed on slot occupancy (a replay
// against different slot state must miss, not corrupt), replay
// reconstructs slot reservations exactly, and the headline capacity
// claim that TDM sharing admits strictly more instances than exclusive
// tiles on the 12-tile mesh.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "apps/suite/churn.hpp"
#include "apps/suite/synthetic.hpp"
#include "mapping/admission.hpp"
#include "mapping/flow.hpp"
#include "platform/arch_template.hpp"
#include "platform/resource_budget.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace mamps::mapping {
namespace {

using platform::InterconnectKind;
using platform::ResourceBudget;
using platform::TileId;

platform::Architecture tdmArch(std::uint32_t tiles, InterconnectKind kind,
                               std::uint32_t slotsPerWheel,
                               std::uint32_t wheelOverheadCycles = 0) {
  platform::TemplateRequest request;
  request.tileCount = tiles;
  request.interconnect = kind;
  return platform::generateFromTemplate(
      platform::withTdm(request, slotsPerWheel, wheelOverheadCycles));
}

// ------------------------------------------------ slot-wheel semantics

TEST(TdmBudgetTest, SlotReservationsShareOneWheel) {
  const auto arch = tdmArch(2, InterconnectKind::Fsl, 4);
  ResourceBudget budget(arch);
  EXPECT_EQ(budget.tileSlotCapacity(0), 4u);
  EXPECT_EQ(budget.freeTileSlots(0), 4u);

  budget.reserveTileSlots(0, /*client=*/0, 1);
  budget.reserveTileSlots(0, /*client=*/1, 2);
  EXPECT_EQ(budget.tileSlots(0, 0), 1u);
  EXPECT_EQ(budget.tileSlots(0, 1), 2u);
  EXPECT_EQ(budget.freeTileSlots(0), 1u);

  // Over-subscription is rejected; the wheel is a hard capacity.
  EXPECT_THROW(budget.reserveTileSlots(0, /*client=*/2, 2), Error);
  budget.reserveTileSlots(0, /*client=*/2, 1);
  EXPECT_EQ(budget.freeTileSlots(0), 0u);

  // A full wheel still admits clients that already hold slots.
  EXPECT_TRUE(budget.tileAvailable(0, 1));
  EXPECT_FALSE(budget.tileAvailable(0, /*client=*/3));
}

TEST(TdmBudgetTest, ReservationArgumentsAreValidated) {
  const auto arch = tdmArch(2, InterconnectKind::Fsl, 4);
  ResourceBudget budget(arch);
  EXPECT_THROW(budget.reserveTileSlots(0, /*client=*/0, 0), ModelError);
  EXPECT_THROW(budget.reserveTileSlots(0, platform::TileBudget::kNoClient, 1), Error);
  // A failed reservation records nothing.
  EXPECT_EQ(budget.ledger(0), nullptr);
  EXPECT_EQ(budget.freeTileSlots(0), 4u);
}

TEST(TdmBudgetTest, CommitAutoClaimsTheWholeWheelOnlyWhenUnreserved) {
  const auto arch = tdmArch(2, InterconnectKind::Fsl, 4);
  ResourceBudget budget(arch);

  // Slot-oblivious commit on an untouched wheel claims all of it — the
  // pre-TDM exclusive semantics, so legacy callers keep their guarantee.
  budget.commitTile(0, /*client=*/0, 100, 64, 64);
  EXPECT_EQ(budget.tileSlots(0, 0), 4u);
  EXPECT_EQ(budget.freeTileSlots(0), 0u);

  // On a partially reserved wheel, a client without slots must not
  // commit: silently sharing would break the resident's guarantee.
  budget.reserveTileSlots(1, /*client=*/1, 1);
  EXPECT_THROW(budget.commitTile(1, /*client=*/2, 100, 64, 64), Error);
  // The holder itself commits fine and keeps exactly its slice.
  budget.commitTile(1, /*client=*/1, 100, 64, 64);
  EXPECT_EQ(budget.tileSlots(1, 1), 1u);
  EXPECT_EQ(budget.freeTileSlots(1), 3u);
}

TEST(TdmBudgetTest, ReleaseReturnsSlotsToPristine) {
  const auto arch = tdmArch(2, InterconnectKind::Fsl, 4);
  ResourceBudget budget(arch);
  budget.commitBaseline(runtimeLayerInstrBytes(), runtimeLayerDataBytes());
  const ResourceBudget pristine = budget;

  budget.reserveTileSlots(0, /*client=*/0, 2);
  budget.commitTile(0, /*client=*/0, 500, 128, 64);
  budget.reserveTileSlots(0, /*client=*/1, 1);
  budget.commitTile(1, /*client=*/1, 300, 128, 64);
  EXPECT_FALSE(budget == pristine);

  budget.release(0);
  EXPECT_EQ(budget.freeTileSlots(0), 3u);  // client 1 still holds one
  budget.release(1);
  EXPECT_TRUE(budget == pristine);
}

// --------------------------------------------- deterministic inflation

TEST(TdmMappingTest, SharedWheelInflatesTheGuaranteeExactly) {
  // One tile, 4-slot wheel, 100-cycle switch overhead. Holding 2 of 4
  // slots inflates every WCET to ceil(w * 4/2) + 100; the analyzed
  // guarantee must equal re-analyzing the same mapping with exactly
  // those inflated execution times — no more, no less.
  const auto arch = tdmArch(1, InterconnectKind::Fsl, 4, /*wheelOverheadCycles=*/100);
  const sdf::ApplicationModel app =
      test::makeAppModel(test::figure2Graph(), {1000, 1000, 1000});

  MappingOptions half;
  half.tdmSlots = 2;
  const auto shared = mapApplication(app, arch, half);
  ASSERT_TRUE(shared.has_value());
  ASSERT_TRUE(shared->throughput.ok());
  ASSERT_EQ(shared->mapping.tileTdmSlots.size(), 1u);
  EXPECT_EQ(shared->mapping.tileTdmSlots[0], 2u);

  const std::vector<std::uint64_t> inflated(app.graph().actorCount(), 1000 * 2 + 100);
  const auto reference = analyzeMapping(app, arch, shared->mapping, inflated);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(shared->throughput.iterationsPerCycle, reference.iterationsPerCycle);

  // Claiming the whole wheel (tdmSlots = 0) is the exclusive case: no
  // inflation, no overhead, bit-identical to the plain-platform run.
  const auto whole = mapApplication(app, arch, MappingOptions{});
  ASSERT_TRUE(whole.has_value());
  EXPECT_EQ(whole->mapping.tileTdmSlots[0], 4u);
  platform::TemplateRequest plain;
  plain.tileCount = 1;
  plain.interconnect = InterconnectKind::Fsl;
  const auto exclusive =
      mapApplication(app, platform::generateFromTemplate(plain), MappingOptions{});
  ASSERT_TRUE(exclusive.has_value());
  EXPECT_EQ(whole->throughput.iterationsPerCycle, exclusive->throughput.iterationsPerCycle);
}

TEST(TdmMappingTest, WcetInflationThatWouldWrapThrows) {
  // In unchecked 64-bit arithmetic, w = 2^62 on a 4-slot wheel makes
  // w * 4 wrap to 0, and ceil(w * S / k) + overhead comes out as 100
  // cycles — a guarantee far above what the wheel can deliver. The
  // mapping step must refuse the input instead.
  const auto arch = tdmArch(1, InterconnectKind::Fsl, 4, /*wheelOverheadCycles=*/100);
  const sdf::ApplicationModel app =
      test::makeAppModel(test::figure2Graph(), {1000, std::uint64_t{1} << 62, 1000});
  MappingOptions half;
  half.tdmSlots = 2;
  EXPECT_THROW((void)mapApplication(app, arch, half), ModelError);
}

// ------------------------- property (a): the guarantee is conservative

class TdmConservativeProperty : public ::testing::TestWithParam<std::uint64_t> {};

// For any seeded synthetic application mapped onto a shared wheel with
// k of S slots, the TDM guarantee (ceil slicing + wheel overhead) must
// never beat the idealized reference: the same mapping analyzed with
// every WCET slowed by exactly S/k (floor — optimistic slicing, no
// overhead). If this ever fails, the admission controller is promising
// composed throughput the wheel cannot deliver.
TEST_P(TdmConservativeProperty, InflatedGuaranteeIsNeverOptimistic) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  const std::uint32_t wheel = static_cast<std::uint32_t>(2 + rng.range(0, 6));  // 2..8
  const std::uint32_t held = static_cast<std::uint32_t>(1 + rng.range(0, wheel - 2));
  const auto arch =
      tdmArch(4, rng.chance(0.5) ? InterconnectKind::NocMesh : InterconnectKind::Fsl, wheel,
              static_cast<std::uint32_t>(rng.range(0, 400)));

  suite::SyntheticOptions synth;
  synth.seed = seed;
  constexpr suite::Topology kTopologies[] = {suite::Topology::Chain, suite::Topology::Ring,
                                             suite::Topology::ForkJoin};
  synth.topology = kTopologies[seed % 3];
  synth.actors = static_cast<std::uint32_t>(3 + seed % 5);
  synth.accelChance = 0.0;  // every actor runs on the shared processors
  const sdf::ApplicationModel app = suite::buildSynthetic(synth);

  MappingOptions options;
  options.tdmSlots = held;
  const auto result = mapApplication(app, arch, options);
  if (!result.has_value()) {
    return;  // infeasible under this seed: nothing to compare
  }
  ASSERT_TRUE(result->throughput.ok());

  std::vector<std::uint64_t> slowed = app.wcetVector("microblaze");
  for (std::uint64_t& w : slowed) {
    w = w * wheel / held;  // floor: strictly optimistic vs the ceil + overhead
  }
  const auto reference = analyzeMapping(app, arch, result->mapping, slowed);
  ASSERT_TRUE(reference.ok());
  EXPECT_LE(result->throughput.iterationsPerCycle, reference.iterationsPerCycle)
      << "wheel=" << wheel << " held=" << held;
}

INSTANTIATE_TEST_SUITE_P(Seeds, TdmConservativeProperty,
                         ::testing::Range<std::uint64_t>(0, 125));

// ----------------------- property (b): slot round trips are loss-free

class TdmSlotRoundTripProperty : public ::testing::TestWithParam<std::uint64_t> {};

// Any interleaving of slot reservations, tile commits, interconnect
// claims, and releases that ends with every client released leaves the
// budget bit-identical to the freshly baselined one — partial slot
// occupancy must not open a new leak class.
TEST_P(TdmSlotRoundTripProperty, InterleavedSlotReservationsTearDownToPristine) {
  Rng rng(GetParam());
  const bool noc = rng.chance(0.5);
  const std::uint32_t wheel = static_cast<std::uint32_t>(2 + rng.range(0, 6));
  const auto arch = tdmArch(4, noc ? InterconnectKind::NocMesh : InterconnectKind::Fsl, wheel,
                            static_cast<std::uint32_t>(rng.range(0, 300)));
  ResourceBudget budget(arch);
  budget.commitBaseline(runtimeLayerInstrBytes(), runtimeLayerDataBytes());
  const ResourceBudget pristine = budget;

  constexpr std::uint32_t kClients = 4;
  const std::size_t steps = 20 + rng.range(0, 40);
  for (std::size_t i = 0; i < steps; ++i) {
    const std::uint32_t client = static_cast<std::uint32_t>(rng.range(0, kClients - 1));
    const TileId tile = static_cast<TileId>(rng.range(0, arch.tileCount() - 1));
    switch (rng.range(0, 4)) {
      case 0: {  // slot reservation (only what the wheel still has free)
        const std::uint32_t slots = static_cast<std::uint32_t>(1 + rng.range(0, wheel - 1));
        if (budget.freeTileSlots(tile) >= slots) {
          budget.reserveTileSlots(tile, client, slots);
        }
        break;
      }
      case 1: {  // tile commit (holders and untouched wheels only)
        const std::uint32_t instr = static_cast<std::uint32_t>(rng.range(0, 512));
        const std::uint32_t data = static_cast<std::uint32_t>(rng.range(0, 256));
        const bool mayCommit =
            budget.tileSlots(tile, client) > 0 || budget.tiles()[tile].slotOwners.empty();
        if (mayCommit && budget.freeInstrBytes(tile) >= instr &&
            budget.freeDataBytes(tile) >= data) {
          budget.commitTile(tile, client, rng.range(1, 1000), instr, data);
        }
        break;
      }
      case 2: {  // interconnect claim
        if (noc) {
          const TileId dst = static_cast<TileId>(rng.range(0, arch.tileCount() - 1));
          if (tile != dst) {
            (void)budget.reserveNocWires(budget.nocTopology().xyRoute(tile, dst),
                                         static_cast<std::uint32_t>(rng.range(1, 4)), client);
          }
        } else if (budget.fslLinksUsed() < budget.fslLinkCapacity()) {
          (void)budget.allocateFslLink(client);
        }
        break;
      }
      default: {  // release a random resident client
        if (budget.ledger(client) != nullptr) {
          budget.release(client);
        }
        break;
      }
    }
  }

  // Full teardown, in seed-dependent order.
  std::vector<std::uint32_t> resident;
  for (std::uint32_t client = 0; client < kClients; ++client) {
    if (budget.ledger(client) != nullptr) {
      resident.push_back(client);
    }
  }
  while (!resident.empty()) {
    const std::size_t pick = static_cast<std::size_t>(rng.range(0, resident.size() - 1));
    budget.release(resident[pick]);
    resident.erase(resident.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  EXPECT_TRUE(budget == pristine);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TdmSlotRoundTripProperty,
                         ::testing::Range<std::uint64_t>(0, 125));

// ---------------------------------------- plan cache vs slot occupancy

TEST(TdmAdmissionTest, PlanCacheIsKeyedOnSlotOccupancy) {
  // One tile, 4-slot wheel. The two resident applications are tuned so
  // their committed tile load is IDENTICAL (120-cycle actors inflated
  // x4 on one slot == 240-cycle actors inflated x2 on two slots) and
  // their memory footprints match: between rounds the ONLY difference
  // in the residual platform is how many slots the resident holds. A
  // plan cache keyed on load and memory alone would replay round 1's
  // decision; the slot-occupancy term in the key must force a miss.
  platform::TemplateRequest request;
  request.tileCount = 1;
  request.interconnect = InterconnectKind::Fsl;
  const auto arch = platform::generateFromTemplate(platform::withTdm(request, 4, 0));

  const sdf::ApplicationModel oneSlotResident =
      test::makeAppModel(test::figure2Graph(), {120, 120, 120});
  const sdf::ApplicationModel twoSlotResident =
      test::makeAppModel(test::figure2Graph(), {240, 240, 240});
  const sdf::ApplicationModel probe = test::makeAppModel(test::figure2Graph(), {70, 70, 70});
  const AppAnalysisCache oneSlotCache = prepareApplication(oneSlotResident);
  const AppAnalysisCache twoSlotCache = prepareApplication(twoSlotResident);
  const AppAnalysisCache probeCache = prepareApplication(probe);

  MappingOptions oneSlot;
  oneSlot.tdmSlots = 1;
  MappingOptions twoSlots;
  twoSlots.tdmSlots = 2;

  AdmissionController controller(arch);

  // Round 1: resident holds ONE slot; the probe's decision is computed
  // cold and cached against that residual.
  const AdmissionDecision r1 = controller.admit(oneSlotCache, oneSlot);
  ASSERT_TRUE(r1.admitted());
  const AdmissionDecision p1 = controller.admit(probeCache, twoSlots);
  ASSERT_TRUE(p1.admitted());
  EXPECT_FALSE(p1.planCacheHit);
  EXPECT_EQ(p1.result->mapping.tileTdmSlots[0], 2u);
  controller.depart(*p1.client);
  controller.depart(*r1.client);
  ASSERT_TRUE(controller.pristine());

  // Round 2: same load, same memory, but the resident holds TWO slots.
  // The probe's identical request must MISS and recompute — and the
  // wheel must end up exactly accounted, not oversubscribed.
  const AdmissionDecision r2 = controller.admit(twoSlotCache, twoSlots);
  ASSERT_TRUE(r2.admitted());
  const AdmissionDecision p2 = controller.admit(probeCache, twoSlots);
  ASSERT_TRUE(p2.admitted());
  EXPECT_FALSE(p2.planCacheHit);
  EXPECT_EQ(p2.result->mapping.tileTdmSlots[0], 2u);
  EXPECT_EQ(controller.budget().freeTileSlots(0), 0u);
  controller.depart(*p2.client);
  controller.depart(*r2.client);
  ASSERT_TRUE(controller.pristine());

  // Round 3: round 1's residual recurs — now the probe must HIT, and
  // the replay must reconstruct its slot reservation exactly.
  const AdmissionDecision r3 = controller.admit(oneSlotCache, oneSlot);
  ASSERT_TRUE(r3.admitted());
  const AdmissionDecision p3 = controller.admit(probeCache, twoSlots);
  ASSERT_TRUE(p3.admitted());
  EXPECT_TRUE(p3.planCacheHit);
  EXPECT_EQ(p3.result->mapping.tileTdmSlots[0], 2u);
  EXPECT_EQ(controller.budget().tileSlots(0, *p3.client), 2u);
  EXPECT_EQ(p3.result->throughput.iterationsPerCycle, p1.result->throughput.iterationsPerCycle);
  controller.depart(*p3.client);
  controller.depart(*r3.client);
  EXPECT_TRUE(controller.pristine());
}

TEST(TdmAdmissionTest, ReplayIsBitIdenticalToRecomputeOnTdmWheels) {
  // The two-controller pin of admission_test, on a TDM platform: a
  // cached controller and a cache-disabled one driven through the same
  // slot-sharing sequence must stay budget-equal at every step.
  const suite::ChurnWorkload workload = suite::suiteTdmChurnWorkload(4, 2);
  const auto arch = platform::generateFromTemplate(
      platform::withTdm(platform::heterogeneousPreset(4, {"accel"}), 4, 200));

  AdmissionOptions cold;
  cold.planCache = false;
  AdmissionController cached(arch);
  AdmissionController recomputed(arch, cold);

  const std::size_t script[] = {1, 3, 1, 3};
  for (int round = 0; round < 3; ++round) {
    std::vector<ClientId> mine;
    std::vector<ClientId> theirs;
    for (const std::size_t app : script) {
      const AdmissionDecision a = cached.admit(workload.caches[app], workload.options[app]);
      const AdmissionDecision b = recomputed.admit(workload.caches[app], workload.options[app]);
      ASSERT_EQ(a.admitted(), b.admitted());
      if (a.admitted()) {
        mine.push_back(*a.client);
        theirs.push_back(*b.client);
        EXPECT_EQ(a.result->mapping.actorToTile, b.result->mapping.actorToTile);
        EXPECT_EQ(a.result->mapping.tileTdmSlots, b.result->mapping.tileTdmSlots);
        EXPECT_EQ(a.result->throughput.iterationsPerCycle,
                  b.result->throughput.iterationsPerCycle);
      }
      EXPECT_TRUE(cached.budget() == recomputed.budget());
    }
    for (std::size_t i = 0; i < mine.size(); ++i) {
      cached.depart(mine[i]);
      recomputed.depart(theirs[i]);
    }
    EXPECT_TRUE(cached.pristine());
    EXPECT_TRUE(recomputed.pristine());
  }
  EXPECT_GT(cached.stats().planCacheHits, 0u);
  EXPECT_EQ(recomputed.stats().planCacheHits, 0u);
}

// ------------------------------------------------- headline capacity

TEST(TdmAdmissionTest, TdmAdmitsStrictlyMoreH263InstancesOnTheLargeMesh) {
  // The tentpole claim: with 4-slot wheels and 2-slot reservations the
  // 12-tile mesh admits strictly more H.263 instances than exclusive
  // tiles do — same application model (the slice-relaxed constraint)
  // on both sides, every admitted instance carrying a met guarantee.
  const suite::ChurnWorkload workload = suite::suiteTdmChurnWorkload(4, 2);
  const std::size_t app = 0;  // h263

  const auto admitUntilFull = [&](const platform::Architecture& arch,
                                  const MappingOptions& options) {
    AdmissionController controller(arch);
    std::size_t admitted = 0;
    for (;;) {
      const AdmissionDecision decision = controller.admit(workload.caches[app], options);
      if (!decision.admitted()) {
        break;
      }
      EXPECT_TRUE(decision.result->meetsConstraint);
      ++admitted;
    }
    return admitted;
  };

  MappingOptions exclusiveOptions = workload.options[app];
  exclusiveOptions.tdmSlots = 0;  // claim whole (1-slot) wheels
  const std::size_t exclusiveCount = admitUntilFull(
      platform::generateFromTemplate(platform::largeMeshPreset(12)), exclusiveOptions);
  const std::size_t tdmCount = admitUntilFull(
      platform::generateFromTemplate(platform::withTdm(platform::largeMeshPreset(12), 4, 200)),
      workload.options[app]);

  EXPECT_GT(exclusiveCount, 0u);
  EXPECT_GT(tdmCount, exclusiveCount)
      << "TDM sharing must admit strictly more instances than exclusive tiles";
}

}  // namespace
}  // namespace mamps::mapping
