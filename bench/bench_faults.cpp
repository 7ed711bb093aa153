// Fault-injection survival: fill each platform preset with suite
// applications, then fail k tiles simultaneously (k = 1..cap) and
// measure how many residents the controller re-admits onto the healthy
// residual — the survival curve per k: of the distinct clients any
// injection stranded, the fraction still resident after the last one —
// plus the recovery-latency p99 over a seeded fault-churn trace.
// Prints one JSON object to stdout; the trajectory at
// ../BENCH_faults.json records the curves across PRs. Exits non-zero
// when a single tile failure on the filled 12-tile mesh fails to
// recover at least one stranded app, any post-recovery resident still
// references a failed resource or misses its guarantee, a
// fail -> repair -> drain cycle does not land on a bit-identical
// pristine budget, or the fault-churn trace leaks.
#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "apps/suite/churn.hpp"
#include "mapping/admission.hpp"
#include "platform/arch_template.hpp"

using namespace mamps;

namespace {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t rank = static_cast<std::size_t>(p * static_cast<double>(samples.size() - 1));
  return samples[rank];
}

// Admit suite applications round-robin until a full pass admits nobody.
std::size_t fillPlatform(mapping::AdmissionController& controller,
                         const suite::ChurnWorkload& workload) {
  for (;;) {
    bool any = false;
    for (std::size_t app = 0; app < workload.caches.size(); ++app) {
      any = controller.admit(workload.caches[app], workload.options[app]).admitted() || any;
    }
    if (!any) {
      return controller.residentCount();
    }
  }
}

// The k tiles to fail: resident-carrying tiles first (in resident id
// order — failing empty tiles measures nothing), then free ones.
std::vector<platform::TileId> pickVictims(const mapping::AdmissionController& controller,
                                          std::size_t k) {
  std::vector<platform::TileId> victims;
  std::set<platform::TileId> seen;
  const auto take = [&](platform::TileId tile) {
    if (victims.size() < k && seen.insert(tile).second) {
      victims.push_back(tile);
    }
  };
  for (const mapping::ClientId client : controller.residentIds()) {
    const platform::ClientLedger* ledger = controller.budget().ledger(client);
    for (const auto& [tile, share] : ledger->tiles) {
      take(tile);
    }
  }
  const std::size_t tiles = controller.budget().arch()->tileCount();
  for (platform::TileId t = 0; t < tiles; ++t) {
    take(t);
  }
  return victims;
}

// Post-recovery invariants: nothing resident references a failed tile,
// and every resident's (possibly refreshed) guarantee still composes.
bool recoveryIsClean(const mapping::AdmissionController& controller,
                     const std::vector<platform::TileId>& failed) {
  if (!controller.budget().strandedClients().empty()) {
    return false;
  }
  for (const mapping::ClientId client : controller.residentIds()) {
    const platform::ClientLedger* ledger = controller.budget().ledger(client);
    if (ledger == nullptr || !controller.resident(client).meetsConstraint) {
      return false;
    }
    for (const platform::TileId tile : failed) {
      if (ledger->tiles.count(tile) != 0) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main() {
  struct Platform {
    const char* name;
    platform::TemplateRequest request;
    std::size_t maxSimultaneousFailures;
    std::uint32_t spareTiles;  // RecoveryPolicy headroom kept free for recovery
    bool requireSingleFailureRecovery;  // the headline gate, pinned on the mesh
  };
  const Platform platforms[] = {
      {"mesh12_noc", platform::largeMeshPreset(12), 6, 2, true},
      {"hetero4_fsl", platform::heterogeneousPreset(4, {"accel"}), 3, 1, false},
  };

  const suite::ChurnWorkload workload = suite::suiteChurnWorkload();

  bool healthy = true;
  std::string rows;
  for (const Platform& p : platforms) {
    const platform::Architecture arch = platform::generateFromTemplate(p.request);

    // Survival curve: fresh filled controller per k, fail k tiles at
    // once, count who comes back.
    std::string curve;
    // Fill under the spare-tile headroom: admissions stop while the
    // reserve remains free, so recovery has room to re-land evacuees
    // (the policy the survival curve is measuring).
    mapping::AdmissionOptions admissionOptions;
    admissionOptions.recovery.spareTiles = p.spareTiles;
    for (std::size_t k = 1; k <= p.maxSimultaneousFailures && k + 1 < arch.tileCount(); ++k) {
      mapping::AdmissionController controller(arch, admissionOptions);
      const std::size_t residentsBefore = fillPlatform(controller, workload);
      const std::vector<platform::TileId> victims = pickVictims(controller, k);

      // A client re-admitted after one injection can be stranded again
      // by the next, so count distinct clients: every client any
      // injection stranded, and those of them still resident at the end.
      std::set<mapping::ClientId> strandedClients;
      double recoverySeconds = 0.0;
      for (const platform::TileId tile : victims) {
        const mapping::RecoveryReport report =
            controller.injectFault(mapping::FaultEvent::tileFailure(tile));
        strandedClients.insert(report.stranded.begin(), report.stranded.end());
        recoverySeconds += report.seconds;
      }
      const std::size_t stranded = strandedClients.size();
      std::size_t recovered = 0;
      for (const mapping::ClientId client : controller.residentIds()) {
        recovered += strandedClients.count(client);
      }
      if (!recoveryIsClean(controller, victims)) {
        healthy = false;  // a recovered platform still references a failure
      }
      if (p.requireSingleFailureRecovery && k == 1 && (stranded == 0 || recovered == 0)) {
        healthy = false;  // the headline: one tile down, at least one app back
      }

      // fail -> repair -> drain must land on bit-identical pristine.
      for (const platform::TileId tile : victims) {
        controller.repair(mapping::FaultEvent::tileFailure(tile));
      }
      for (const mapping::ClientId client : controller.residentIds()) {
        controller.depart(client);
      }
      if (!controller.pristine()) {
        healthy = false;  // the fail/repair cycle leaked
      }

      char row[256];
      std::snprintf(row, sizeof row,
                    "        {\"tile_failures\": %zu, \"residents\": %zu, \"stranded\": %zu, "
                    "\"recovered\": %zu, \"survival\": %.3f, \"recovery_seconds\": %.6f}",
                    k, residentsBefore, stranded, recovered,
                    stranded == 0 ? 1.0
                                  : static_cast<double>(recovered) / static_cast<double>(stranded),
                    recoverySeconds);
      curve += curve.empty() ? "" : ",\n";
      curve += row;
    }

    // Fault churn: interleaved arrivals/departures/failures/repairs;
    // the recovery-latency distribution and the leak gate.
    mapping::AdmissionController controller(arch);
    suite::ChurnOptions churnOptions;
    churnOptions.seed = 42;
    churnOptions.events = 600;
    churnOptions.faultChance = 0.08;
    churnOptions.repairChance = 0.25;
    const suite::ChurnResult churn = suite::runChurnTrace(controller, workload, churnOptions);
    if (!churn.pristineAfterDrain) {
      healthy = false;  // fault churn leaked
    }
    std::vector<double> recoveryLatencies;
    for (const suite::ChurnEvent& event : churn.trace) {
      if (event.kind == suite::ChurnEvent::Kind::Fault) {
        recoveryLatencies.push_back(event.seconds);
      }
    }

    char row[2048];
    std::snprintf(
        row, sizeof row,
        "    {\"platform\": \"%s\", \"tiles\": %zu, \"spare_tiles\": %u,\n"
        "      \"survival_curve\": [\n%s\n      ],\n"
        "      \"churn_events\": %zu, \"churn_faults\": %zu, "
        "\"churn_evacuated\": %zu, \"churn_recovered\": %zu,\n"
        "      \"recovery_p50_seconds\": %.6f, \"recovery_p99_seconds\": %.6f, "
        "\"churn_pristine_after_drain\": %s}",
        p.name, arch.tileCount(), p.spareTiles, curve.c_str(), churnOptions.events,
        churn.stats.faultsInjected, churn.stats.evacuated, churn.stats.recovered,
        percentile(recoveryLatencies, 0.50), percentile(recoveryLatencies, 0.99),
        churn.pristineAfterDrain ? "true" : "false");
    rows += rows.empty() ? "" : ",\n";
    rows += row;
  }

  std::printf("{\n");
  std::printf("  \"bench\": \"bench_faults\",\n");
  std::printf(
      "  \"workload\": \"suite mix filled to capacity, k simultaneous tile failures "
      "(stranded = distinct clients any injection stranded, recovered = those still "
      "resident after the last injection, survival = recovered/stranded), plus a "
      "600-event fault churn for the recovery-latency distribution\",\n");
  std::printf("  \"platforms\": [\n%s\n  ],\n", rows.c_str());
  std::printf("  \"healthy\": %s\n", healthy ? "true" : "false");
  std::printf("}\n");
  return healthy ? 0 : 1;
}
