// Multi-application co-mapping: map a workload of applications onto
// ONE shared platform.
//
// The paper's flow maps multiple throughput-constrained applications
// onto a single generated MPSoC. mapWorkload() realizes that: the
// applications are mapped iteratively (in priority order) onto the
// residual platform::ResourceBudget — each successful mapping commits
// its tile, memory, SDM-wire, and FSL-link reservations, and the next
// application only sees what is left. The per-application guarantees
// compose because every committed resource is exclusive (tiles host one
// application, SDM wires and FSL links belong to one connection), so
// co-mapped applications cannot perturb each other's analyzed
// schedules.
//
// mapApplication() (mapping/flow.hpp) is the one-application special
// case of mapWorkload() — a single code path produces both.
//
// Determinism contract: mapWorkload is a pure function of its inputs.
// Results are returned in input order regardless of the priority order
// used for mapping.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "mapping/flow.hpp"
#include "platform/resource_budget.hpp"

namespace mamps::mapping {

/// Tuning knobs for mapWorkload().
struct WorkloadOptions {
  /// Mapping knobs applied to every application of the workload.
  MappingOptions options{};
  /// Per-application overrides; when non-empty it must have one entry
  /// per application and replaces `options` for that application.
  std::vector<MappingOptions> appOptions{};
  /// Mapping priorities, one per application when non-empty: higher
  /// priorities are mapped (and thus claim resources) first; ties keep
  /// input order. Empty = map in input order.
  std::vector<int> priorities{};
};

/// Outcome of mapping a workload onto one shared platform.
struct WorkloadResult {
  /// Per application, in input order: the mapping and its throughput
  /// guarantee, or nullopt when the application could not be mapped
  /// onto the residual budget (infeasible applications commit nothing).
  std::vector<std::optional<MappingResult>> apps;
  /// Combined per-tile accounting of the shared platform, produced by
  /// the final ResourceBudget (baseline runtime layer plus every mapped
  /// application). TileUsage::actors is empty here: actor ids are
  /// application-local; per-application actors are in each
  /// MappingResult::usage.
  std::vector<TileUsage> usage;
  /// The order (input indices) in which applications were mapped.
  std::vector<std::size_t> mappingOrder;

  /// Number of applications that produced a mapping.
  /// @return count of non-null entries of `apps`
  [[nodiscard]] std::size_t mappedCount() const;
  /// True when every application produced a mapping.
  /// @return mappedCount() == apps.size()
  [[nodiscard]] bool feasible() const { return mappedCount() == apps.size(); }
  /// True when every application is mapped AND meets its own throughput
  /// constraint.
  /// @return feasible() and every MappingResult::meetsConstraint
  [[nodiscard]] bool meetsConstraints() const;
};

/// Assign interconnect resources to every inter-tile channel of a bound
/// application, committing them to `budget` under `client`'s name. For
/// the NoC this reserves SDM wires along each XY route (halving the
/// per-connection request when links fill up); for FSL every inter-tile
/// channel gets a dedicated link from the budget's capped free-list.
/// All-or-nothing: the allocation is trialled on a copy internally, so
/// on failure `budget` is untouched — callers may pass long-lived
/// budgets (the admission controller's live platform state) directly.
/// @param g the application graph
/// @param arch the shared platform
/// @param actorToTile the binding (actor -> tile)
/// @param options mapping knobs (requested SDM wires per connection)
/// @param budget the shared budget to commit into
/// @param client the committing client id
/// @param routes output: one ChannelRoute per channel
/// @return true on success; false when a NoC connection cannot be
///   routed at even one wire, or the FSL link capacity is exhausted
[[nodiscard]] bool routeChannels(const sdf::Graph& g, const platform::Architecture& arch,
                                 const std::vector<platform::TileId>& actorToTile,
                                 const MappingOptions& options,
                                 platform::ResourceBudget& budget, std::uint32_t client,
                                 std::vector<ChannelRoute>& routes);

/// The complete mapping step for ONE application on the residual of
/// `budget`: bind, schedule, route, distribute buffers, analyze. On
/// success the application's reservations are committed into `budget`
/// under `client`'s name (release them with
/// platform::ResourceBudget::release); on failure the budget is
/// untouched. This is the code path shared by mapWorkload (one call per
/// application, in priority order) and the online
/// mapping::AdmissionController (one call per arriving client).
/// @param cache the prepared application (see prepareApplication)
/// @param arch the shared platform
/// @param options mapping knobs for this application
/// @param budget the shared budget; advanced only on success
/// @param client the committing client id
/// @return the mapping and its guarantee, or nullopt when the
///   application cannot be mapped onto the residual
/// @throws ModelError when an actor is bound to a tile without an
///   implementation, or its TDM-inflated WCET exceeds 64 bits (the
///   budget is untouched in both cases)
[[nodiscard]] std::optional<MappingResult> mapOntoBudget(const AppAnalysisCache& cache,
                                                         const platform::Architecture& arch,
                                                         const MappingOptions& options,
                                                         platform::ResourceBudget& budget,
                                                         std::uint32_t client);

/// Map a workload of prepared applications onto `arch`. Applications
/// are mapped in priority order onto the residual resource budget; see
/// the header comment for the composition and determinism contracts.
/// @param apps the prepared applications (see prepareApplication); the
///   underlying models must outlive the call
/// @param arch the shared platform
/// @param options workload-level and per-application knobs
/// @return per-application results in input order plus the combined
///   platform accounting
/// @throws ModelError when `options` per-application vectors do not
///   match the workload size
[[nodiscard]] WorkloadResult mapWorkload(std::span<const AppAnalysisCache> apps,
                                         const platform::Architecture& arch,
                                         const WorkloadOptions& options = {});

}  // namespace mamps::mapping
