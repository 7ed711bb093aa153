// The traced run's outside-in decomposition of the mapping step.
//
// mapping::mapOntoBudget is one opaque call. To attribute its time to
// stages, the traced run repeats it stage by stage through the public
// functions it is built from — bindActors, buildStaticOrderSchedules,
// routeChannels, buildBindingAware, and one IncrementalThroughput build
// plus one compute per buffer-growth round — on a copy of the same
// budget, and checks that the result (verdict, rational, buffer sizes)
// equals the real call's. When a change to the step's internals makes
// the two differ, mapping.trace_mismatch counts it and the stage
// attribution is reported as unattributed; the run goes on.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mapping/workload.hpp"

namespace perfbench {

/// Stage counters accumulated over every decomposed step of a run.
struct StepStats {
  std::size_t steps = 0;
  std::size_t analysisCalls = 0;
  std::size_t stepsAnalyzed = 0;  ///< steps that reached the analysis
  std::size_t stateSpaceCalls = 0;
  std::size_t bindFailed = 0;
  std::size_t routeRetries = 0;
  std::size_t routeFailed = 0;
  std::size_t mismatches = 0;
  double bindMs = 0;
  double scheduleMs = 0;
  double routeMs = 0;
  double bindingAwareMs = 0;
  double contextMs = 0;
  double computeMs = 0;
  double expandMs = 0;
  double solveMs = 0;
  std::vector<double> stepMs;
  std::vector<double> hsdfActors;
  std::vector<double> bindingAwareActors;
};

/// What a decomposed step produced (the fields the real call is checked
/// against).
struct StepOutcome {
  bool mapped = false;
  bool meetsConstraint = false;
  mamps::analysis::ThroughputResult throughput;
  mamps::mapping::Mapping mapping;
};

/// One mapping step, stage by stage; mirrors mapOntoBudget (budget
/// advances only on success).
StepOutcome decomposedStep(const mamps::mapping::AppAnalysisCache& cache,
                           const mamps::platform::Architecture& arch,
                           const mamps::mapping::MappingOptions& options,
                           mamps::platform::ResourceBudget& budget, std::uint32_t client,
                           StepStats& stats);

/// Same verdict, rational and buffer sizes as the real call?
[[nodiscard]] bool sameOutcome(const StepOutcome& decomposed,
                               const std::optional<mamps::mapping::MappingResult>& real);

/// Decompose a whole single- or multi-application mapping (the
/// mapApplication / mapWorkload budget discipline: fresh budget with the
/// runtime-layer baseline, applications in priority order) and count
/// mismatches against `real` (one entry per application, input order).
void decomposeWorkload(const std::vector<const mamps::mapping::AppAnalysisCache*>& caches,
                       const mamps::platform::Architecture& arch,
                       const mamps::mapping::WorkloadOptions& options,
                       const std::vector<const std::optional<mamps::mapping::MappingResult>*>& real,
                       StepStats& stats);

class Report;
/// Record the mapping/analysis/comm per-layer metrics of `stats`.
void reportSteps(const StepStats& stats, Report& report);

}  // namespace perfbench
