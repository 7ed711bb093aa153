#include "mapping/flow.hpp"

#include "analysis/buffer.hpp"
#include "mapping/workload.hpp"
#include "sdf/repetition_vector.hpp"

namespace mamps::mapping {

using sdf::ActorId;

AppAnalysisCache prepareApplication(const sdf::ApplicationModel& app) {
  app.validate();
  AppAnalysisCache cache;
  cache.app = &app;
  const auto q = sdf::computeRepetitionVector(app.graph());
  cache.consistent = q.has_value();
  if (!cache.consistent) {
    return cache;
  }
  cache.repetition = *q;
  cache.deadlockFree = analysis::isDeadlockFree(app.graph(), cache.repetition);
  for (ActorId a = 0; a < app.graph().actorCount(); ++a) {
    for (const sdf::ActorImplementation& impl : app.implementations(a)) {
      auto& wcet = cache.wcetByType
                       .try_emplace(impl.processorType,
                                    std::vector<std::uint64_t>(app.graph().actorCount(),
                                                               AppAnalysisCache::kNoWcet))
                       .first->second;
      wcet[a] = impl.wcetCycles;
    }
  }
  return cache;
}

std::optional<MappingResult> mapApplication(const sdf::ApplicationModel& app,
                                            const platform::Architecture& arch,
                                            const MappingOptions& options) {
  return mapApplication(prepareApplication(app), arch, options);
}

std::optional<MappingResult> mapApplication(const AppAnalysisCache& cache,
                                            const platform::Architecture& arch,
                                            const MappingOptions& options) {
  // The one-application special case of the workload flow: same binding,
  // routing, buffer-growth, and analysis code path, on a fresh budget.
  WorkloadOptions workloadOptions;
  workloadOptions.options = options;
  WorkloadResult workload = mapWorkload(std::span(&cache, 1), arch, workloadOptions);
  return std::move(workload.apps.front());
}

analysis::ThroughputResult analyzeMapping(const sdf::ApplicationModel& app,
                                          const platform::Architecture& arch,
                                          const Mapping& mapping,
                                          const std::vector<std::uint64_t>& actorExecTimes) {
  const BindingAwareModel model = buildBindingAware(app, arch, mapping, actorExecTimes);
  return analysis::computeThroughput(model.graph, model.resources);
}

}  // namespace mamps::mapping
