#include "step.hpp"

#include <algorithm>
#include <numeric>

#include "analysis/buffer.hpp"
#include "analysis/incremental.hpp"
#include "common.hpp"
#include "mapping/binding.hpp"
#include "mapping/schedule.hpp"

namespace perfbench {

using namespace mamps;
using mapping::MappingOptions;
using platform::ResourceBudget;
using sdf::ChannelId;

namespace {

// The buffer policy of the mapping step (initial scaled lower bounds,
// doubling per growth round, capacity back-edge patching), repeated
// here because the library keeps it internal.
void assignBuffers(const sdf::Graph& g, std::uint32_t scale, mapping::Mapping& m) {
  m.localCapacityTokens.assign(g.channelCount(), 0);
  m.srcBufferTokens.assign(g.channelCount(), 0);
  m.dstBufferTokens.assign(g.channelCount(), 0);
  for (ChannelId c = 0; c < g.channelCount(); ++c) {
    const sdf::Channel& ch = g.channel(c);
    if (ch.isSelfEdge()) {
      continue;
    }
    if (m.channelRoutes[c].interTile) {
      m.srcBufferTokens[c] = (std::uint64_t{ch.prodRate} + ch.initialTokens) * scale;
      m.dstBufferTokens[c] = std::uint64_t{ch.consRate} * scale;
    } else {
      m.localCapacityTokens[c] = analysis::capacityLowerBound(ch) * scale;
    }
  }
}

void growAndPatch(const sdf::Graph& g, mapping::Mapping& m, mapping::BindingAwareModel& model,
                  analysis::IncrementalThroughput& context) {
  const auto apply = [&](ChannelId id, std::uint64_t tokens) {
    if (id != sdf::kInvalidChannel) {
      model.graph.graph.setInitialTokens(id, tokens);
      context.setInitialTokens(id, tokens);
    }
  };
  for (ChannelId c = 0; c < g.channelCount(); ++c) {
    const sdf::Channel& ch = g.channel(c);
    if (ch.isSelfEdge()) {
      continue;
    }
    const mapping::CapacityEdgeIds& ids = model.capacityEdges[c];
    if (m.channelRoutes[c].interTile) {
      m.srcBufferTokens[c] *= 2;
      m.dstBufferTokens[c] *= 2;
      apply(ids.alphaSrc, m.srcBufferTokens[c] - ch.initialTokens);
      apply(ids.alphaDst, m.dstBufferTokens[c]);
    } else {
      m.localCapacityTokens[c] *= 2;
      apply(ids.localSpace, m.localCapacityTokens[c] - ch.initialTokens);
    }
  }
}

/// Time one stage: a span in the traced run plus a running sum.
template <typename F>
auto stage(const char* name, double& totalMs, F&& body) {
  const ScopedSpan span(name);
  const std::int64_t start = nowNs();
  auto result = body();
  totalMs += msSince(start);
  return result;
}

analysis::ThroughputResult compute(analysis::IncrementalThroughput& context, StepStats& stats) {
  const ScopedSpan span("analysis.compute");
  const std::int64_t start = nowNs();
  analysis::ThroughputResult result = context.compute();
  const std::int64_t end = nowNs();
  stats.computeMs += (end - start) * 1e-6;
  stats.expandMs += static_cast<double>(result.expansionNanos) * 1e-6;
  stats.solveMs += static_cast<double>(result.solveNanos) * 1e-6;
  // The library's own phase timers, laid end to end inside the call.
  const auto expand = static_cast<std::int64_t>(result.expansionNanos);
  const auto solve = static_cast<std::int64_t>(result.solveNanos);
  tracer().add("analysis.expand", start, std::min(end, start + expand), span.id());
  tracer().add("analysis.solve", std::min(end, start + expand),
               std::min(end, start + expand + solve), span.id());
  ++stats.analysisCalls;
  stats.stateSpaceCalls += result.engine == analysis::ThroughputEngine::StateSpace ? 1 : 0;
  stats.hsdfActors.push_back(static_cast<double>(result.hsdfActors));
  return result;
}

StepOutcome stepBody(const mapping::AppAnalysisCache& cache, const platform::Architecture& arch,
                     const MappingOptions& options, ResourceBudget& budget, std::uint32_t client,
                     StepStats& stats) {
  StepOutcome out;
  const sdf::ApplicationModel& app = *cache.app;
  const sdf::Graph& g = app.graph();
  if (!cache.consistent || !cache.deadlockFree) {
    return out;
  }
  ResourceBudget work = [&] {
    const ScopedSpan span("platform.budget_copy");
    return budget;
  }();
  const auto binding = stage("mapping.bind", stats.bindMs,
                             [&] { return mapping::bindActors(app, options, work, client); });
  if (!binding) {
    ++stats.bindFailed;
    return out;
  }
  const auto schedules = stage("mapping.schedule", stats.scheduleMs, [&] {
    return mapping::buildStaticOrderSchedules(app, arch, binding->actorToTile);
  });
  if (!schedules) {
    return out;
  }
  out.mapping.actorToTile = binding->actorToTile;
  out.mapping.schedules = *schedules;
  out.mapping.serialization = options.serialization;

  const bool routed = stage("mapping.route", stats.routeMs, [&] {
    std::uint32_t wires = std::max<std::uint32_t>(1, options.nocWiresPerConnection);
    MappingOptions attempt = options;
    for (;;) {
      attempt.nocWiresPerConnection = wires;
      if (mapping::routeChannels(g, arch, binding->actorToTile, attempt, work, client,
                                 out.mapping.channelRoutes)) {
        return true;
      }
      if (wires == 1) {
        return false;
      }
      ++stats.routeRetries;
      wires /= 2;
    }
  });
  if (!routed) {
    ++stats.routeFailed;
    return out;
  }

  std::vector<std::uint64_t> wcet(g.actorCount());
  for (sdf::ActorId a = 0; a < g.actorCount(); ++a) {
    const platform::TileId t = binding->actorToTile[a];
    wcet[a] = cache.wcetByType.at(arch.tile(t).processorType)[a];
    const std::uint32_t held = work.tileSlots(t, client);
    const std::uint32_t wheel = work.tileSlotCapacity(t);
    if (held != 0 && held < wheel) {
      wcet[a] = (wcet[a] * wheel + held - 1) / held + work.tileWheelOverheadCycles(t);
    }
  }
  assignBuffers(g, std::max<std::uint32_t>(1, options.initialBufferScale), out.mapping);

  mapping::BindingAwareModel model = stage("mapping.binding_aware", stats.bindingAwareMs, [&] {
    return mapping::buildBindingAware(app, arch, out.mapping, wcet);
  });
  stats.bindingAwareActors.push_back(static_cast<double>(model.graph.graph.actorCount()));
  auto context = stage("analysis.context", stats.contextMs, [&] {
    return std::make_unique<analysis::IncrementalThroughput>(model.graph, &model.resources);
  });
  ++stats.stepsAnalyzed;
  const Rational constraint = app.throughputConstraint();
  out.throughput = compute(*context, stats);
  for (std::uint32_t round = 0;; ++round) {
    const bool met = out.throughput.ok() &&
                     (constraint.isZero() || out.throughput.iterationsPerCycle >= constraint);
    if (met || round >= options.bufferGrowthRounds) {
      out.meetsConstraint = met;
      break;
    }
    growAndPatch(g, out.mapping, model, *context);
    out.throughput = compute(*context, stats);
  }
  out.mapped = true;
  budget = std::move(work);
  return out;
}

}  // namespace

StepOutcome decomposedStep(const mapping::AppAnalysisCache& cache,
                           const platform::Architecture& arch, const MappingOptions& options,
                           ResourceBudget& budget, std::uint32_t client, StepStats& stats) {
  const QuietLog quiet;
  const ScopedSpan span("mapping.step");
  const std::int64_t start = nowNs();
  StepOutcome out = stepBody(cache, arch, options, budget, client, stats);
  stats.stepMs.push_back(msSince(start));
  ++stats.steps;
  return out;
}

bool sameOutcome(const StepOutcome& d, const std::optional<mapping::MappingResult>& real) {
  if (!real.has_value()) {
    return !d.mapped;
  }
  return d.mapped && d.meetsConstraint == real->meetsConstraint &&
         d.throughput.status == real->throughput.status &&
         d.throughput.iterationsPerCycle == real->throughput.iterationsPerCycle &&
         d.mapping.actorToTile == real->mapping.actorToTile &&
         d.mapping.localCapacityTokens == real->mapping.localCapacityTokens &&
         d.mapping.srcBufferTokens == real->mapping.srcBufferTokens &&
         d.mapping.dstBufferTokens == real->mapping.dstBufferTokens;
}

void decomposeWorkload(const std::vector<const mapping::AppAnalysisCache*>& caches,
                       const platform::Architecture& arch, const mapping::WorkloadOptions& options,
                       const std::vector<const std::optional<mapping::MappingResult>*>& real,
                       StepStats& stats) {
  std::vector<std::size_t> order(caches.size());
  std::iota(order.begin(), order.end(), 0);
  if (!options.priorities.empty()) {
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return options.priorities[a] > options.priorities[b];
    });
  }
  ResourceBudget budget(arch);
  budget.commitBaseline(mapping::runtimeLayerInstrBytes(), mapping::runtimeLayerDataBytes());
  for (const std::size_t i : order) {
    const MappingOptions& appOptions =
        options.appOptions.empty() ? options.options : options.appOptions[i];
    const StepOutcome out = decomposedStep(*caches[i], arch, appOptions, budget,
                                           static_cast<std::uint32_t>(i), stats);
    if (!sameOutcome(out, *real[i])) {
      ++stats.mismatches;
    }
  }
}

void reportSteps(const StepStats& s, Report& report) {
  const std::string note = s.mismatches == 0
                               ? "(decomposed step)"
                               : "(UNATTRIBUTED: the decomposition no longer matches the step)";
  setPercentile(report, "mapping.step_ms_p50", s.stepMs, 0.5, "ms", note);
  setPercentile(report, "mapping.step_ms_p99", s.stepMs, 0.99, "ms", note);
  report.set("mapping.bind_ms_total", s.bindMs, "ms", "lower", s.steps, 0, note);
  report.set("mapping.bind_failed", static_cast<double>(s.bindFailed), "count", "lower", s.steps);
  report.set("mapping.schedule_ms_total", s.scheduleMs, "ms", "lower", s.steps, 0, note);
  report.set("mapping.route_ms_total", s.routeMs, "ms", "lower", s.steps, 0, note);
  report.set("mapping.route_retries", static_cast<double>(s.routeRetries), "count", "lower",
             s.steps);
  report.set("mapping.route_failed", static_cast<double>(s.routeFailed), "count", "lower",
             s.steps);
  report.set("mapping.binding_aware_ms_total", s.bindingAwareMs, "ms", "lower", s.steps, 0,
             note);
  report.set("mapping.trace_mismatch", static_cast<double>(s.mismatches), "count", "lower",
             s.steps, 0, "(decomposed steps whose result differs from the real call)");
  report.set("analysis.calls", static_cast<double>(s.analysisCalls), "count", "lower", s.steps);
  report.set("analysis.calls_per_step_mean",
             s.steps == 0 ? 0.0 : static_cast<double>(s.analysisCalls) / s.steps, "count",
             "lower", s.steps);
  report.set("analysis.final_ratio",
             s.analysisCalls == 0 ? 0.0
                                  : static_cast<double>(s.stepsAnalyzed) / s.analysisCalls,
             "ratio", "higher", s.analysisCalls, 0,
             "(analyses whose verdict the step returned / analyses run)");
  report.set("analysis.context_ms_total", s.contextMs, "ms", "lower", s.stepsAnalyzed, 0, note);
  report.set("analysis.compute_ms_total", s.computeMs, "ms", "lower", s.analysisCalls, 0, note);
  report.set("analysis.expand_ms_total", s.expandMs, "ms", "lower", s.analysisCalls, 0,
             "(sum of ThroughputResult::expansionNanos)");
  report.set("analysis.solve_ms_total", s.solveMs, "ms", "lower", s.analysisCalls, 0,
             "(sum of ThroughputResult::solveNanos)");
  report.set("analysis.hsdf_actors_p50", median(s.hsdfActors), "actors", "lower",
             s.hsdfActors.size(), 0.5);
  report.set("analysis.hsdf_actors_max",
             s.hsdfActors.empty() ? 0.0
                                  : *std::max_element(s.hsdfActors.begin(), s.hsdfActors.end()),
             "actors", "lower", s.hsdfActors.size());
  report.set("analysis.state_space_calls", static_cast<double>(s.stateSpaceCalls), "count",
             "lower", s.analysisCalls);
  report.set("comm.binding_aware_actors_p50", median(s.bindingAwareActors), "actors", "lower",
             s.bindingAwareActors.size(), 0.5,
             "(binding-aware graph after the Figure 4 expansion)");
}

}  // namespace perfbench
