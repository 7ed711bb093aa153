#include "analysis/throughput.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/flat_hsdf.hpp"
#include "analysis/incremental.hpp"
#include "analysis/mcm.hpp"
#include "analysis/self_timed.hpp"
#include "sdf/repetition_vector.hpp"
#include "support/timer.hpp"

namespace mamps::analysis {
namespace {

using sdf::ActorId;
using sdf::Channel;
using sdf::Graph;

/// Canonicalised quiescent-state key: per-channel token counts,
/// per-actor sorted remaining firing times (length-prefixed), and
/// per-resource schedule positions.
using StateKey = std::vector<std::uint64_t>;

/// Bookkeeping of one stored quiescent state.
struct Visit {
  std::uint64_t time = 0;
  std::uint64_t completions = 0;
};

StateKey encodeState(const SelfTimedExecution& execution, std::size_t actorCount) {
  const auto& tokens = execution.tokens();
  const auto& positions = execution.schedulePositions();
  StateKey key;
  key.reserve(tokens.size() + 2 * actorCount + positions.size());
  key.assign(tokens.begin(), tokens.end());
  execution.appendRemaining(key);
  key.insert(key.end(), positions.begin(), positions.end());
  return key;
}

/// Safety cap on the quiescent steps of one state-space run: past it the
/// engine gives up with Status::StepLimit. Each step returns or stores
/// one new state, so the cap also bounds the state store.
constexpr std::uint64_t kMaxStateSpaceSteps = 1u << 20;

/// The state-space engine: run the self-timed execution quiescent point
/// by quiescent point until a state recurs. `q` is the graph's
/// repetition vector.
ThroughputResult exploreStateSpace(const sdf::TimedGraph& timed,
                                   const ResourceConstraints* resources,
                                   const std::vector<std::uint64_t>& q) {
  const Graph& graph = timed.graph;
  ThroughputResult result;
  result.engine = ThroughputEngine::StateSpace;
  if (graph.actorCount() == 0) {
    result.status = ThroughputResult::Status::Deadlock;
    return result;
  }
  // Iterations are counted in completions of actor 0.
  const std::uint64_t qRef = q[0];

  // Divergence guard: self-timed execution of a graph that is not
  // strongly bounded (e.g. a fast producer feeding an unbounded
  // channel) accumulates tokens forever and never revisits a state.
  // Token counts above this threshold cannot occur in a recurrent
  // execution of a strongly-bounded graph of this size.
  std::uint64_t initialTotal = 0;
  std::uint64_t perIteration = 0;
  for (const Channel& c : graph.channels()) {
    initialTotal += c.initialTokens;
    perIteration += q[c.src] * c.prodRate;
  }
  const std::uint64_t divergenceThreshold = initialTotal + 64 * perIteration + 4096;

  SelfTimedExecution execution(graph, timed.maxConcurrent, resources);
  const auto cost = [&timed](ActorId a) { return timed.execTime[a]; };
  const auto done = [](ActorId) {};
  std::map<StateKey, Visit> seen;

  for (std::uint64_t step = 0; step < kMaxStateSpaceSteps; ++step) {
    // Quiescent point: start everything startable, complete all
    // zero-time work (which may enable more starts).
    if (!execution.settle(cost, done)) {
      result.status = ThroughputResult::Status::Unbounded;
      return result;
    }

    std::uint64_t totalTokens = 0;
    for (const std::uint64_t t : execution.tokens()) {
      totalTokens += t;
    }
    if (totalTokens > divergenceThreshold) {
      result.status = ThroughputResult::Status::Diverged;
      result.statesExplored = seen.size();
      return result;
    }

    if (!execution.active()) {
      result.status = ThroughputResult::Status::Deadlock;
      result.statesExplored = seen.size();
      return result;
    }

    const auto [visit, inserted] = seen.try_emplace(
        encodeState(execution, graph.actorCount()),
        Visit{execution.now(), execution.referenceCompletions()});
    if (!inserted) {
      const Visit& prev = visit->second;
      const std::uint64_t period = execution.now() - prev.time;
      const std::uint64_t completions = execution.referenceCompletions() - prev.completions;
      result.statesExplored = seen.size();
      result.periodCycles = period;
      if (period == 0) {
        // Cannot happen: time strictly advances between quiescent
        // snapshots once zero-time work is settled.
        result.status = ThroughputResult::Status::Unbounded;
        return result;
      }
      std::uint64_t cycles = 0;
      if (__builtin_mul_overflow(qRef, period, &cycles) ||
          cycles > static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max())) {
        throw AnalysisError("computeThroughput: a period of " + std::to_string(period) +
                            " cycles times q = " + std::to_string(qRef) +
                            " does not fit int64");
      }
      result.status = ThroughputResult::Status::Ok;
      result.iterationsPerCycle = Rational(static_cast<std::int64_t>(completions),
                                           static_cast<std::int64_t>(cycles));
      return result;
    }
    execution.advance();
  }
  result.status = ThroughputResult::Status::StepLimit;
  result.statesExplored = seen.size();
  return result;
}

/// Saturating accumulate for the HSDF-size estimate.
void saturatingAdd(std::uint64_t& total, std::uint64_t amount) {
  const std::uint64_t headroom = std::numeric_limits<std::uint64_t>::max() - total;
  total += std::min(amount, headroom);
}

/// Auto falls back to the state-space engine when hsdfSizeEstimate()
/// exceeds this many actors plus edges (guards against graphs whose
/// repetition vector explodes the expansion).
constexpr std::uint64_t kMaxMcrHsdfSize = 1'000'000;

/// Estimated HSDF expansion size (actors + edges), saturating.
std::uint64_t hsdfSizeEstimate(const sdf::TimedGraph& timed, const ResourceConstraints* resources,
                               const std::vector<std::uint64_t>& q) {
  std::uint64_t size = 0;
  for (ActorId a = 0; a < timed.graph.actorCount(); ++a) {
    saturatingAdd(size, q[a]);      // copies
    saturatingAdd(size, q[a] + 1);  // sequence edges (upper bound)
  }
  for (const Channel& c : timed.graph.channels()) {
    std::uint64_t tokenEdges = q[c.dst];
    if (c.consRate != 0 && tokenEdges <= std::numeric_limits<std::uint64_t>::max() / c.consRate) {
      tokenEdges *= c.consRate;
    } else {
      tokenEdges = std::numeric_limits<std::uint64_t>::max();
    }
    saturatingAdd(size, tokenEdges);
  }
  if (resources != nullptr) {
    for (const auto& order : resources->staticOrder) {
      saturatingAdd(size, order.size());
    }
  }
  return size;
}

/// The engine decision of computeThroughput and IncrementalThroughput,
/// made here and nowhere else: check the shapes, compute the repetition
/// vector once, and pick the engine. The state-space engine runs when
/// it is forced, or under Auto when the estimated expansion exceeds
/// kMaxMcrHsdfSize. Otherwise `flat` is built; a static order
/// it cannot encode sends Auto to the state-space engine and makes a
/// forced MCR engine throw. No self-concurrency limit forces the
/// state-space engine: the expansion encodes every finite limit.
/// @param q receives the repetition vector; nullopt when the graph is
///   inconsistent
/// @return true when the MCR engine runs on `flat`
bool decide(const sdf::TimedGraph& timed, const ResourceConstraints* resources,
            const ThroughputOptions& options, std::optional<std::vector<std::uint64_t>>& q,
            FlatExpansion& flat) {
  if (timed.execTime.size() != timed.graph.actorCount()) {
    throw AnalysisError("computeThroughput: execTime size does not match actor count");
  }
  if (resources != nullptr) {
    resources->validateFor(timed.graph);
  }
  q = sdf::computeRepetitionVector(timed.graph);
  if (!q || options.engine == ThroughputEngine::StateSpace ||
      (options.engine == ThroughputEngine::Auto &&
       hsdfSizeEstimate(timed, resources, *q) > kMaxMcrHsdfSize)) {
    return false;
  }
  if (flat.build(timed, resources, *q)) {
    return true;
  }
  if (options.engine == ThroughputEngine::Mcr) {
    throw AnalysisError(
        "computeThroughput: MCR engine not applicable: a static order does not cover exactly "
        "one iteration on its own resource");
  }
  return false;
}

/// The verdict of an analysis that decide() kept off the MCR engine:
/// Inconsistent when `q` is absent (attributed to the MCR engine when
/// it was forced), otherwise the state-space engine's, its run timed as
/// solveNanos.
ThroughputResult solveStateSpace(const sdf::TimedGraph& timed, const ResourceConstraints* resources,
                                 const std::optional<std::vector<std::uint64_t>>& q,
                                 const ThroughputOptions& options) {
  ThroughputResult result;
  if (!q) {
    result.status = ThroughputResult::Status::Inconsistent;
    result.engine = options.engine == ThroughputEngine::Mcr ? ThroughputEngine::Mcr
                                                            : ThroughputEngine::StateSpace;
    return result;
  }
  std::uint64_t solveNanos = 0;
  {
    support::ScopedTimer timer(solveNanos);
    result = exploreStateSpace(timed, resources, *q);
  }
  result.solveNanos = solveNanos;
  return result;
}

/// computeThroughput: decide, then solve. The decision's time, the
/// expansion's build included, is reported as expansionNanos.
ThroughputResult decideAndSolve(const sdf::TimedGraph& timed, const ResourceConstraints* resources,
                                const ThroughputOptions& options) {
  std::optional<std::vector<std::uint64_t>> q;
  FlatExpansion flat;
  std::uint64_t decisionNanos = 0;
  bool mcr = false;
  {
    support::ScopedTimer timer(decisionNanos);
    mcr = decide(timed, resources, options, q, flat);
  }
  if (!mcr) {
    return solveStateSpace(timed, resources, q, options);
  }
  CycleRatioSolver solver;
  ThroughputResult result = solveExpansion(flat, solver);
  result.expansionNanos = decisionNanos;
  return result;
}

}  // namespace

const char* throughputEngineName(ThroughputEngine engine) {
  switch (engine) {
    case ThroughputEngine::Auto:
      return "auto";
    case ThroughputEngine::StateSpace:
      return "state-space";
    case ThroughputEngine::Mcr:
      return "mcr";
  }
  return "unknown";
}

void ResourceConstraints::validateFor(const sdf::Graph& g) const {
  if (actorResource.size() != g.actorCount()) {
    throw AnalysisError("ResourceConstraints: actorResource size mismatch");
  }
  std::vector<std::uint64_t> appearances(g.actorCount(), 0);
  for (const auto& order : staticOrder) {
    for (const sdf::ActorId a : order) {
      if (a >= g.actorCount()) {
        throw AnalysisError("ResourceConstraints: schedule references unknown actor");
      }
      ++appearances[a];
    }
  }
  for (sdf::ActorId a = 0; a < g.actorCount(); ++a) {
    const std::uint32_t res = actorResource[a];
    if (res == kUnbound) {
      continue;
    }
    if (res >= staticOrder.size()) {
      throw AnalysisError("ResourceConstraints: resource id out of range");
    }
    if (appearances[a] == 0) {
      throw AnalysisError("ResourceConstraints: bound actor " + g.actor(a).name +
                          " missing from its static order");
    }
  }
}

ThroughputResult computeThroughput(const sdf::TimedGraph& timed, const ThroughputOptions& options) {
  return decideAndSolve(timed, nullptr, options);
}

ThroughputResult computeThroughput(const sdf::TimedGraph& timed,
                                   const ResourceConstraints& resources,
                                   const ThroughputOptions& options) {
  return decideAndSolve(timed, &resources, options);
}

IncrementalThroughput::IncrementalThroughput(const sdf::TimedGraph& timed,
                                             const ResourceConstraints* resources,
                                             const ThroughputOptions& options)
    // Whole-struct copy of the TimedGraph: every per-actor annotation
    // (execTime, maxConcurrent, future fields) is retained — see
    // TimedGraph::rebuildFrom for the field-by-field-rebuild hazard.
    : timed_(timed), options_(options) {
  if (resources != nullptr) {
    resources_ = *resources;
  }
  fastPath_ = decide(timed_, resources, options_, q_, flat_);
}

void IncrementalThroughput::setInitialTokens(sdf::ChannelId channel, std::uint64_t tokens) {
  if (channel >= timed_.graph.channelCount()) {
    throw AnalysisError("IncrementalThroughput::setInitialTokens: channel out of range");
  }
  if (timed_.graph.channel(channel).initialTokens == tokens) {
    return;
  }
  timed_.graph.setInitialTokens(channel, tokens);
  if (fastPath_) {
    flat_.patchChannel(timed_, channel);
  }
}

ThroughputResult IncrementalThroughput::compute() {
  if (fastPath_) {
    return solveExpansion(flat_, solver_);
  }
  return solveStateSpace(timed_, resources_ ? &*resources_ : nullptr, q_, options_);
}

}  // namespace mamps::analysis
