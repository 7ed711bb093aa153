#include "analysis/throughput.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <vector>

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
  std::uint64_t step = 0;
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

/// The state-space engine: run the self-timed execution quiescent point
/// by quiescent point until a state recurs.
ThroughputResult exploreStateSpace(const sdf::TimedGraph& timed,
                                   const ResourceConstraints* resources,
                                   const ThroughputOptions& options) {
  const Graph& graph = timed.graph;
  ThroughputResult result;
  result.engine = ThroughputEngine::StateSpace;
  const auto qOpt = sdf::computeRepetitionVector(graph);
  if (!qOpt) {
    result.status = ThroughputResult::Status::Inconsistent;
    return result;
  }
  if (graph.actorCount() == 0) {
    result.status = ThroughputResult::Status::Deadlock;
    return result;
  }
  // Iterations are counted in completions of actor 0.
  const std::uint64_t qRef = (*qOpt)[0];

  // Divergence guard: self-timed execution of a graph that is not
  // strongly bounded (e.g. a fast producer feeding an unbounded
  // channel) accumulates tokens forever and never revisits a state.
  // Token counts above this threshold cannot occur in a recurrent
  // execution of a strongly-bounded graph of this size.
  std::uint64_t initialTotal = 0;
  std::uint64_t perIteration = 0;
  for (const Channel& c : graph.channels()) {
    initialTotal += c.initialTokens;
    perIteration += (*qOpt)[c.src] * c.prodRate;
  }
  const std::uint64_t divergenceThreshold = initialTotal + 64 * perIteration + 4096;

  SelfTimedExecution execution(timed, resources, options.autoConcurrency);
  const auto cost = [&timed](ActorId a) { return timed.execTime[a]; };
  const auto done = [](ActorId) {};
  std::map<StateKey, Visit> seen;
  std::uint64_t pruned = 0;
  const std::uint64_t storeLimit = std::max<std::uint64_t>(options.maxStoredStates, 16);

  for (std::uint64_t step = 0; step < options.maxSteps; ++step) {
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
      result.statesExplored = seen.size() + pruned;
      return result;
    }

    if (!execution.active()) {
      result.status = ThroughputResult::Status::Deadlock;
      result.statesExplored = seen.size() + pruned;
      return result;
    }

    const auto [visit, inserted] = seen.try_emplace(
        encodeState(execution, graph.actorCount()),
        Visit{execution.now(), execution.referenceCompletions(), step});
    if (!inserted) {
      const Visit& prev = visit->second;
      const std::uint64_t period = execution.now() - prev.time;
      const std::uint64_t completions = execution.referenceCompletions() - prev.completions;
      result.statesExplored = seen.size() + pruned;
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

    // Prefix pruning: the oldest stored states belong to the transient
    // prefix (or to laps of the periodic phase that have younger
    // equivalents). Dropping them keeps memory bounded; as long as the
    // periodic phase fits in the retained window (~storeLimit/2 steps)
    // a younger copy of a periodic state is revisited and detection
    // still occurs. A period longer than the window ends in StepLimit —
    // raise maxStoredStates for such graphs.
    if (seen.size() > storeLimit) {
      const std::uint64_t watermark = step - storeLimit / 2;
      pruned += std::erase_if(seen,
                              [&](const auto& entry) { return entry.second.step < watermark; });
    }

    execution.advance();
  }
  result.status = ThroughputResult::Status::StepLimit;
  result.statesExplored = seen.size() + pruned;
  return result;
}

/// Saturating accumulate for the HSDF-size estimate.
void saturatingAdd(std::uint64_t& total, std::uint64_t amount) {
  const std::uint64_t headroom = std::numeric_limits<std::uint64_t>::max() - total;
  total += std::min(amount, headroom);
}

/// Can the MCR fast path reproduce the state-space semantics exactly?
/// (Shared by Auto selection and forced-Mcr validation; `reason` names
/// the first violated precondition.)
bool mcrRepresentable(const sdf::TimedGraph& timed, const ResourceConstraints* resources,
                      const ThroughputOptions& options, const std::vector<std::uint64_t>& q,
                      const char** reason) {
  if (options.autoConcurrency) {
    *reason = "auto-concurrency requires the state-space engine";
    return false;
  }
  // Every finite self-concurrency limit (including limits > 1) is
  // encoded exactly by the HSDF expansion as a virtual k-token
  // self-edge; limit-0 actors are unconstrained. No limit forces the
  // state-space engine.
  if (resources != nullptr) {
    std::vector<std::uint64_t> appearances(timed.graph.actorCount(), 0);
    for (std::size_t r = 0; r < resources->staticOrder.size(); ++r) {
      for (const ActorId a : resources->staticOrder[r]) {
        if (resources->actorResource[a] != r) {
          *reason = "static order schedules an actor on a foreign resource";
          return false;
        }
        ++appearances[a];
      }
    }
    for (ActorId a = 0; a < timed.graph.actorCount(); ++a) {
      if (resources->actorResource[a] != ResourceConstraints::kUnbound &&
          appearances[a] != q[a]) {
        // The schedule-to-firing-copy mapping is only exact when the
        // cyclic order covers exactly one graph iteration.
        *reason = "static order does not cover exactly one iteration";
        return false;
      }
    }
  }
  return true;
}

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

ThroughputResult dispatch(const sdf::TimedGraph& timed, const ResourceConstraints* resources,
                          const ThroughputOptions& options) {
  if (timed.execTime.size() != timed.graph.actorCount()) {
    throw AnalysisError("computeThroughput: execTime size does not match actor count");
  }
  if (resources != nullptr) {
    resources->validateFor(timed.graph);
  }

  if (options.engine != ThroughputEngine::StateSpace) {
    const auto qOpt = sdf::computeRepetitionVector(timed.graph);
    if (!qOpt) {
      ThroughputResult result;
      result.status = ThroughputResult::Status::Inconsistent;
      result.engine = options.engine == ThroughputEngine::Mcr ? ThroughputEngine::Mcr
                                                              : ThroughputEngine::StateSpace;
      return result;
    }
    const char* reason = nullptr;
    const bool representable = mcrRepresentable(timed, resources, options, *qOpt, &reason);
    if (options.engine == ThroughputEngine::Mcr) {
      if (!representable) {
        throw AnalysisError(std::string("computeThroughput: MCR engine not applicable: ") +
                            reason);
      }
      return computeThroughputMcr(timed, resources);
    }
    // Auto: take the fast path when it is exact and the expansion stays
    // reasonably sized.
    if (representable &&
        hsdfSizeEstimate(timed, resources, *qOpt) <= options.maxMcrHsdfSize) {
      return computeThroughputMcr(timed, resources);
    }
  }

  std::uint64_t solveNanos = 0;
  ThroughputResult result;
  {
    support::ScopedTimer timer(solveNanos);
    result = exploreStateSpace(timed, resources, options);
  }
  result.solveNanos = solveNanos;
  return result;
}

}  // namespace

bool mcrFastPathApplicable(const sdf::TimedGraph& timed, const ResourceConstraints* resources,
                           const ThroughputOptions& options, const char** reason) {
  const char* local = nullptr;
  const char** out = reason != nullptr ? reason : &local;
  const auto qOpt = sdf::computeRepetitionVector(timed.graph);
  if (!qOpt) {
    *out = "inconsistent graph";
    return false;
  }
  if (!mcrRepresentable(timed, resources, options, *qOpt, out)) {
    return false;
  }
  if (hsdfSizeEstimate(timed, resources, *qOpt) > options.maxMcrHsdfSize) {
    *out = "estimated HSDF expansion exceeds maxMcrHsdfSize";
    return false;
  }
  return true;
}

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
  return dispatch(timed, nullptr, options);
}

ThroughputResult computeThroughput(const sdf::TimedGraph& timed,
                                   const ResourceConstraints& resources,
                                   const ThroughputOptions& options) {
  return dispatch(timed, &resources, options);
}

}  // namespace mamps::analysis
