#include "analysis/throughput.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "analysis/mcm.hpp"
#include "sdf/repetition_vector.hpp"
#include "support/timer.hpp"

namespace mamps::analysis {
namespace {

using sdf::ActorId;
using sdf::Channel;
using sdf::ChannelId;
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

class Simulator {
 public:
  Simulator(const sdf::TimedGraph& timed, const ThroughputOptions& options,
            const ResourceConstraints* resources)
      : graph_(timed.graph),
        execTime_(timed.execTime),
        concurrency_(timed.maxConcurrent),
        options_(options),
        resources_(resources) {
    tokens_.resize(graph_.channelCount());
    for (ChannelId c = 0; c < graph_.channelCount(); ++c) {
      tokens_[c] = graph_.channel(c).initialTokens;
    }
    remaining_.resize(graph_.actorCount());
    if (resources_ != nullptr) {
      schedulePos_.resize(resources_->staticOrder.size(), 0);
      resourceBusy_.resize(resources_->staticOrder.size(), 0);
    }
  }

  ThroughputResult run() {
    std::uint64_t solveNanos = 0;
    ThroughputResult result;
    {
      support::ScopedTimer timer(solveNanos);
      result = runImpl();
    }
    result.solveNanos = solveNanos;
    return result;
  }

 private:
  ThroughputResult runImpl() {
    ThroughputResult result;
    result.engine = ThroughputEngine::StateSpace;
    const auto qOpt = sdf::computeRepetitionVector(graph_);
    if (!qOpt) {
      result.status = ThroughputResult::Status::Inconsistent;
      return result;
    }
    if (graph_.actorCount() == 0) {
      result.status = ThroughputResult::Status::Deadlock;
      return result;
    }
    const std::uint64_t qRef = (*qOpt)[kReferenceActor];

    // Divergence guard: self-timed execution of a graph that is not
    // strongly bounded (e.g. a fast producer feeding an unbounded
    // channel) accumulates tokens forever and never revisits a state.
    // Token counts above this threshold cannot occur in a recurrent
    // execution of a strongly-bounded graph of this size.
    std::uint64_t initialTotal = 0;
    for (const Channel& c : graph_.channels()) {
      initialTotal += c.initialTokens;
    }
    std::uint64_t perIteration = 0;
    for (const Channel& c : graph_.channels()) {
      perIteration += (*qOpt)[c.src] * c.prodRate;
    }
    const std::uint64_t divergenceThreshold = initialTotal + 64 * perIteration + 4096;

    std::map<StateKey, Visit> seen;
    std::uint64_t pruned = 0;
    const std::uint64_t storeLimit = std::max<std::uint64_t>(options_.maxStoredStates, 16);

    for (std::uint64_t step = 0; step < options_.maxSteps; ++step) {
      // Quiescent point: start everything startable, complete all
      // zero-time work (which may enable more starts).
      if (!settleInstant()) {
        result.status = ThroughputResult::Status::Unbounded;
        return result;
      }

      std::uint64_t totalTokens = 0;
      for (const std::uint64_t t : tokens_) {
        totalTokens += t;
      }
      if (totalTokens > divergenceThreshold) {
        result.status = ThroughputResult::Status::Diverged;
        result.statesExplored = seen.size() + pruned;
        return result;
      }

      const bool anyOngoing = std::any_of(remaining_.begin(), remaining_.end(),
                                          [](const auto& r) { return !r.empty(); });
      if (!anyOngoing) {
        result.status = ThroughputResult::Status::Deadlock;
        result.statesExplored = seen.size() + pruned;
        return result;
      }

      const auto [visit, inserted] =
          seen.try_emplace(encodeState(), Visit{now_, refCompletions_, step});
      if (!inserted) {
        const Visit& prev = visit->second;
        const std::uint64_t period = now_ - prev.time;
        const std::uint64_t completions = refCompletions_ - prev.completions;
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

      advanceTime();
    }
    result.status = ThroughputResult::Status::StepLimit;
    result.statesExplored = seen.size() + pruned;
    return result;
  }

 private:
  static constexpr ActorId kReferenceActor = 0;

  [[nodiscard]] StateKey encodeState() const {
    StateKey key;
    key.reserve(tokens_.size() + 2 * graph_.actorCount() + schedulePos_.size());
    key.assign(tokens_.begin(), tokens_.end());
    for (const auto& r : remaining_) {
      key.push_back(r.size());
      key.insert(key.end(), r.begin(), r.end());
    }
    key.insert(key.end(), schedulePos_.begin(), schedulePos_.end());
    return key;
  }

  [[nodiscard]] std::uint32_t resourceOf(ActorId a) const {
    if (resources_ == nullptr || a >= resources_->actorResource.size()) {
      return ResourceConstraints::kUnbound;
    }
    return resources_->actorResource[a];
  }

  [[nodiscard]] bool isReady(ActorId a) const {
    if (!options_.autoConcurrency) {
      const std::uint32_t limit = concurrency_.empty() ? 1 : concurrency_[a];
      if (limit != 0 && remaining_[a].size() >= limit) {
        return false;
      }
    }
    const std::uint32_t res = resourceOf(a);
    if (res != ResourceConstraints::kUnbound) {
      // The processing element must be idle and it must be this actor's
      // turn in the static order.
      if (resourceBusy_[res] != 0) {
        return false;
      }
      const auto& order = resources_->staticOrder[res];
      if (order[schedulePos_[res]] != a) {
        return false;
      }
    }
    for (const ChannelId c : graph_.actor(a).inputs) {
      if (tokens_[c] < graph_.channel(c).consRate) {
        return false;
      }
    }
    return true;
  }

  void startFiring(ActorId a) {
    for (const ChannelId c : graph_.actor(a).inputs) {
      tokens_[c] -= graph_.channel(c).consRate;
    }
    auto& r = remaining_[a];
    r.insert(std::upper_bound(r.begin(), r.end(), execTime_[a]), execTime_[a]);
    const std::uint32_t res = resourceOf(a);
    if (res != ResourceConstraints::kUnbound) {
      ++resourceBusy_[res];
      schedulePos_[res] = (schedulePos_[res] + 1) % resources_->staticOrder[res].size();
    }
  }

  void completeFiring(ActorId a, std::size_t slot) {
    remaining_[a].erase(remaining_[a].begin() + static_cast<std::ptrdiff_t>(slot));
    for (const ChannelId c : graph_.actor(a).outputs) {
      tokens_[c] += graph_.channel(c).prodRate;
    }
    const std::uint32_t res = resourceOf(a);
    if (res != ResourceConstraints::kUnbound) {
      --resourceBusy_[res];
    }
    if (a == kReferenceActor) {
      ++refCompletions_;
    }
  }

  /// Start all enabled firings and retire all zero-time firings until
  /// the instant is stable. Returns false when a zero-delay livelock is
  /// detected (unbounded throughput).
  bool settleInstant() {
    // Each retired zero-time firing and each start makes progress; a
    // bound of firingsPerInstantCap breaks zero-delay cycles.
    const std::uint64_t cap =
        4096 + 64 * (graph_.actorCount() + 1) * (graph_.channelCount() + 1);
    std::uint64_t work = 0;
    bool changed = true;
    while (changed) {
      changed = false;
      for (ActorId a = 0; a < graph_.actorCount(); ++a) {
        while (isReady(a)) {
          startFiring(a);
          changed = true;
          if (++work > cap) {
            return false;
          }
          if (!options_.autoConcurrency) {
            break;
          }
        }
      }
      for (ActorId a = 0; a < graph_.actorCount(); ++a) {
        auto& r = remaining_[a];
        while (!r.empty() && r.front() == 0) {
          completeFiring(a, 0);
          changed = true;
          if (++work > cap) {
            return false;
          }
        }
      }
    }
    return true;
  }

  void advanceTime() {
    std::uint64_t delta = std::numeric_limits<std::uint64_t>::max();
    for (const auto& r : remaining_) {
      if (!r.empty()) {
        delta = std::min(delta, r.front());
      }
    }
    if (__builtin_add_overflow(now_, delta, &now_)) {
      throw AnalysisError("computeThroughput: state-space time exceeds 2^64 cycles");
    }
    for (auto& r : remaining_) {
      for (auto& v : r) {
        v -= delta;
      }
    }
    // Zero-time completions are retired by the next settleInstant().
  }

  const Graph& graph_;
  const std::vector<std::uint64_t>& execTime_;
  const std::vector<std::uint32_t>& concurrency_;
  ThroughputOptions options_;
  const ResourceConstraints* resources_;
  std::vector<std::uint32_t> resourceBusy_;  // ongoing firings per resource
  std::vector<std::uint64_t> tokens_;                  // per channel
  std::vector<std::vector<std::uint64_t>> remaining_;  // per actor, sorted
  std::vector<std::uint32_t> schedulePos_;             // per resource
  std::uint64_t now_ = 0;
  std::uint64_t refCompletions_ = 0;
};

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

  Simulator sim(timed, options, resources);
  return sim.run();
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
