// The self-timed execution of a timed SDF graph under static-order
// processor sharing: the one implementation of the firing rules, run by
// both the state-space throughput engine (analysis/throughput.cpp,
// after Ghamarian et al. [3]) and the platform simulator
// (sim/platform_sim.cpp). An actor starts a firing when it is below its
// self-concurrency limit, its resource (if bound) is idle and at this
// actor's turn in the static order, and every input channel holds its
// consumption rate. A start consumes the input tokens and occupies the
// resource; the output tokens appear and the resource is released when
// the firing completes (consume at start, produce at end).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "analysis/throughput.hpp"
#include "sdf/graph.hpp"
#include "support/error.hpp"

namespace mamps::analysis {

/// One self-timed execution, advanced instant by instant: settle() fires
/// everything the current instant allows, advance() moves the clock to
/// the next completion. The graph and the resource constraints must
/// outlive the execution.
class SelfTimedExecution {
 public:
  /// The execution at cycle 0: the graph's initial tokens, nothing
  /// firing, every static order at its first entry.
  /// @param timed the graph and its self-concurrency limits (execution
  ///   times are not read here: each firing's time comes from the cost
  ///   hook of settle())
  /// @param resources the binding and static orders, already checked by
  ///   ResourceConstraints::validateFor(); null when no actor shares a
  ///   resource
  /// @param autoConcurrency lift every self-concurrency limit
  SelfTimedExecution(const sdf::TimedGraph& timed, const ResourceConstraints* resources,
                     bool autoConcurrency = false)
      : graph_(timed.graph),
        resources_(resources),
        limit_(graph_.actorCount(), 0),
        resource_(resources != nullptr ? resources->actorResource
                                       : std::vector<std::uint32_t>(
                                             graph_.actorCount(), ResourceConstraints::kUnbound)),
        remaining_(graph_.actorCount()),
        schedulePos_(resources != nullptr ? resources->staticOrder.size() : 0, 0),
        resourceBusy_(schedulePos_.size(), 0) {
    if (!autoConcurrency) {
      for (sdf::ActorId a = 0; a < graph_.actorCount(); ++a) {
        limit_[a] = timed.concurrencyLimit(a);
      }
    }
    for (const sdf::Channel& c : graph_.channels()) {
      tokens_.push_back(c.initialTokens);
    }
  }

  /// Settle the current instant: start every enabled firing and retire
  /// every firing with no time left, until nothing changes. A zero-time
  /// cycle of the graph never settles; it is cut off after
  /// 4096 + 64·(A+1)·(C+1) starts plus retirements in one instant (A
  /// actors, C channels).
  /// @tparam Cost callable `std::uint64_t(sdf::ActorId)`
  /// @tparam Done callable `void(sdf::ActorId)`
  /// @param cost called once per start, after the input tokens are
  ///   consumed; returns the firing's time in cycles
  /// @param done called once per completion, after the output tokens
  ///   are produced
  /// @return false when the instant hit the bound (a zero-time
  ///   livelock), true when it settled
  template <typename Cost, typename Done>
  [[nodiscard]] bool settle(Cost&& cost, Done&& done) {
    const std::uint64_t bound =
        4096 + 64 * (graph_.actorCount() + 1) * (graph_.channelCount() + 1);
    std::uint64_t work = 0;
    bool changed = true;
    while (changed) {
      changed = false;
      for (sdf::ActorId a = 0; a < graph_.actorCount(); ++a) {
        while (ready(a)) {
          start(a, cost);
          changed = true;
          if (++work > bound) {
            return false;
          }
        }
      }
      for (sdf::ActorId a = 0; a < graph_.actorCount(); ++a) {
        while (!remaining_[a].empty() && remaining_[a].front() == 0) {
          complete(a);
          done(a);
          changed = true;
          if (++work > bound) {
            return false;
          }
        }
      }
    }
    return true;
  }

  /// Move the clock to the earliest completion of an ongoing firing.
  /// The firings that complete then are retired by the next settle().
  /// Call only while active().
  /// @throws AnalysisError when the clock would pass 2^64 cycles
  void advance() {
    std::uint64_t delta = std::numeric_limits<std::uint64_t>::max();
    for (const auto& r : remaining_) {
      if (!r.empty()) {
        delta = std::min(delta, r.front());
      }
    }
    if (__builtin_add_overflow(now_, delta, &now_)) {
      throw AnalysisError("self-timed execution: time exceeds 2^64 cycles");
    }
    for (auto& r : remaining_) {
      for (auto& v : r) {
        v -= delta;
      }
    }
  }

  /// Is any firing ongoing?
  /// @return true when some actor has a firing in progress
  [[nodiscard]] bool active() const {
    return std::any_of(remaining_.begin(), remaining_.end(),
                       [](const auto& r) { return !r.empty(); });
  }

  /// @return the tokens per channel, indexed by ChannelId
  [[nodiscard]] const std::vector<std::uint64_t>& tokens() const { return tokens_; }
  /// @return per actor, the remaining cycles of each ongoing firing,
  ///   ascending
  [[nodiscard]] const std::vector<std::vector<std::uint64_t>>& remaining() const {
    return remaining_;
  }
  /// @return per resource, the index of the next entry of its static
  ///   order (empty without resource constraints)
  [[nodiscard]] const std::vector<std::uint32_t>& schedulePositions() const {
    return schedulePos_;
  }
  /// @return the clock: the current instant, in cycles since the start
  [[nodiscard]] std::uint64_t now() const { return now_; }
  /// @return the completed firings of actor 0, the reference for
  ///   counting iterations
  [[nodiscard]] std::uint64_t referenceCompletions() const { return referenceCompletions_; }

 private:
  [[nodiscard]] bool ready(sdf::ActorId a) const {
    if (limit_[a] != 0 && remaining_[a].size() >= limit_[a]) {
      return false;
    }
    const std::uint32_t res = resource_[a];
    if (res != ResourceConstraints::kUnbound &&
        (resourceBusy_[res] != 0 || resources_->staticOrder[res][schedulePos_[res]] != a)) {
      return false;
    }
    for (const sdf::ChannelId c : graph_.actor(a).inputs) {
      if (tokens_[c] < graph_.channel(c).consRate) {
        return false;
      }
    }
    return true;
  }

  template <typename Cost>
  void start(sdf::ActorId a, Cost& cost) {
    for (const sdf::ChannelId c : graph_.actor(a).inputs) {
      tokens_[c] -= graph_.channel(c).consRate;
    }
    const std::uint64_t time = cost(a);
    auto& r = remaining_[a];
    r.insert(std::upper_bound(r.begin(), r.end(), time), time);
    const std::uint32_t res = resource_[a];
    if (res != ResourceConstraints::kUnbound) {
      ++resourceBusy_[res];
      schedulePos_[res] = (schedulePos_[res] + 1) % resources_->staticOrder[res].size();
    }
  }

  void complete(sdf::ActorId a) {
    remaining_[a].erase(remaining_[a].begin());
    for (const sdf::ChannelId c : graph_.actor(a).outputs) {
      tokens_[c] += graph_.channel(c).prodRate;
    }
    const std::uint32_t res = resource_[a];
    if (res != ResourceConstraints::kUnbound) {
      --resourceBusy_[res];
    }
    if (a == 0) {
      ++referenceCompletions_;
    }
  }

  const sdf::Graph& graph_;
  const ResourceConstraints* resources_;
  std::vector<std::uint32_t> limit_;     // per actor; 0 = unlimited
  std::vector<std::uint32_t> resource_;  // per actor; kUnbound = own resource
  std::vector<std::uint64_t> tokens_;                  // per channel
  std::vector<std::vector<std::uint64_t>> remaining_;  // per actor, ascending
  std::vector<std::uint32_t> schedulePos_;             // per resource
  std::vector<std::uint32_t> resourceBusy_;            // per resource
  std::uint64_t now_ = 0;
  std::uint64_t referenceCompletions_ = 0;
};

}  // namespace mamps::analysis
