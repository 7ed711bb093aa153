// The self-timed execution of an SDF graph under static-order
// processor sharing: the one implementation of the firing rules in the
// analysis layer and the simulator. The state-space throughput engine
// (analysis/throughput.cpp, after Ghamarian et al. [3]), the platform
// simulator (sim/platform_sim.cpp), the deadlock check and the buffer
// probe (analysis/buffer.cpp) all run it. An actor starts a firing when
// it has budget left, is below its self-concurrency limit, its resource
// (if bound) is idle and at this actor's turn in the static order, and
// every input channel holds its consumption rate. A start consumes the
// input tokens, spends one unit of budget and occupies the resource;
// the output tokens appear and the resource is released when the
// firing completes (consume at start, produce at end).
//
// The cost is per event, not per instant: ongoing firings sit in a
// min-heap of completion times, and only the actors a completion can
// enable are re-checked (docs/throughput.md, "One executor for every
// token game", states the invariants that make this exact).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "analysis/throughput.hpp"
#include "sdf/graph.hpp"
#include "support/error.hpp"

namespace mamps::analysis {

/// One self-timed execution, advanced instant by instant: settle() fires
/// everything the current instant allows, advance() moves the clock to
/// the next completion. The resource constraints must outlive the
/// execution; the graph is read only by the constructor.
class SelfTimedExecution {
 public:
  /// The execution at cycle 0: the graph's initial tokens, nothing
  /// firing, every static order at its first entry, the whole budget
  /// left.
  /// @param graph the graph to execute (execution times are not read
  ///   here: each firing's time comes from the cost hook of settle())
  /// @param maxConcurrent per actor, how many firings may overlap (0 =
  ///   unlimited); empty serializes every actor, as in
  ///   TimedGraph::maxConcurrent
  /// @param resources the binding and static orders, already checked by
  ///   ResourceConstraints::validateFor(); null when no actor shares a
  ///   resource
  /// @param budget per actor, how many firings it may start; empty is a
  ///   budget that never runs out
  /// @throws AnalysisError when a non-empty `maxConcurrent` or `budget`
  ///   does not have one entry per actor
  SelfTimedExecution(const sdf::Graph& graph, std::span<const std::uint32_t> maxConcurrent,
                     const ResourceConstraints* resources,
                     std::span<const std::uint64_t> budget = {})
      : resources_(resources),
        actorCount_(graph.actorCount()),
        channelCount_(graph.channelCount()),
        limit_(maxConcurrent.empty()
                   ? std::vector<std::uint32_t>(actorCount_, 1)
                   : std::vector<std::uint32_t>(maxConcurrent.begin(), maxConcurrent.end())),
        resource_(resources != nullptr
                      ? resources->actorResource
                      : std::vector<std::uint32_t>(actorCount_, ResourceConstraints::kUnbound)),
        budget_(budget.empty()
                    ? std::vector<std::uint64_t>(actorCount_,
                                                 std::numeric_limits<std::uint64_t>::max())
                    : std::vector<std::uint64_t>(budget.begin(), budget.end())),
        firstPort_(actorCount_ + 1, 0),
        firstOutput_(actorCount_, 0),
        ongoing_(actorCount_, 0),
        marked_(actorCount_, 1),
        schedulePos_(resources != nullptr ? resources->staticOrder.size() : 0, 0),
        resourceBusy_(schedulePos_.size(), 0) {
    if (limit_.size() != actorCount_ || budget_.size() != actorCount_) {
      throw AnalysisError("self-timed execution: a per-actor vector has the wrong size");
    }
    ports_.reserve(2 * channelCount_);
    worklist_.reserve(actorCount_);
    tokens_.reserve(channelCount_);
    for (sdf::ActorId a = 0; a < actorCount_; ++a) {
      for (const sdf::ChannelId c : graph.actor(a).inputs) {
        ports_.push_back({c, graph.channel(c).consRate, graph.channel(c).src});
      }
      firstOutput_[a] = static_cast<std::uint32_t>(ports_.size());
      for (const sdf::ChannelId c : graph.actor(a).outputs) {
        ports_.push_back({c, graph.channel(c).prodRate, graph.channel(c).dst});
      }
      firstPort_[a + 1] = static_cast<std::uint32_t>(ports_.size());
      worklist_.push_back(a);
    }
    for (const sdf::Channel& c : graph.channels()) {
      tokens_.push_back(c.initialTokens);
    }
  }

  /// Settle the current instant: start every enabled firing and retire
  /// every firing that completes now, until nothing changes. Each round
  /// starts the marked actors in ascending id (`while (ready(a))
  /// start(a)`), then retires the completions at now() in (actor id,
  /// start order). A zero-time cycle of the graph never settles; it is
  /// cut off after 4096 + 64·(A+1)·(C+1) starts plus retirements in one
  /// instant (A actors, C channels).
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
    const std::uint64_t bound = 4096 + 64 * (actorCount_ + 1) * (channelCount_ + 1);
    std::uint64_t work = 0;
    for (;;) {
      // A start never enables another actor, so one ascending pass over
      // the marked actors starts everything this round allows.
      std::sort(worklist_.begin(), worklist_.end());
      for (const sdf::ActorId a : worklist_) {
        marked_[a] = 0;
        while (ready(a)) {
          start(a, cost);
          if (++work > bound) {
            return false;
          }
        }
      }
      worklist_.clear();
      if (heap_.empty() || timeOf(heap_.front()) != now_) {
        return true;
      }
      while (!heap_.empty() && timeOf(heap_.front()) == now_) {
        const sdf::ActorId a = actorOf(heap_.front());
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
        heap_.pop_back();
        complete(a);
        done(a);
        if (++work > bound) {
          return false;
        }
      }
    }
  }

  /// Move the clock to the earliest completion of an ongoing firing.
  /// The firings that complete then are retired by the next settle().
  /// Call only while active().
  /// @throws AnalysisError when the clock would pass 2^64 cycles
  void advance() {
    const Completion next = timeOf(heap_.front());
    if (next > std::numeric_limits<std::uint64_t>::max()) {
      throw AnalysisError("self-timed execution: time exceeds 2^64 cycles");
    }
    now_ = static_cast<std::uint64_t>(next);
  }

  /// Is any firing ongoing?
  /// @return true when some actor has a firing in progress
  [[nodiscard]] bool active() const { return !heap_.empty(); }

  /// @return the tokens per channel, indexed by ChannelId
  [[nodiscard]] const std::vector<std::uint64_t>& tokens() const { return tokens_; }
  /// @return per actor, the firings it may still start
  [[nodiscard]] const std::vector<std::uint64_t>& budget() const { return budget_; }
  /// Append, per actor, the number of ongoing firings and then their
  /// remaining cycles in ascending order: the firing part of a state
  /// key.
  /// @param key the key to extend
  void appendRemaining(std::vector<std::uint64_t>& key) const {
    byActor_.assign(heap_.begin(), heap_.end());
    std::sort(byActor_.begin(), byActor_.end(), [](Completion x, Completion y) {
      return std::pair(actorOf(x), x) < std::pair(actorOf(y), y);
    });
    auto next = byActor_.begin();
    for (sdf::ActorId a = 0; a < actorCount_; ++a) {
      key.push_back(ongoing_[a]);
      for (; next != byActor_.end() && actorOf(*next) == a; ++next) {
        key.push_back(static_cast<std::uint64_t>(timeOf(*next) - now_));
      }
    }
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
  // One ongoing firing: its completion time above bit 32, its actor
  // below, so that the earliest completion compares smallest, ties by
  // actor id. Times are kept past 2^64 (a start at most 2^64 - 1 cycles
  // after a clock below 2^64 ends before 2^65), so that advance(), not
  // the start, reports a clock overflow.
  using Completion = unsigned __int128;

  struct Port {
    sdf::ChannelId channel;
    std::uint32_t rate;  // consumption rate of an input, production rate of an output
    sdf::ActorId peer;   // producer of an input, consumer of an output
  };

  static Completion timeOf(Completion c) { return c >> 32; }
  static sdf::ActorId actorOf(Completion c) { return static_cast<sdf::ActorId>(c); }

  [[nodiscard]] std::span<const Port> inputs(sdf::ActorId a) const {
    return {ports_.data() + firstPort_[a], ports_.data() + firstOutput_[a]};
  }
  [[nodiscard]] std::span<const Port> outputs(sdf::ActorId a) const {
    return {ports_.data() + firstOutput_[a], ports_.data() + firstPort_[a + 1]};
  }

  void mark(sdf::ActorId a) {
    if (marked_[a] == 0) {
      marked_[a] = 1;
      worklist_.push_back(a);
    }
  }

  [[nodiscard]] bool ready(sdf::ActorId a) const {
    if (budget_[a] == 0 || (limit_[a] != 0 && ongoing_[a] >= limit_[a])) {
      return false;
    }
    const std::uint32_t res = resource_[a];
    if (res != ResourceConstraints::kUnbound &&
        (resourceBusy_[res] != 0 || resources_->staticOrder[res][schedulePos_[res]] != a)) {
      return false;
    }
    const std::span<const Port> in = inputs(a);
    return std::all_of(in.begin(), in.end(),
                       [this](const Port& p) { return tokens_[p.channel] >= p.rate; });
  }

  template <typename Cost>
  void start(sdf::ActorId a, Cost& cost) {
    for (const Port& p : inputs(a)) {
      tokens_[p.channel] -= p.rate;
    }
    --budget_[a];
    ++ongoing_[a];
    heap_.push_back(((Completion{now_} + cost(a)) << 32) | a);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    const std::uint32_t res = resource_[a];
    if (res != ResourceConstraints::kUnbound) {
      ++resourceBusy_[res];
      std::uint32_t& pos = schedulePos_[res];
      pos = pos + 1 == resources_->staticOrder[res].size() ? 0 : pos + 1;
    }
  }

  // Retire a's earliest firing and mark every actor it can enable: a
  // itself, the consumers of its outputs, and the next actor in the
  // static order of the resource it releases.
  void complete(sdf::ActorId a) {
    --ongoing_[a];
    mark(a);
    for (const Port& p : outputs(a)) {
      tokens_[p.channel] += p.rate;
      mark(p.peer);
    }
    const std::uint32_t res = resource_[a];
    if (res != ResourceConstraints::kUnbound) {
      --resourceBusy_[res];
      mark(resources_->staticOrder[res][schedulePos_[res]]);
    }
    if (a == 0) {
      ++referenceCompletions_;
    }
  }

  const ResourceConstraints* resources_;
  std::size_t actorCount_;
  std::size_t channelCount_;
  std::vector<std::uint32_t> limit_;         // per actor; 0 = unlimited
  std::vector<std::uint32_t> resource_;      // per actor; kUnbound = own resource
  std::vector<std::uint64_t> budget_;        // per actor, starts left
  std::vector<Port> ports_;                  // per actor: inputs, then outputs
  std::vector<std::uint32_t> firstPort_;     // per actor, then the end of ports_
  std::vector<std::uint32_t> firstOutput_;   // per actor
  std::vector<std::uint64_t> tokens_;        // per channel
  std::vector<std::uint32_t> ongoing_;       // per actor, firings in progress
  std::vector<Completion> heap_;             // every ongoing firing, min-heap
  mutable std::vector<Completion> byActor_;  // appendRemaining()'s sorted copy of heap_
  std::vector<sdf::ActorId> worklist_;       // the marked actors
  std::vector<std::uint8_t> marked_;         // per actor, 1 = in worklist_
  std::vector<std::uint32_t> schedulePos_;   // per resource
  std::vector<std::uint32_t> resourceBusy_;  // per resource
  std::uint64_t now_ = 0;
  std::uint64_t referenceCompletions_ = 0;
};

}  // namespace mamps::analysis
