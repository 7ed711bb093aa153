#include "analysis/flat_hsdf.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "sdf/hsdf.hpp"
#include "sdf/repetition_vector.hpp"
#include "support/timer.hpp"

namespace mamps::analysis {

using sdf::ActorId;
using sdf::Channel;
using sdf::ChannelId;

constexpr auto kInt64Max = static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());

void FlatExpansion::build(const sdf::TimedGraph& timed, const ResourceConstraints* resources) {
  const sdf::Graph& g = timed.graph;
  if (timed.execTime.size() != g.actorCount()) {
    throw AnalysisError("FlatExpansion: execTime size does not match actor count");
  }
  const auto qOpt = sdf::computeRepetitionVector(g);
  if (!qOpt) {
    throw AnalysisError("FlatExpansion: graph '" + g.name() + "' is inconsistent");
  }
  q_ = *qOpt;

  copyStart_.resize(g.actorCount());
  hsdfActors_ = 0;
  for (ActorId a = 0; a < g.actorCount(); ++a) {
    // Every edge weight is some actor's execution time.
    if (timed.execTime[a] > kInt64Max) {
      throw AnalysisError("FlatExpansion: execution time of actor " + g.actor(a).name +
                          " exceeds INT64_MAX");
    }
    copyStart_[a] = static_cast<std::uint32_t>(hsdfActors_);
    hsdfActors_ += q_[a];
  }

  // Channel token slabs: one edge per token consumed within an
  // iteration. Slab extents depend only on rates and the repetition
  // vector, so they are immutable; the edges inside a slab depend on
  // the channel's initial tokens and are (re-)encoded by patchChannel.
  slabOffset_.assign(g.channelCount(), 0);
  std::size_t total = 0;
  for (ChannelId c = 0; c < g.channelCount(); ++c) {
    slabOffset_[c] = total;
    total += q_[g.channel(c).dst] * g.channel(c).consRate;
  }
  edges_.clear();
  edges_.resize(total);
  for (ChannelId c = 0; c < g.channelCount(); ++c) {
    patchChannel(timed, c);
  }

  // Self-concurrency constraints: an actor with finite limit k gets the
  // expansion of a virtual rate-1 self-edge carrying k tokens. These
  // edges never change.
  for (ActorId a = 0; a < g.actorCount(); ++a) {
    const std::uint64_t limit = timed.concurrencyLimit(a);
    if (limit == 0) {
      continue;
    }
    for (std::uint64_t j = 0; j < q_[a]; ++j) {
      const sdf::TokenDependency dep = sdf::hsdfTokenDependency(j, limit, 1, q_[a]);
      CycleRatioEdge e;
      e.from = copyStart_[a] + static_cast<std::uint32_t>(dep.srcCopy);
      e.to = copyStart_[a] + static_cast<std::uint32_t>(j);
      e.weight = static_cast<std::int64_t>(timed.execTime[a]);
      e.delay = static_cast<std::int64_t>(dep.delay);
      edges_.push_back(e);
    }
  }

  // Static-order chains: the j-th appearance of an actor is its firing
  // copy j; consecutive appearances are linked, the wrap-around edge
  // carries one token. The encoding is only exact when every bound
  // actor appears exactly q[a] times on its own resource — validated
  // here.
  if (resources != nullptr) {
    resources->validateFor(g);
    std::vector<std::uint64_t> appearance(g.actorCount(), 0);
    for (std::size_t r = 0; r < resources->staticOrder.size(); ++r) {
      const auto& order = resources->staticOrder[r];
      if (order.empty()) {
        continue;
      }
      std::fill(appearance.begin(), appearance.end(), 0);
      std::vector<std::uint32_t> chain;
      chain.reserve(order.size());
      for (const ActorId a : order) {
        if (resources->actorResource[a] != r) {
          throw AnalysisError("FlatExpansion: actor " + g.actor(a).name +
                              " is scheduled on a resource it is not bound to");
        }
        const std::uint64_t j = appearance[a]++;
        if (j >= q_[a]) {
          throw AnalysisError("FlatExpansion: actor " + g.actor(a).name +
                              " appears more often than its repetition count");
        }
        chain.push_back(copyStart_[a] + static_cast<std::uint32_t>(j));
      }
      for (ActorId a = 0; a < g.actorCount(); ++a) {
        if (resources->actorResource[a] == r && appearance[a] != q_[a]) {
          throw AnalysisError("FlatExpansion: actor " + g.actor(a).name + " appears " +
                              std::to_string(appearance[a]) +
                              " times in its static order, expected q = " +
                              std::to_string(q_[a]));
        }
      }
      for (std::size_t i = 0; i < chain.size(); ++i) {
        const std::size_t next = (i + 1) % chain.size();
        CycleRatioEdge e;
        e.from = chain[i];
        e.to = chain[next];
        e.weight = static_cast<std::int64_t>(timed.execTime[order[i]]);
        e.delay = (next == 0) ? 1 : 0;
        edges_.push_back(e);
      }
    }
  }
}

void FlatExpansion::patchChannel(const sdf::TimedGraph& timed, ChannelId channel) {
  // One edge per token consumed within an iteration, following the
  // token rule of the standard expansion (sdf::hsdfTokenDependency).
  const Channel& ch = timed.graph.channel(channel);
  // The first consumed token is the oldest initial token: its delay is
  // the largest of the slab.
  if (ch.initialTokens > 0 &&
      sdf::hsdfTokenDependency(0, ch.initialTokens, ch.prodRate, q_[ch.src]).delay > kInt64Max) {
    throw AnalysisError("FlatExpansion: initial tokens of channel " + ch.name +
                        " give a delay above INT64_MAX");
  }
  const std::uint64_t cons = ch.consRate;
  const std::uint64_t qDst = q_[ch.dst];
  const auto weight = static_cast<std::int64_t>(timed.execTime[ch.src]);
  std::size_t slot = slabOffset_[channel];
  for (std::uint64_t j = 0; j < qDst; ++j) {
    for (std::uint64_t k = 0; k < cons; ++k) {
      const sdf::TokenDependency dep =
          sdf::hsdfTokenDependency(j * cons + k, ch.initialTokens, ch.prodRate, q_[ch.src]);
      CycleRatioEdge& e = edges_[slot++];
      e.from = copyStart_[ch.src] + static_cast<std::uint32_t>(dep.srcCopy);
      e.to = copyStart_[ch.dst] + static_cast<std::uint32_t>(j);
      e.weight = weight;
      e.delay = static_cast<std::int64_t>(dep.delay);
    }
  }
}

ThroughputResult solveExpansion(const FlatExpansion& flat, CycleRatioSolver& solver) {
  ThroughputResult result;
  result.engine = ThroughputEngine::Mcr;
  result.hsdfActors = flat.hsdfActors();
  if (flat.hsdfActors() == 0) {
    result.status = ThroughputResult::Status::Deadlock;
    return result;
  }
  CycleRatioResult mcr;
  {
    support::ScopedTimer timer(result.solveNanos);
    mcr = solver.solve(static_cast<std::size_t>(flat.hsdfActors()), flat.edges());
  }
  switch (mcr.status) {
    case CycleRatioResult::Status::Ok:
      if (mcr.ratio.isZero()) {
        // Every cycle has zero total execution time: the graph fires
        // infinitely fast (matches the state-space verdict for a live
        // zero-time cycle).
        result.status = ThroughputResult::Status::Unbounded;
      } else {
        result.status = ThroughputResult::Status::Ok;
        result.iterationsPerCycle = mcr.ratio.reciprocal();
      }
      return result;
    case CycleRatioResult::Status::Deadlock:
      result.status = ThroughputResult::Status::Deadlock;
      return result;
    case CycleRatioResult::Status::Acyclic:
      // No cycle constrains the period. With self-concurrency limits in
      // {0, 1} this requires every actor to be unconstrained, which only
      // happens for graphs of limit-0 actors: unbounded throughput.
      break;
  }
  result.status = ThroughputResult::Status::Unbounded;
  return result;
}

}  // namespace mamps::analysis
