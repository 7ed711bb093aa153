// Reference implementations the analysis tests compare against: the
// graph-materializing SDF-to-HSDF expansion and two maximum-cycle-ratio
// computations on its result, Howard's policy iteration (the library
// solver on an edge table built from the HSDF graph, parallel edges
// collapsed to the minimum delay) and a brute-force enumeration of all
// simple cycles (exponential; small graphs only).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "analysis/mcm.hpp"
#include "sdf/graph.hpp"
#include "sdf/hsdf.hpp"
#include "sdf/repetition_vector.hpp"
#include "support/error.hpp"
#include "support/rational.hpp"

namespace mamps::test {

/// Result of expanding an SDF graph into its homogeneous equivalent.
struct HsdfExpansion {
  /// The expanded graph; all rates are 1 and execution times are copied
  /// from the original actor of each firing copy.
  sdf::TimedGraph hsdf;
  /// hsdf actor id -> original SDF actor id
  std::vector<sdf::ActorId> originalActor;
};

/// Expand `timed` into an equivalent HSDF graph. Channels become
/// token-level dependencies between firing copies, and an actor with a
/// finite self-concurrency limit k gets the expansion of a virtual
/// rate-1 self-edge carrying k tokens, so analyzing the expansion with
/// maximum-cycle-ratio techniques reproduces the state-space result.
/// Throws AnalysisError when the graph is inconsistent.
inline HsdfExpansion toHsdf(const sdf::TimedGraph& timed) {
  const sdf::Graph& g = timed.graph;
  const auto qOpt = sdf::computeRepetitionVector(g);
  if (!qOpt) {
    throw AnalysisError("toHsdf: graph '" + g.name() + "' is inconsistent");
  }
  const auto& q = *qOpt;

  HsdfExpansion out;
  out.hsdf.graph.setName(g.name() + "_hsdf");

  // Create q[a] copies of each actor. The expansion changes the actor
  // set, so TimedGraph::rebuildFrom does not apply: every per-actor
  // annotation of TimedGraph must be populated per emitted copy here.
  std::vector<std::vector<sdf::ActorId>> copies(g.actorCount());
  for (sdf::ActorId a = 0; a < g.actorCount(); ++a) {
    copies[a].reserve(q[a]);
    for (std::uint64_t i = 0; i < q[a]; ++i) {
      const sdf::ActorId id =
          out.hsdf.graph.addActor(g.actor(a).name + "_" + std::to_string(i));
      copies[a].push_back(id);
      out.originalActor.push_back(a);
      out.hsdf.execTime.push_back(timed.execTime.at(a));
      if (!timed.maxConcurrent.empty()) {
        out.hsdf.maxConcurrent.push_back(timed.concurrencyLimit(a));
      }
    }
  }

  // Expand channels token by token: the k-th token consumed by firing j
  // of the destination (global consumption index n = j*cons + k) comes
  // from the source firing sdf::hsdfTokenDependency names, with the
  // iteration distance as the edge delay.
  for (const sdf::Channel& c : g.channels()) {
    for (std::uint64_t j = 0; j < q[c.dst]; ++j) {
      for (std::uint64_t k = 0; k < c.consRate; ++k) {
        const std::uint64_t n = j * c.consRate + k;
        const sdf::TokenDependency dep =
            sdf::hsdfTokenDependency(n, c.initialTokens, c.prodRate, q[c.src]);
        sdf::ChannelSpec spec;
        spec.src = copies[c.src][dep.srcCopy];
        spec.dst = copies[c.dst][j];
        spec.prodRate = 1;
        spec.consRate = 1;
        spec.initialTokens = dep.delay;
        spec.tokenSizeBytes = c.tokenSizeBytes;
        spec.name = c.name + "_n" + std::to_string(n);
        out.hsdf.graph.connect(spec);
      }
    }
  }

  // Self-concurrency: a limit of k in-flight firings is a rate-1
  // self-edge carrying k tokens, expanded with the same token rule.
  // Limit-0 actors get no constraint.
  for (sdf::ActorId a = 0; a < g.actorCount(); ++a) {
    const std::uint64_t limit = timed.concurrencyLimit(a);
    if (limit == 0) {
      continue;
    }
    for (std::uint64_t j = 0; j < q[a]; ++j) {
      const sdf::TokenDependency dep = sdf::hsdfTokenDependency(j, limit, 1, q[a]);
      sdf::ChannelSpec spec;
      spec.src = copies[a][dep.srcCopy];
      spec.dst = copies[a][j];
      spec.prodRate = 1;
      spec.consRate = 1;
      spec.initialTokens = dep.delay;
      spec.name = g.actor(a).name + "_seq" + std::to_string(j);
      out.hsdf.graph.connect(spec);
    }
  }
  return out;
}

/// Throws AnalysisError unless `hsdf` is an HSDF graph (all rates 1)
/// with one execution time per actor.
inline void requireHsdf(const sdf::TimedGraph& hsdf) {
  for (const sdf::Channel& c : hsdf.graph.channels()) {
    if (c.prodRate != 1 || c.consRate != 1) {
      throw AnalysisError("cycle-ratio analysis requires an HSDF graph (all rates 1)");
    }
  }
  if (hsdf.execTime.size() != hsdf.graph.actorCount()) {
    throw AnalysisError("cycle-ratio analysis: execTime size mismatch");
  }
}

/// The cycle-ratio edges of an HSDF graph (weight = execution time of
/// the source, delay = initial tokens), parallel edges collapsed to the
/// one with the fewest tokens: only that one can attain the maximum.
inline std::vector<analysis::CycleRatioEdge> hsdfEdges(const sdf::TimedGraph& hsdf) {
  std::vector<analysis::CycleRatioEdge> edges;
  std::map<std::pair<sdf::ActorId, sdf::ActorId>, std::size_t> byPair;
  for (const sdf::Channel& c : hsdf.graph.channels()) {
    const auto delay = static_cast<std::int64_t>(c.initialTokens);
    const auto [it, inserted] = byPair.try_emplace({c.src, c.dst}, edges.size());
    if (!inserted) {
      edges[it->second].delay = std::min(edges[it->second].delay, delay);
      continue;
    }
    analysis::CycleRatioEdge e;
    e.from = c.src;
    e.to = c.dst;
    e.weight = static_cast<std::int64_t>(hsdf.execTime[c.src]);
    e.delay = delay;
    edges.push_back(e);
  }
  return edges;
}

/// Maximum cycle ratio of a timed HSDF graph via a cold Howard solve.
/// Throws AnalysisError on a multi-rate graph or an execTime size
/// mismatch.
inline analysis::CycleRatioResult maxCycleRatioHoward(const sdf::TimedGraph& hsdf) {
  requireHsdf(hsdf);
  analysis::CycleRatioSolver solver;
  return solver.solve(hsdf.graph.actorCount(), hsdfEdges(hsdf));
}

/// Same quantity by enumerating all simple cycles (exponential; only for
/// small test graphs). Throws like maxCycleRatioHoward.
inline analysis::CycleRatioResult maxCycleRatioBruteForce(const sdf::TimedGraph& hsdf) {
  using analysis::CycleRatioEdge;
  using analysis::CycleRatioResult;
  requireHsdf(hsdf);
  const std::size_t n = hsdf.graph.actorCount();
  const std::vector<CycleRatioEdge> edges = hsdfEdges(hsdf);
  std::vector<std::vector<std::size_t>> outEdges(n);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    outEdges[edges[i].from].push_back(i);
  }

  CycleRatioResult result;
  bool foundCycle = false;
  bool deadlock = false;
  Rational best(0);

  // DFS enumeration of simple cycles rooted at each start node; only
  // nodes >= start participate, so each cycle is found exactly once
  // (rooted at its minimum node).
  std::vector<bool> onPath(n, false);
  std::vector<std::size_t> pathEdges;

  const std::function<void(std::size_t, std::size_t)> dfs = [&](std::size_t start, std::size_t v) {
    for (const std::size_t ei : outEdges[v]) {
      const CycleRatioEdge& e = edges[ei];
      if (e.to < start || deadlock) {
        continue;
      }
      if (e.to == start) {
        std::int64_t w = e.weight;
        std::int64_t d = e.delay;
        for (const std::size_t pe : pathEdges) {
          w += edges[pe].weight;
          d += edges[pe].delay;
        }
        if (d == 0) {
          deadlock = true;
          return;
        }
        const Rational r(w, d);
        if (!foundCycle || r > best) {
          best = r;
          foundCycle = true;
        }
        continue;
      }
      if (onPath[e.to]) {
        continue;
      }
      onPath[e.to] = true;
      pathEdges.push_back(ei);
      dfs(start, e.to);
      pathEdges.pop_back();
      onPath[e.to] = false;
    }
  };

  for (std::size_t start = 0; start < n && !deadlock; ++start) {
    onPath[start] = true;
    dfs(start, start);
    onPath[start] = false;
  }

  if (deadlock) {
    result.status = CycleRatioResult::Status::Deadlock;
  } else if (foundCycle) {
    result.status = CycleRatioResult::Status::Ok;
    result.ratio = best;
  } else {
    result.status = CycleRatioResult::Status::Acyclic;
  }
  return result;
}

}  // namespace mamps::test
