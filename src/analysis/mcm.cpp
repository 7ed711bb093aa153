#include "analysis/mcm.hpp"

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "analysis/flat_hsdf.hpp"
#include "sdf/repetition_vector.hpp"
#include "support/timer.hpp"

namespace mamps::analysis {
namespace {

using Edge = CycleRatioEdge;
using Wide = __int128;

constexpr std::uint32_t kNoNode = 0xffffffffu;

void requireHsdf(const sdf::TimedGraph& hsdf) {
  for (const sdf::Channel& c : hsdf.graph.channels()) {
    if (c.prodRate != 1 || c.consRate != 1) {
      throw AnalysisError("cycle-ratio analysis requires an HSDF graph (all rates 1)");
    }
  }
  if (hsdf.execTime.size() != hsdf.graph.actorCount()) {
    throw AnalysisError("cycle-ratio analysis: execTime size mismatch");
  }
}

std::vector<Edge> buildEdges(const sdf::TimedGraph& hsdf) {
  // Parallel edges between the same pair carry the same weight (the
  // source's execution time); only the one with the fewest tokens can
  // attain the maximum ratio, so collapse them. The HSDF expansion of a
  // multi-rate channel produces one parallel edge per token, making this
  // a large reduction on expanded graphs.
  std::vector<Edge> edges;
  edges.reserve(hsdf.graph.channelCount());
  // lint:allow(unordered-deterministic) -- never iterated: try_emplace lookups only, and min() over parallel delays is order-independent
  std::unordered_map<std::uint64_t, std::size_t> byPair;
  byPair.reserve(hsdf.graph.channelCount());
  for (const sdf::Channel& c : hsdf.graph.channels()) {
    const std::uint64_t key = (std::uint64_t{c.src} << 32) | c.dst;
    const auto [it, inserted] = byPair.try_emplace(key, edges.size());
    if (!inserted) {
      Edge& existing = edges[it->second];
      existing.delay = std::min(existing.delay, static_cast<std::int64_t>(c.initialTokens));
      continue;
    }
    Edge e;
    e.from = c.src;
    e.to = c.dst;
    e.weight = static_cast<std::int64_t>(hsdf.execTime[c.src]);
    e.delay = static_cast<std::int64_t>(c.initialTokens);
    edges.push_back(e);
  }
  return edges;
}

}  // namespace

/// Reusable per-solve arenas. Every vector keeps its capacity across
/// solve() calls, so steady-state solves (buffer-growth rounds, DSE
/// sweeps, scenario re-analyses) allocate nothing — the allocation churn
/// of rebuilding adjacency per call used to dominate repeated-analysis
/// profiles.
struct CycleRatioSolver::Scratch {
  // --- cyclic-core peeling (CSR adjacency, both directions) ----------
  std::vector<std::uint32_t> inDeg, outDeg;
  std::vector<std::uint32_t> inOff, outOff;  // n+1 CSR offsets
  std::vector<std::uint32_t> inAdj, outAdj;  // edge endpoints
  std::vector<std::uint32_t> cursor;         // CSR fill cursor
  std::vector<std::uint32_t> queue;          // peel worklist
  std::vector<char> alive;                   // node -> lies on some cycle
  // --- edge working sets ---------------------------------------------
  std::vector<Edge> work;  // cyclic-core edges
  std::vector<Edge> zero;  // zero-delay subset (deadlock check)
  // --- Howard's policy iteration over `work` -------------------------
  std::vector<std::uint32_t> edgeOff, edgeIdx;  // out-CSR of work-edge ids
  std::vector<std::uint32_t> policy;            // node -> chosen edge id
  std::vector<std::int64_t> ratioNum, ratioDen;
  std::vector<Wide> valueNum;
  std::vector<char> hasRatio;
  std::vector<std::int32_t> mark;
  std::vector<std::uint32_t> path, cycle;

  std::size_t cyclicCore(std::size_t n, const std::vector<Edge>& edges);
  CycleRatioResult howard(std::size_t n, std::vector<std::uint32_t>& preferredSuccessor);
};

/// Nodes on at least one cycle: Kahn-style peeling of nodes with zero
/// in-degree or zero out-degree, O(V + E). Fills `alive`; returns the
/// number of surviving nodes.
std::size_t CycleRatioSolver::Scratch::cyclicCore(std::size_t n,
                                                  const std::vector<Edge>& edges) {
  inDeg.assign(n, 0);
  outDeg.assign(n, 0);
  for (const Edge& e : edges) {
    ++outDeg[e.from];
    ++inDeg[e.to];
  }
  inOff.assign(n + 1, 0);
  outOff.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    inOff[v + 1] = inOff[v] + inDeg[v];
    outOff[v + 1] = outOff[v] + outDeg[v];
  }
  inAdj.resize(edges.size());
  outAdj.resize(edges.size());
  cursor.assign(n, 0);
  for (const Edge& e : edges) {
    inAdj[inOff[e.to] + cursor[e.to]++] = e.from;
  }
  cursor.assign(n, 0);
  for (const Edge& e : edges) {
    outAdj[outOff[e.from] + cursor[e.from]++] = e.to;
  }

  alive.assign(n, 1);
  queue.clear();
  for (std::size_t v = 0; v < n; ++v) {
    if (inDeg[v] == 0 || outDeg[v] == 0) {
      alive[v] = 0;
      queue.push_back(static_cast<std::uint32_t>(v));
    }
  }
  std::size_t removed = queue.size();
  while (!queue.empty()) {
    const std::uint32_t v = queue.back();
    queue.pop_back();
    for (std::uint32_t i = inOff[v]; i < inOff[v + 1]; ++i) {
      const std::uint32_t u = inAdj[i];
      if (alive[u] != 0 && --outDeg[u] == 0) {
        alive[u] = 0;
        ++removed;
        queue.push_back(u);
      }
    }
    for (std::uint32_t i = outOff[v]; i < outOff[v + 1]; ++i) {
      const std::uint32_t u = outAdj[i];
      if (alive[u] != 0 && --inDeg[u] == 0) {
        alive[u] = 0;
        ++removed;
        queue.push_back(u);
      }
    }
  }
  return n - removed;
}

/// Howard's policy iteration over the non-empty cyclic core in `work`,
/// maximizing the cycle ratio sum(w)/sum(d). Every node with an
/// out-edge lies on the core, so every policy walk ends in a cycle.
/// The core may hold several strongly connected components joined by
/// one-way edges: the multichain evaluation gives each node the ratio
/// of the cycle its policy reaches, and at the fixpoint every node
/// carries the maximum ratio it can reach, so the maximum over nodes is
/// the global maximum cycle ratio (Cochet-Terrasson et al., 1998).
/// `preferredSuccessor` seeds the initial policy when its size is `n`
/// and receives the converged policy.
CycleRatioResult CycleRatioSolver::Scratch::howard(
    std::size_t n, std::vector<std::uint32_t>& preferredSuccessor) {
  CycleRatioResult result;
  const std::vector<Edge>& edges = work;
  // CSR adjacency; edge ids stay ascending per node, so the seed and
  // the improvement scan order are a pure function of the edge list.
  edgeOff.assign(n + 1, 0);
  for (const Edge& e : edges) {
    ++edgeOff[e.from + 1];
  }
  for (std::size_t v = 0; v < n; ++v) {
    edgeOff[v + 1] += edgeOff[v];
  }
  edgeIdx.resize(edges.size());
  cursor.assign(n, 0);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const std::uint32_t v = edges[i].from;
    edgeIdx[edgeOff[v] + cursor[v]++] = static_cast<std::uint32_t>(i);
  }

  constexpr std::uint32_t kNoEdge = 0xffffffffu;
  const bool haveHints = preferredSuccessor.size() == n;
  policy.assign(n, kNoEdge);
  for (std::size_t v = 0; v < n; ++v) {
    if (edgeOff[v] == edgeOff[v + 1]) {
      continue;
    }
    // Cold seed: the minimum-delay out-edge (first wins on ties). All
    // out-edges of an HSDF node carry the same weight — the source's
    // execution time — so the maximum-ratio cycle is biased toward
    // token-free edges; seeding with them cuts cold convergence from
    // dozens of sweeps to a handful. Any seed yields the same maximum
    // ratio, so this is purely an iteration-count heuristic, and so is
    // the warm-start hint that overrides it.
    std::uint32_t pick = edgeIdx[edgeOff[v]];
    for (std::uint32_t i = edgeOff[v] + 1; i < edgeOff[v + 1]; ++i) {
      if (edges[edgeIdx[i]].delay < edges[pick].delay) {
        pick = edgeIdx[i];
      }
    }
    policy[v] = pick;
    if (haveHints) {
      for (std::uint32_t i = edgeOff[v]; i < edgeOff[v + 1]; ++i) {
        if (edges[edgeIdx[i]].to == preferredSuccessor[v]) {
          policy[v] = edgeIdx[i];
          break;
        }
      }
    }
  }

  // Per-node evaluation state. Ratios are kept as *unnormalized*
  // integer fractions (the raw weight/delay sums of the reached cycle)
  // and values as 128-bit numerators over the cycle's delay sum; every
  // comparison cross-multiplies instead of normalizing, which removes
  // all gcd work from the hot loop. The final answer is materialized as
  // a normalized Rational, so results are bit-identical to the
  // rational-arithmetic formulation. Magnitudes stay far inside 128
  // bits: |valueNum| <= pathLength * (maxWeight + cycleWeight) *
  // cycleDelay, and comparisons multiply by one more delay sum.
  ratioNum.assign(n, 0);   // cycle weight sum
  ratioDen.assign(n, 1);   // cycle delay sum (> 0)
  valueNum.assign(n, 0);   // potential * ratioDen[v]
  hasRatio.assign(n, 0);
  mark.assign(n, -1);      // visit epoch of the evaluation walks
  // ratio[a] > ratio[b] as fractions (denominators are positive).
  const auto ratioGreater = [&](std::size_t a, std::size_t b) {
    return Wide(ratioNum[a]) * ratioDen[b] > Wide(ratioNum[b]) * ratioDen[a];
  };
  const auto ratioEqual = [&](std::size_t a, std::size_t b) {
    return Wide(ratioNum[a]) * ratioDen[b] == Wide(ratioNum[b]) * ratioDen[a];
  };

  const std::size_t maxIterations = edges.size() * n + 16;
  for (std::size_t iteration = 0; iteration < maxIterations; ++iteration) {
    // --- Policy evaluation -------------------------------------------
    std::fill(hasRatio.begin(), hasRatio.end(), false);
    std::fill(mark.begin(), mark.end(), -1);
    // Find the cycle each node reaches in the functional policy graph.
    for (std::size_t start = 0; start < n; ++start) {
      if (policy[start] == kNoEdge || hasRatio[start]) {
        continue;
      }
      // Walk until we hit something marked in this walk (new cycle) or
      // an already-evaluated node.
      path.clear();
      auto v = static_cast<std::uint32_t>(start);
      while (mark[v] == -1 && !hasRatio[v]) {
        mark[v] = static_cast<std::int32_t>(start);
        path.push_back(v);
        v = edges[policy[v]].to;
      }
      if (!hasRatio[v]) {
        // New cycle found; compute its ratio.
        std::int64_t w = 0;
        std::int64_t d = 0;
        std::uint32_t u = v;
        do {
          const Edge& e = edges[policy[u]];
          w += e.weight;
          d += e.delay;
          u = e.to;
        } while (u != v);
        if (d == 0) {
          // Defensive: solve() screens zero-delay cycles out first.
          result.status = CycleRatioResult::Status::Deadlock;
          return result;
        }
        // Anchor the cycle: value(v) = 0, propagate around the cycle by
        // walking forward and solving value(u) = w(u) - r*d(u) +
        // value(next), all over the common denominator d.
        valueNum[v] = 0;
        ratioNum[v] = w;
        ratioDen[v] = d;
        hasRatio[v] = true;
        cycle.clear();
        u = v;
        do {
          cycle.push_back(u);
          u = edges[policy[u]].to;
        } while (u != v);
        for (std::size_t i = cycle.size(); i-- > 1;) {
          const std::uint32_t node = cycle[i];
          const Edge& e = edges[policy[node]];
          valueNum[node] = Wide(e.weight) * d - Wide(w) * e.delay + valueNum[e.to];
          ratioNum[node] = w;
          ratioDen[node] = d;
          hasRatio[node] = true;
        }
      }
      // Propagate values back along the path (suffix first).
      for (std::size_t i = path.size(); i-- > 0;) {
        const std::uint32_t node = path[i];
        if (hasRatio[node]) {
          continue;  // part of the freshly evaluated cycle
        }
        const Edge& e = edges[policy[node]];
        valueNum[node] = Wide(e.weight) * ratioDen[e.to] - Wide(ratioNum[e.to]) * e.delay +
                         valueNum[e.to];
        ratioNum[node] = ratioNum[e.to];
        ratioDen[node] = ratioDen[e.to];
        hasRatio[node] = true;
      }
    }

    // --- Policy improvement ------------------------------------------
    // One label-correcting pass in descending node order: when v adopts
    // a better successor, its (ratio, value) label is rewritten in
    // place, so a predecessor scanned later in the same pass already
    // sees the improvement. Expansion edges mostly point from lower to
    // higher firing-copy ids, so the descending order carries an
    // improvement down a whole chain in one pass instead of one node per
    // evaluation. Labels only ever rise lexicographically in (ratio,
    // value), and intermediate labels only steer the next policy: the
    // loop exits only after a pass that adopted nothing, and such a pass
    // compared against the exact labels of the evaluation — the
    // classical Howard termination condition — so the fixpoint ratio is
    // unchanged.
    bool improved = false;
    for (std::size_t v = n; v-- > 0;) {
      for (std::uint32_t i = edgeOff[v]; i < edgeOff[v + 1]; ++i) {
        const std::uint32_t ei = edgeIdx[i];
        const Edge& e = edges[ei];
        const Wide candidate =
            Wide(e.weight) * ratioDen[e.to] - Wide(ratioNum[e.to]) * e.delay + valueNum[e.to];
        bool adopt = false;
        if (ratioNum[e.to] == ratioNum[v] && ratioDen[e.to] == ratioDen[v]) {
          // Fast path: within one evaluation every node reaching the
          // same cycle carries the *identical* (num, den) pair, and
          // label-correcting adoption copies the representation — so
          // the common case compares values over one shared
          // denominator, with no 128-bit cross-multiplies.
          adopt = candidate > valueNum[v];
        } else if (ratioGreater(e.to, v)) {
          adopt = true;
        } else if (ratioEqual(e.to, v)) {
          // Equal ratios in different representations: compare the
          // values over the product of the two denominators.
          adopt = candidate * ratioDen[v] > valueNum[v] * ratioDen[e.to];
        }
        if (adopt) {
          policy[v] = ei;
          valueNum[v] = candidate;
          ratioNum[v] = ratioNum[e.to];
          ratioDen[v] = ratioDen[e.to];
          improved = true;
        }
      }
    }
    if (!improved) {
      std::size_t best = n;
      for (std::size_t v = 0; v < n; ++v) {
        if (hasRatio[v] && (best == n || ratioGreater(v, best))) {
          best = v;
        }
      }
      result.status = CycleRatioResult::Status::Ok;
      result.ratio = Rational(ratioNum[best], ratioDen[best]);
      // Remember the converged policy for warm-starting later solves
      // (node ids, so it survives a changed edge layout).
      preferredSuccessor.assign(n, kNoNode);
      for (std::size_t v = 0; v < n; ++v) {
        if (policy[v] != kNoEdge) {
          preferredSuccessor[v] = edges[policy[v]].to;
        }
      }
      return result;
    }
  }
  throw AnalysisError("CycleRatioSolver: policy iteration failed to converge");
}

CycleRatioSolver::CycleRatioSolver() = default;
CycleRatioSolver::~CycleRatioSolver() = default;
CycleRatioSolver::CycleRatioSolver(CycleRatioSolver&&) noexcept = default;
CycleRatioSolver& CycleRatioSolver::operator=(CycleRatioSolver&&) noexcept = default;

CycleRatioSolver::CycleRatioSolver(const CycleRatioSolver& other)
    : preferredSuccessor_(other.preferredSuccessor_) {}

CycleRatioSolver& CycleRatioSolver::operator=(const CycleRatioSolver& other) {
  preferredSuccessor_ = other.preferredSuccessor_;
  return *this;
}

CycleRatioResult CycleRatioSolver::solve(std::size_t nodeCount,
                                         const std::vector<CycleRatioEdge>& edges) {
  if (!scratch_) {
    scratch_ = std::make_unique<Scratch>();
  }
  Scratch& s = *scratch_;
  CycleRatioResult result;

  // Restrict to the cyclic core; acyclic parts never constrain the
  // steady-state period.
  s.cyclicCore(nodeCount, edges);
  s.work.clear();
  for (const Edge& e : edges) {
    if (s.alive[e.from] != 0 && s.alive[e.to] != 0) {
      s.work.push_back(e);
    }
  }
  if (s.work.empty()) {
    result.status = CycleRatioResult::Status::Acyclic;
    return result;
  }

  // Zero-delay cycle <=> deadlock. Detect first: restrict to zero-delay
  // edges and check for a cycle among them.
  s.zero.clear();
  for (const Edge& e : s.work) {
    if (e.delay == 0) {
      s.zero.push_back(e);
    }
  }
  if (!s.zero.empty() && s.cyclicCore(nodeCount, s.zero) > 0) {
    result.status = CycleRatioResult::Status::Deadlock;
    return result;
  }
  return s.howard(nodeCount, preferredSuccessor_);
}

CycleRatioResult maxCycleRatioHoward(const sdf::TimedGraph& hsdf) {
  requireHsdf(hsdf);
  CycleRatioSolver solver;
  return solver.solve(hsdf.graph.actorCount(), buildEdges(hsdf));
}

CycleRatioResult maxCycleRatioBruteForce(const sdf::TimedGraph& hsdf) {
  requireHsdf(hsdf);
  const std::size_t n = hsdf.graph.actorCount();
  const std::vector<Edge> edges = buildEdges(hsdf);
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
      const Edge& e = edges[ei];
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

ThroughputResult computeThroughputMcr(const sdf::TimedGraph& timed,
                                      const ResourceConstraints* resources) {
  if (timed.execTime.size() != timed.graph.actorCount()) {
    throw AnalysisError("computeThroughputMcr: execTime size does not match actor count");
  }
  if (!sdf::isConsistent(timed.graph)) {
    ThroughputResult result;
    result.engine = ThroughputEngine::Mcr;
    result.status = ThroughputResult::Status::Inconsistent;
    return result;
  }
  FlatExpansion flat;
  std::uint64_t buildNanos = 0;
  {
    support::ScopedTimer timer(buildNanos);
    flat.build(timed, resources);
  }
  CycleRatioSolver solver;
  ThroughputResult result = solveExpansion(flat, solver);
  result.expansionNanos += buildNanos;
  return result;
}

std::optional<Rational> throughputViaMcr(const sdf::TimedGraph& timed) {
  const ThroughputResult result = computeThroughputMcr(timed);
  if (!result.ok()) {
    return std::nullopt;
  }
  return result.iterationsPerCycle;
}

}  // namespace mamps::analysis
