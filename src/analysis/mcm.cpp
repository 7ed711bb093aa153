#include "analysis/mcm.hpp"

#include <algorithm>
#include <limits>

namespace mamps::analysis {
namespace {

using Edge = CycleRatioEdge;
using Wide = __int128;
using UWide = unsigned __int128;

constexpr std::uint32_t kNoNode = 0xffffffffu;

std::uint64_t magnitude(std::int64_t x) {
  return x < 0 ? 0 - static_cast<std::uint64_t>(x) : static_cast<std::uint64_t>(x);
}

/// Throw unless the cyclic core keeps Howard's arithmetic exact: W and
/// D fit int64 and (W + L) * D^2 < 2^124 (the bound is derived in
/// Scratch::howard). `weight` is W, `loopWeight` L and `delay` D.
void requireExactArithmetic(UWide weight, UWide loopWeight, UWide delay) {
  constexpr auto kInt64Max = static_cast<UWide>(std::numeric_limits<std::int64_t>::max());
  constexpr UWide kProductBound = UWide{1} << 124;
  if (weight > kInt64Max || delay > kInt64Max ||
      (delay != 0 && weight + loopWeight > (kProductBound - 1) / (delay * delay))) {
    throw AnalysisError(
        "CycleRatioSolver: edge weights and delays too large for exact int64/int128 arithmetic");
  }
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
  std::vector<Edge> work;             // cyclic-core edges
  std::vector<Edge> zero;             // zero-delay subset (deadlock check)
  std::vector<std::uint64_t> maxOut;  // node -> largest |weight| of its core out-edges
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
    // Cold seed: the first out-edge. Any seed yields the same maximum
    // ratio, so the warm-start hint that overrides it only changes the
    // iteration count.
    policy[v] = edgeIdx[edgeOff[v]];
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
  // rational-arithmetic formulation.
  //
  // Magnitudes. solve() admits a core only when W (the sum over nodes of
  // the largest out-edge |weight|) and D (the sum of all |delay|s) fit
  // int64 and (W + L) * D^2 < 2^124, where L is the summed |weight| of
  // the self-loops. A simple path or cycle has weight <= W and delay
  // <= D, so the int64 cycle sums and every ratioNum/ratioDen fit. A
  // value is a sum of w(e)*den - num*delay(e) over a walk, with one
  // (num, den) pair along it, so each term set contributes at most
  // weight*D to either sign. An evaluated walk is a simple path into
  // the anchored cycle. An improvement pass prefixes at most one more
  // simple path (a node only adopts labels rewritten earlier in the
  // pass, i.e. of higher ids) plus self-loops, each applied at most
  // once per pass. So every value and candidate stays within
  // (3W + L) * D, and a comparison, which multiplies by one more den
  // <= D, within 3 * (W + L) * D^2 < 2^126: inside Wide.
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
  s.maxOut.assign(nodeCount, 0);
  UWide loopWeight = 0;
  UWide delaySum = 0;
  for (const Edge& e : edges) {
    if (s.alive[e.from] != 0 && s.alive[e.to] != 0) {
      s.work.push_back(e);
      const std::uint64_t w = magnitude(e.weight);
      s.maxOut[e.from] = std::max(s.maxOut[e.from], w);
      loopWeight += e.from == e.to ? w : 0;
      delaySum += magnitude(e.delay);
    }
  }
  if (s.work.empty()) {
    result.status = CycleRatioResult::Status::Acyclic;
    return result;
  }
  UWide weightSum = 0;
  for (const std::uint64_t w : s.maxOut) {
    weightSum += w;
  }
  requireExactArithmetic(weightSum, loopWeight, delaySum);

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

}  // namespace mamps::analysis
