// Flat, arena-backed HSDF expansion for the MCR fast path.
//
// FlatExpansion encodes the HSDF expansion of a timed SDF graph as one
// contiguous index-based CycleRatioEdge table: no graph object, no
// names, no per-element allocation. Channel edges follow the token rule
// of the standard expansion (sdf::hsdfTokenDependency); the solved
// maximum cycle ratio is bit-identical to the graph-materializing
// expansion the tests keep as an oracle (tests/hsdf_oracle.hpp, pinned
// by tests/perf_test.cpp). The table keeps one edge per consumed token,
// so parallel edges between two firing copies stay in it: the solver
// accepts them as they are.
//
// The table is split into an immutable prefix and mutable slabs:
// topology, rates, execution times, self-concurrency edges, and
// static-order chains are fixed for the lifetime of the expansion and
// encoded once in build(); every SDF channel owns a contiguous slab of
// token edges whose endpoints and delays depend on the channel's
// initial-token count, re-encoded in O(slab) by patchChannel() when a
// capacity changes. Both computeThroughputMcr() (build once, solve
// once) and IncrementalThroughput (build once, patch and re-solve per
// buffer-growth round) run on this structure and share solveExpansion().
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/mcm.hpp"
#include "analysis/throughput.hpp"
#include "sdf/graph.hpp"

namespace mamps::analysis {

/// The HSDF expansion of a timed SDF graph as flat CycleRatioEdge
/// tables, with per-channel slabs that can be re-encoded in place when
/// initial-token counts change. See the header comment for the layout
/// contract.
class FlatExpansion {
 public:
  /// Encode the expansion of `timed` (channel token slabs, then
  /// self-concurrency edges, then static-order chains). The graph must
  /// be consistent; static orders, when given, must be exact (every
  /// bound actor appears exactly q[a] times on its own resource), which
  /// is what mcrFastPathApplicable() checks.
  /// @param timed the SDF graph with one execution time per actor
  /// @param resources optional binding and static orders (may be null)
  /// @throws AnalysisError when the graph is inconsistent, a static
  ///   order is not exact, or an execution time or edge delay exceeds
  ///   INT64_MAX
  void build(const sdf::TimedGraph& timed, const ResourceConstraints* resources);

  /// Re-encode one channel's token slab after its initial-token count
  /// changed in `timed`. O(q[dst] * consRate) of the channel.
  /// @param timed the graph holding the channel's current token count
  ///   (must be the graph build() ran on, with only token counts changed)
  /// @param channel the changed channel
  /// @throws AnalysisError when an edge delay of the slab exceeds
  ///   INT64_MAX
  void patchChannel(const sdf::TimedGraph& timed, sdf::ChannelId channel);

  /// The edge table, ready for CycleRatioSolver. The reference stays
  /// valid until the next build(); patchChannel() updates it in place.
  /// @return the edges: [channel slabs][self-concurrency][static order]
  [[nodiscard]] const std::vector<CycleRatioEdge>& edges() const { return edges_; }

  /// Total firing copies of the expansion (the HSDF actor count).
  /// @return sum over actors of the repetition count
  [[nodiscard]] std::uint64_t hsdfActors() const { return hsdfActors_; }

 private:
  std::vector<std::uint64_t> q_;          ///< repetition vector
  std::vector<std::uint32_t> copyStart_;  ///< actor -> first firing copy
  std::uint64_t hsdfActors_ = 0;          ///< total firing copies
  std::vector<CycleRatioEdge> edges_;     ///< [channel slabs][self-conc][static order]
  std::vector<std::size_t> slabOffset_;   ///< channel -> offset into edges_
};

/// The MCR throughput verdict of an expansion: solve `flat` with
/// `solver` and read the maximum cycle ratio as a throughput. An empty
/// expansion is deadlocked; an acyclic expansion or a zero maximum
/// cycle ratio means unbounded throughput.
/// @param flat the expansion to solve
/// @param solver the solver to run; its warm-start hints seed the solve
///   and receive the converged policy
/// @return the verdict with `engine == ThroughputEngine::Mcr`,
///   hsdfActors, and the solve time in solveNanos (expansionNanos is
///   left to the caller that built the expansion)
/// @throws AnalysisError when the edge magnitudes are too large for
///   exact arithmetic (see CycleRatioSolver::solve)
[[nodiscard]] ThroughputResult solveExpansion(const FlatExpansion& flat,
                                              CycleRatioSolver& solver);

}  // namespace mamps::analysis
