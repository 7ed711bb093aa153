// Flat, arena-backed HSDF expansion for the MCR fast path.
//
// The throughput fast path used to materialize the HSDF expansion as a
// full sdf::Graph — tens of thousands of uniquely named actors and
// channels per analysis, rebuilt from strings for every design point.
// FlatExpansion produces the same expansion as contiguous index-based
// CycleRatioEdge tables instead: no graph object, no names, no
// per-element allocation. The channel and self-concurrency edges mirror
// sdf::toHsdf exactly (both use the shared token rule
// sdf::hsdfTokenDependency, so the encodings cannot drift), and the
// solved maximum cycle ratio is bit-identical to the
// graph-materializing path (pinned by tests/perf_test.cpp).
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
  /// @throws AnalysisError when the graph is inconsistent or a static
  ///   order is not exact
  void build(const sdf::TimedGraph& timed, const ResourceConstraints* resources);

  /// Re-encode one channel's token slab after its initial-token count
  /// changed in `timed`. O(q[dst] * consRate) of the channel.
  /// @param timed the graph holding the channel's current token count
  ///   (must be the graph build() ran on, with only token counts changed)
  /// @param channel the changed channel
  void patchChannel(const sdf::TimedGraph& timed, sdf::ChannelId channel);

  /// Collapse parallel edges to the minimum-delay representative (all
  /// parallel edges share the source, hence the weight) into a reusable
  /// internal table — exactly the reduction the string-graph MCR path
  /// applies before Howard runs. The returned reference stays valid
  /// until the next collapse()/build() call.
  /// @return the collapsed edge table, ready for CycleRatioSolver
  [[nodiscard]] const std::vector<CycleRatioEdge>& collapse();

  /// Total firing copies of the expansion (the HSDF actor count).
  /// @return sum over actors of the repetition count
  [[nodiscard]] std::uint64_t hsdfActors() const { return hsdfActors_; }

 private:
  std::vector<std::uint64_t> q_;          ///< repetition vector
  std::vector<std::uint32_t> copyStart_;  ///< actor -> first firing copy
  std::uint64_t hsdfActors_ = 0;          ///< total firing copies
  std::vector<CycleRatioEdge> edges_;     ///< [channel slabs][self-conc][static order]
  std::vector<std::size_t> slabOffset_;   ///< channel -> offset into edges_
  std::vector<CycleRatioEdge> collapsed_;  ///< scratch: min-delay per pair
  // Collapse scratch: counting-sort buckets by source plus an
  // epoch-stamped slot table per target — O(E + V) with no hashing.
  std::vector<std::uint32_t> srcOff_;      ///< V+1 bucket offsets by edge source
  std::vector<std::uint32_t> srcIdx_;      ///< edge ids grouped by source
  std::vector<std::uint32_t> seenEpoch_;   ///< target -> last source epoch
  std::vector<std::uint32_t> seenSlot_;    ///< target -> collapsed_ index
};

/// The MCR throughput verdict of an expansion: collapse `flat`, solve
/// it with `solver`, and read the maximum cycle ratio as a throughput.
/// An empty expansion is deadlocked; an acyclic expansion or a zero
/// maximum cycle ratio means unbounded throughput.
/// @param flat the expansion to solve (collapsed in place)
/// @param solver the solver to run; its warm-start hints seed the solve
///   and receive the converged policy
/// @return the verdict with `engine == ThroughputEngine::Mcr`,
///   hsdfActors, and the collapse and solve times in
///   expansionNanos/solveNanos
[[nodiscard]] ThroughputResult solveExpansion(FlatExpansion& flat, CycleRatioSolver& solver);

}  // namespace mamps::analysis
