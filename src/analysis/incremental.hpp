// Incremental throughput re-analysis for design-space exploration.
//
// The buffer-growth loop of the mapping flow and the sweeps of a DSE
// run re-analyze the *same* binding-aware graph many times while only
// channel capacities — initial-token counts on capacity back-edges —
// change between rounds. The graph topology, rates, execution times,
// and static-order schedules are invariant, so the expensive parts of
// the MCR fast path (graph construction, repetition vector, HSDF
// expansion layout, static-order precedence encoding) can be computed
// once and reused: IncrementalThroughput caches the expansion as a flat
// edge table in which every SDF channel owns a contiguous slab, patches
// only that slab when the channel's token count changes, and re-solves
// with Howard's policy iteration warm-started from the previous optimal
// policy. The result is bit-identical to a from-scratch
// computeThroughput() call on the patched graph (pinned by the
// randomized properties in tests/analysis_property_test.cpp).
//
// Graphs the MCR fast path cannot represent exactly keep their existing
// path: compute() falls back to the unified computeThroughput() entry
// point on an internally patched graph copy, so the state-space engine
// semantics (divergence detection, auto-concurrency, step limits) are
// untouched.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/flat_hsdf.hpp"
#include "analysis/mcm.hpp"
#include "analysis/throughput.hpp"
#include "sdf/graph.hpp"

namespace mamps::analysis {

/// Reusable throughput-analysis context for a graph whose topology,
/// rates, execution times, and resource constraints are fixed while
/// initial-token counts (channel capacities) change between queries.
class IncrementalThroughput {
 public:
  /// Build the context. When the MCR fast path is exact for the
  /// requested semantics (see mcrFastPathApplicable), the HSDF
  /// expansion layout and static-order encoding are precomputed here;
  /// otherwise every compute() runs the unified entry point on the
  /// internal graph copy.
  /// @param timed the graph to analyze (copied; `timed.execTime` must
  ///   have one entry per actor)
  /// @param resources optional binding and static orders (copied; may
  ///   be null)
  /// @param options engine selection and safety limits, applied to
  ///   every compute() call
  /// @throws AnalysisError on shape violations (execTime size, invalid
  ///   resource constraints)
  explicit IncrementalThroughput(const sdf::TimedGraph& timed,
                                 const ResourceConstraints* resources = nullptr,
                                 const ThroughputOptions& options = {});

  /// Change the initial-token count of one channel (a capacity
  /// back-edge in the flow's use). O(q[dst] * consRate) of the channel
  /// when on the fast path; O(1) otherwise.
  /// @param channel a channel id of the constructed graph
  /// @param tokens the new initial-token count
  /// @throws AnalysisError when `channel` is out of range
  void setInitialTokens(sdf::ChannelId channel, std::uint64_t tokens);

  /// Re-analyze with the current token counts. On the fast path this
  /// runs warm-started Howard on the cached edge table; the
  /// verdict (status, rational, engine, hsdfActors) is identical to
  /// computeThroughput() on the current graph. Off the fast path it
  /// delegates to computeThroughput() directly.
  /// @return the throughput verdict, including which engine ran
  [[nodiscard]] ThroughputResult compute();

  /// True when queries run on the cached MCR expansion (the incremental
  /// path); false when every compute() delegates to the unified entry
  /// point.
  /// @return whether the MCR fast path is active
  [[nodiscard]] bool onFastPath() const { return fastPath_; }

  /// The analyzed graph with the current (patched) token counts.
  /// @return the internal graph copy
  [[nodiscard]] const sdf::TimedGraph& graph() const { return timed_; }

  /// Seed the internal solver's next solve from a previously exported
  /// policy — e.g. a neighboring design point's converged policy during
  /// a DSE sweep. Warm starts never change results (see
  /// SolverWarmStart); mismatched handles are ignored.
  /// @param warm the handle to copy hints from
  void adoptWarmStart(const SolverWarmStart& warm) { solver_.adoptWarmStart(warm); }

  /// Export the internal solver's converged policy for seeding another
  /// context.
  /// @param warm the handle to copy hints into
  void exportWarmStart(SolverWarmStart& warm) const { solver_.exportWarmStart(warm); }

 private:
  sdf::TimedGraph timed_;  ///< current token state (also the fallback input)
  std::optional<ResourceConstraints> resources_;
  ThroughputOptions options_;
  bool fastPath_ = false;
  FlatExpansion flat_;       ///< cached flat expansion (fast path only)
  CycleRatioSolver solver_;  ///< warm-started across compute()s
};

}  // namespace mamps::analysis
