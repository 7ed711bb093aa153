// Maximum cycle ratio / maximum cycle mean analysis — the polynomial
// throughput fast path.
//
// For an HSDF graph (all rates 1) executing self-timed, the steady-state
// iteration period equals the maximum cycle ratio
//     MCR = max over cycles C of ( sum of execution times / sum of tokens )
// and the graph throughput is 1/MCR iterations per cycle. A cycle with
// zero tokens can never fire: the graph is deadlocked.
//
// computeThroughput()'s MCR engine analyzes a general SDF graph by
// expanding it to HSDF first (analysis/flat_hsdf.hpp); static-order
// schedules of shared resources are encoded exactly as additional HSDF
// precedence edges, so resource-shared binding-aware graphs stay on the
// fast path. The cycle ratio is computed by Howard's policy iteration
// with exact integer arithmetic; the tests cross-check it against a
// brute-force simple cycle enumeration (tests/hsdf_oracle.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/throughput.hpp"
#include "sdf/graph.hpp"
#include "support/rational.hpp"

namespace mamps::analysis {

/// Outcome of a maximum-cycle-ratio computation.
struct CycleRatioResult {
  /// Verdict of the cycle-ratio analysis.
  enum class Status {
    Ok,        ///< maximum cycle ratio computed
    Deadlock,  ///< a cycle without tokens exists
    Acyclic,   ///< no cycle exists (ratio undefined; throughput unbounded)
  };

  /// Verdict; `ratio` is only meaningful for Ok.
  Status status = Status::Acyclic;
  /// Maximum cycle ratio in cycles per iteration (valid for Ok).
  Rational ratio = Rational(0);

  /// True when a maximum cycle ratio was computed.
  /// @return status == Status::Ok
  [[nodiscard]] bool ok() const { return status == Status::Ok; }
};

/// One precedence edge of a cycle-ratio problem: `weight` is the
/// execution time of the source node, `delay` the token count.
struct CycleRatioEdge {
  /// Source node index.
  std::uint32_t from = 0;
  /// Destination node index.
  std::uint32_t to = 0;
  /// Execution time of `from` (the numerator contribution of the edge).
  std::int64_t weight = 0;
  /// Initial tokens on the edge (the denominator contribution).
  std::int64_t delay = 0;
};

/// Portable warm-start handle for CycleRatioSolver: a converged policy
/// from a previous solve, stored as preferred successor per node.
/// Seeding from any handle — including one from a *different* graph —
/// never changes a result: Howard's policy iteration converges to the
/// unique maximum cycle ratio from any initial policy, so a warm start
/// only changes how many improvement sweeps convergence takes. The DSE
/// engine hands one handle per sweep worker through the mapping flow so
/// neighboring design points seed each other (mapping/dse.hpp).
struct SolverWarmStart {
  /// node -> preferred successor node (0xffffffff = no preference).
  /// Ignored wholesale when the size does not match the solved problem.
  std::vector<std::uint32_t> preferredSuccessor;
};

/// Howard's policy iteration over an explicit edge list, with reusable
/// policy state: successive solve() calls on perturbed versions of the
/// same graph warm-start from the previous optimal policy (stored as
/// preferred successor per node, so it survives a changed edge layout),
/// which typically converges in one or two sweeps. A default-constructed
/// solver is cold.
///
/// Internally a solve peels the graph to its cyclic core (Kahn-style,
/// O(V + E)), reports a deadlock when the zero-delay edges of the core
/// close a cycle, and otherwise runs one Howard instance over the whole
/// core: first-out-edge cold seed (or the warm-start hints), exact policy
/// evaluation, and one descending label-correcting improvement pass per
/// iteration. The core need not be strongly connected — the multichain
/// evaluation ranks nodes by the ratio of the cycle they reach, so the
/// maximum over nodes is the global maximum cycle ratio. All per-solve
/// scratch is retained across calls, so repeated solves allocate
/// nothing on the steady state.
class CycleRatioSolver {
 public:
  CycleRatioSolver();
  ~CycleRatioSolver();
  /// Copying transfers the warm-start hints but not the scratch arenas.
  CycleRatioSolver(const CycleRatioSolver& other);
  CycleRatioSolver& operator=(const CycleRatioSolver& other);
  CycleRatioSolver(CycleRatioSolver&&) noexcept;
  CycleRatioSolver& operator=(CycleRatioSolver&&) noexcept;

  /// Maximum cycle ratio sum(weight)/sum(delay) over the cycles of the
  /// edge list. Parallel edges are permitted (only the minimum-delay one
  /// can attain the maximum when weights agree, but the solver does not
  /// require pre-collapsing).
  /// @param nodeCount number of nodes; edge endpoints must be < nodeCount
  /// @param edges the precedence edges
  /// @return the maximum cycle ratio, or Deadlock/Acyclic verdicts
  /// @throws AnalysisError when the cyclic core's weights and delays are
  ///   too large for exact arithmetic: W (the sum over nodes of the
  ///   largest out-edge |weight|) or D (the sum of |delay|s) exceeds
  ///   INT64_MAX, or (W + L) * D^2 >= 2^124 with L the summed
  ///   self-loop |weight|s
  [[nodiscard]] CycleRatioResult solve(std::size_t nodeCount,
                                      const std::vector<CycleRatioEdge>& edges);

  /// Seed the next solve() from a previously exported policy.
  /// @param warm the handle to copy hints from
  void adoptWarmStart(const SolverWarmStart& warm) {
    preferredSuccessor_ = warm.preferredSuccessor;
  }

  /// Export the current policy hints (the converged policy of the last
  /// successful solve) into a handle.
  /// @param warm the handle to copy hints into
  void exportWarmStart(SolverWarmStart& warm) const {
    warm.preferredSuccessor = preferredSuccessor_;
  }

 private:
  struct Scratch;  // reusable per-solve arenas; defined in mcm.cpp

  std::vector<std::uint32_t> preferredSuccessor_;  ///< warm-start hints
  std::unique_ptr<Scratch> scratch_;               ///< lazily created, reused
};

}  // namespace mamps::analysis
