// Unified throughput analysis entry point.
//
// Two exact engines compute the self-timed throughput of a timed SDF
// graph:
//
//   - a maximum-cycle-ratio (MCR) fast path that expands the graph to
//     HSDF and runs Howard's policy iteration (polynomial time, see
//     analysis/mcm.hpp), and
//   - a state-space engine that executes the operational semantics
//     (Ghamarian et al. [3]) until a state recurs (exponential worst
//     case, but defined for every graph, including divergent ones).
//
// computeThroughput() picks the fast path whenever it is exact for the
// requested semantics and falls back to the state-space engine
// otherwise; ThroughputResult::engine reports which one ran. One
// function in throughput.cpp makes that decision, for computeThroughput()
// and for IncrementalThroughput (analysis/incremental.hpp) alike: it
// checks the shapes, computes the repetition vector once, and builds
// the expansion when MCR applies. The flow defines throughput as graph
// iterations per clock cycle; the platform's system clock is the base
// time unit (Section 5).
#pragma once

#include <cstdint>
#include <vector>

#include "sdf/graph.hpp"
#include "support/rational.hpp"

/// \namespace mamps
/// \brief Root namespace of the MAMPS mapping-flow reproduction.

/// \namespace mamps::analysis
/// \brief Throughput, cycle-ratio, and buffer-capacity analyses of
/// timed SDF graphs (the performance-guarantee layer of the flow).

namespace mamps::analysis {

/// Processor sharing: actors bound to the same resource execute
/// mutually exclusively and in a fixed cyclic static order, exactly like
/// the lookup-table scheduler of the generated MAMPS software
/// (Section 6.3: "scheduling ... is done through a static order schedule
/// which reduces the scheduler to a lookup table").
struct ResourceConstraints {
  /// Sentinel resource id meaning "not bound to a shared resource".
  static constexpr std::uint32_t kUnbound = 0xffffffff;

  /// actor id -> resource id (kUnbound = the actor has its own resource,
  /// e.g. hardware stages of the communication model).
  std::vector<std::uint32_t> actorResource;
  /// Per resource: the cyclic firing order. Actors with repetition count
  /// > 1 appear multiple times. Every bound actor must appear.
  std::vector<std::vector<sdf::ActorId>> staticOrder;

  /// Shape checks against a graph.
  /// @param g the graph the constraints will be applied to
  /// @throws AnalysisError when actorResource does not cover every
  ///   actor, a schedule references an unknown actor, a resource id is
  ///   out of range, or a bound actor is missing from its static order.
  void validateFor(const sdf::Graph& g) const;
};

/// Selects the algorithm behind computeThroughput().
enum class ThroughputEngine {
  /// Use the MCR fast path when it is exact for the requested semantics
  /// and its HSDF expansion is estimated at no more than 10^6 actors
  /// plus edges (kMaxMcrHsdfSize in throughput.cpp; see
  /// docs/throughput.md for the precise conditions), otherwise fall
  /// back to the state-space engine. The default.
  Auto,
  /// Force the state-space engine (always defined; exponential worst
  /// case; the only engine with divergence detection).
  StateSpace,
  /// Force the MCR fast path. computeThroughput() and the
  /// IncrementalThroughput constructor throw AnalysisError when the
  /// fast path cannot represent the requested semantics (static orders
  /// that do not cover one full iteration). Every
  /// self-concurrency limit — 0 (unlimited), 1, or above — is encoded
  /// exactly by the HSDF expansion.
  Mcr,
};

/// Human-readable engine name ("auto", "state-space", "mcr").
/// @param engine the engine to name
/// @return a static, never-null C string
[[nodiscard]] const char* throughputEngineName(ThroughputEngine engine);

/// Engine selection for computeThroughput() and IncrementalThroughput.
struct ThroughputOptions {
  /// Which engine to run; see ThroughputEngine.
  ThroughputEngine engine = ThroughputEngine::Auto;
};

/// Outcome of a throughput analysis.
struct ThroughputResult {
  /// Verdict of the analysis.
  enum class Status {
    Ok,            ///< throughput computed
    Deadlock,      ///< execution halts; throughput is zero
    Inconsistent,  ///< no repetition vector exists
    Unbounded,     ///< a zero-execution-time cycle fires infinitely fast
    Diverged,      ///< tokens accumulate without bound (graph is not
                   ///< strongly bounded; analyze with buffer capacities
                   ///< or use the MCR engine, which reports the long-run
                   ///< iteration rate for such graphs)
    StepLimit,     ///< the state-space engine ran 2^20 quiescent steps
                   ///< (kMaxStateSpaceSteps in throughput.cpp), and so
                   ///< stored 2^20 states, without a recurrent state
  };

  /// Verdict; iterationsPerCycle is only meaningful for Ok.
  Status status = Status::StepLimit;
  /// Long-term average graph iterations per clock cycle (valid for Ok;
  /// zero for Deadlock).
  Rational iterationsPerCycle = Rational(0);
  /// The engine that produced this result (never Auto).
  ThroughputEngine engine = ThroughputEngine::StateSpace;
  /// State-space engine: number of distinct quiescent states stored
  /// until the verdict.
  std::uint64_t statesExplored = 0;
  /// State-space engine: length of the periodic phase in clock cycles.
  std::uint64_t periodCycles = 0;
  /// MCR engine: number of actors of the analyzed HSDF expansion.
  std::uint64_t hsdfActors = 0;

  // Per-phase wall-clock profile of the analysis (support::ScopedTimer
  // accumulations; integer nanoseconds so equality checks stay exact).
  // Timings are measurements, not results: the determinism property
  // wall compares every field of two ThroughputResults *except* these.
  /// MCR engine only: nanoseconds computeThroughput() spent on the
  /// engine decision, the build of the HSDF edge tables included; zero
  /// for a compute() of an IncrementalThroughput context, whose
  /// constructor built them.
  std::uint64_t expansionNanos = 0;
  /// Nanoseconds spent in the solver proper: Howard's policy iteration
  /// (MCR) or the whole state-space exploration.
  std::uint64_t solveNanos = 0;

  /// True when the analysis completed with a throughput value.
  /// @return status == Status::Ok
  [[nodiscard]] bool ok() const { return status == Status::Ok; }
};

/// Compute the self-timed throughput of `timed` with the engine chosen
/// by `options.engine` (Auto picks the MCR fast path when exact).
/// @param timed the graph to analyze; `timed.execTime` must have one
///   entry per actor
/// @param options engine selection
/// @return the throughput verdict, including which engine ran
/// @throws AnalysisError on shape violations, when a forced engine
///   cannot represent the requested semantics, or when execution times,
///   delays or the period are too large for exact int64 arithmetic
[[nodiscard]] ThroughputResult computeThroughput(const sdf::TimedGraph& timed,
                                                 const ThroughputOptions& options = {});

/// Resource-constrained variant: actors bound to a resource additionally
/// wait for the resource to be idle and for their turn in its static
/// order. This is the analysis the flow runs on binding-aware graphs;
/// under Auto it uses the MCR fast path with the static orders encoded
/// as HSDF precedence edges whenever each bound actor appears exactly
/// q[a] times in its order.
/// @param timed the graph to analyze; `timed.execTime` must have one
///   entry per actor
/// @param resources the binding and static-order schedules
/// @param options engine selection
/// @return the throughput verdict, including which engine ran
/// @throws AnalysisError on shape violations, when a forced engine
///   cannot represent the requested semantics, or when execution times,
///   delays or the period are too large for exact int64 arithmetic
[[nodiscard]] ThroughputResult computeThroughput(const sdf::TimedGraph& timed,
                                                 const ResourceConstraints& resources,
                                                 const ThroughputOptions& options = {});

}  // namespace mamps::analysis
