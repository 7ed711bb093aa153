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
// otherwise; ThroughputResult::engine reports which one ran. The flow
// defines throughput as graph iterations per clock cycle; the
// platform's system clock is the base time unit (Section 5).
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
  /// (see docs/throughput.md for the precise conditions), otherwise
  /// fall back to the state-space engine. The default.
  Auto,
  /// Force the state-space engine (always defined; exponential worst
  /// case; the only engine supporting auto-concurrency and divergence
  /// detection).
  StateSpace,
  /// Force the MCR fast path. computeThroughput() throws AnalysisError
  /// when the fast path cannot represent the requested semantics
  /// (auto-concurrency, or static orders that do not cover one full
  /// iteration). Finite self-concurrency limits — including limits
  /// above 1 — are encoded exactly by the HSDF expansion.
  Mcr,
};

/// Human-readable engine name ("auto", "state-space", "mcr").
/// @param engine the engine to name
/// @return a static, never-null C string
[[nodiscard]] const char* throughputEngineName(ThroughputEngine engine);

/// Tuning knobs for computeThroughput().
struct ThroughputOptions {
  /// Allow an actor to fire concurrently with itself. The MAMPS platform
  /// always serializes firings of an actor on its processing element, so
  /// the flow analyses with auto-concurrency disabled. Forces the
  /// state-space engine under ThroughputEngine::Auto.
  bool autoConcurrency = false;
  /// Safety cap on simulated quiescent steps before the state-space
  /// engine gives up with Status::StepLimit.
  std::uint64_t maxSteps = 10'000'000;
  /// Which engine to run; see ThroughputEngine.
  ThroughputEngine engine = ThroughputEngine::Auto;
  /// Auto only: fall back to the state-space engine when the HSDF
  /// expansion would exceed this many actors plus edges (guards against
  /// graphs whose repetition vector explodes the expansion).
  std::uint64_t maxMcrHsdfSize = 1'000'000;
  /// State-space only: bound on the number of stored quiescent states.
  /// When the store grows past this, the oldest (transient-prefix)
  /// states are pruned; recurrence detection then latches onto a later
  /// revisit of the periodic phase, trading steps for memory. Periodic
  /// phases longer than roughly half this bound can no longer be
  /// detected and end in Status::StepLimit.
  std::uint64_t maxStoredStates = 1u << 20;
};

/// Would Auto engine selection route this analysis to the MCR fast
/// path? True when the HSDF encoding is exact for the requested
/// semantics (no auto-concurrency; static orders, if any, cover exactly
/// one iteration) and the estimated expansion size stays under
/// `options.maxMcrHsdfSize`. IncrementalThroughput uses the same
/// predicate, so its engine choice always matches a from-scratch
/// computeThroughput() call.
/// @param timed the graph to analyze
/// @param resources optional binding and static orders (may be null)
/// @param options engine selection and safety limits
/// @param reason optional out-parameter; on false names the first
///   violated precondition (static string, never null)
/// @return true when Auto would pick the MCR engine
[[nodiscard]] bool mcrFastPathApplicable(const sdf::TimedGraph& timed,
                                         const ResourceConstraints* resources,
                                         const ThroughputOptions& options,
                                         const char** reason = nullptr);

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
    StepLimit,     ///< maxSteps exceeded before a recurrent state
  };

  /// Verdict; iterationsPerCycle is only meaningful for Ok.
  Status status = Status::StepLimit;
  /// Long-term average graph iterations per clock cycle (valid for Ok;
  /// zero for Deadlock).
  Rational iterationsPerCycle = Rational(0);
  /// The engine that produced this result (never Auto).
  ThroughputEngine engine = ThroughputEngine::StateSpace;
  /// State-space engine: number of quiescent states explored until the
  /// verdict (stored states plus states dropped by prefix pruning; a
  /// pruned-then-revisited state counts in both).
  std::uint64_t statesExplored = 0;
  /// State-space engine: length of the periodic phase in clock cycles.
  std::uint64_t periodCycles = 0;
  /// MCR engine: number of actors of the analyzed HSDF expansion.
  std::uint64_t hsdfActors = 0;

  // Per-phase wall-clock profile of the analysis (support::ScopedTimer
  // accumulations; integer nanoseconds so equality checks stay exact).
  // Timings are measurements, not results: the determinism property
  // wall compares every field of two ThroughputResults *except* these.
  /// Nanoseconds spent building the HSDF edge tables (MCR engine only;
  /// zero for a re-solve of an IncrementalThroughput context).
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
/// @param options engine selection and safety limits
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
/// @param options engine selection and safety limits
/// @return the throughput verdict, including which engine ran
/// @throws AnalysisError on shape violations, when a forced engine
///   cannot represent the requested semantics, or when execution times,
///   delays or the period are too large for exact int64 arithmetic
[[nodiscard]] ThroughputResult computeThroughput(const sdf::TimedGraph& timed,
                                                 const ResourceConstraints& resources,
                                                 const ThroughputOptions& options = {});

}  // namespace mamps::analysis
