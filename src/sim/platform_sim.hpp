// Cycle-level simulator of the generated MAMPS platform.
//
// This is the repository's stand-in for the Virtex-6 FPGA: it executes
// the mapped application with real data through the generated system
// structure —
//   - one processing element per tile running its static-order schedule
//     as a cyclic lookup table,
//   - per inter-tile channel: a source token buffer (alpha_src), an NI
//     transmit engine + word FIFO, a rate/latency link with at most `w`
//     words in flight and alpha_n receive buffering (credit-based flow
//     control), a receive assembler, and a destination token buffer
//     (alpha_dst),
//   - local channels as on-tile token FIFOs with their allocated
//     capacities.
// With PE-based serialization the (de)serialization cycles are charged
// to the actor's occupancy of its PE; with a communication assist the
// CA engines charge their own time and the PE is relieved (Section 4.1).
//
// Every stage matches one actor of the Figure 4 communication model
// with identical timing parameters, and the firing rules are those of
// analysis::SelfTimedExecution, the executor the state-space analysis
// explores. So an execution of this simulator is one of the behaviours
// covered by the binding-aware SDF3 analysis: as long as every firing's
// actual cost is at most the actor's WCET, the measured throughput is
// lower-bounded by the SDF3 guarantee. That relation is the paper's
// headline claim (Figure 6) and is asserted by the integration tests.
//
// The executor is event-driven: it jumps from one completion to the
// next and re-checks only the actors a completion can enable, so a run
// costs per firing, not per simulated instant. That matters because
// the comm model moves tokens word by word: MJPEG has about 30 instants
// per application firing.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>

#include "mapping/flow.hpp"
#include "sim/behavior.hpp"

namespace mamps::sim {

struct SimOptions {
  /// Iterations discarded before measurement starts (the paper measures
  /// the long-term average to exclude initialization effects, Sec. 5).
  std::uint64_t warmupIterations = 4;
  /// Iterations in the measurement window.
  std::uint64_t measureIterations = 32;
  /// Hard cap on simulated cycles.
  std::uint64_t maxCycles = 2'000'000'000ULL;
};

struct SimResult {
  enum class Status { Ok, Deadlock, CycleLimit };
  Status status = Status::CycleLimit;

  std::uint64_t totalCycles = 0;        ///< simulated time at stop
  std::uint64_t measuredCycles = 0;     ///< length of the measurement window
  std::uint64_t measuredIterations = 0;
  /// Long-term average throughput in iterations per cycle.
  [[nodiscard]] double iterationsPerCycle() const {
    return measuredCycles == 0 ? 0.0
                               : static_cast<double>(measuredIterations) /
                                     static_cast<double>(measuredCycles);
  }

  /// Profiling: per actor, the maximum and total observed firing cost
  /// (excluding serialization) and the firing count. The maxima are the
  /// "execution time measurement" inputs of the expected-throughput
  /// analysis (Section 6.1).
  std::vector<std::uint64_t> maxFiringCycles;
  std::vector<std::uint64_t> totalFiringCycles;
  std::vector<std::uint64_t> firings;
  /// Bytes moved over the interconnect per channel (zero for local
  /// channels); used by the communication-overhead accounting.
  std::vector<std::uint64_t> interTileBytes;

  [[nodiscard]] bool ok() const { return status == Status::Ok; }
};

/// The simulated platform. Behaviors are registered per actor; actors
/// without a behavior run with their WCET as a constant cost.
class PlatformSim {
 public:
  PlatformSim(const sdf::ApplicationModel& app, const platform::Architecture& arch,
              const mapping::Mapping& mapping);
  ~PlatformSim();
  PlatformSim(const PlatformSim&) = delete;
  PlatformSim& operator=(const PlatformSim&) = delete;

  /// Attach the functional implementation of one actor.
  void setBehavior(sdf::ActorId actor, std::unique_ptr<ActorBehavior> behavior);

  /// Run the simulation; reference for iteration counting is actor 0.
  /// Throws ModelError when zero-time firings never settle within one
  /// instant (a zero-time cycle, which the analysis calls Unbounded).
  [[nodiscard]] SimResult run(const SimOptions& options = {});

  struct Impl;  // public: the engine in the implementation file uses it

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace mamps::sim
