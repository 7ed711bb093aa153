// Ablation: the throughput engines of the analysis module — the
// self-timed state-space exploration (exponential in graph size) and
// the maximum-cycle-ratio fast path on the HSDF expansion (polynomial),
// plus the unified computeThroughput entry point that picks between
// them. The engines compute identical values (asserted in the test
// suite); this bench compares their runtime as graphs grow, using
// google-benchmark. The BENCH_throughput.json trajectory at the repo
// root records these numbers across PRs. After the benchmarks, a perf
// regression gate re-times the unified MCR fast path directly and
// exits non-zero when the mean per-analysis latency exceeds 1.5x the
// committed trajectory's latest entry — wins recorded in
// BENCH_throughput.json cannot silently rot.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "analysis/buffer.hpp"
#include "analysis/mcm.hpp"
#include "analysis/throughput.hpp"
#include "sdf/graph.hpp"
#include "support/rng.hpp"

using namespace mamps;

namespace {

/// A ring of `n` actors with `tokens` initial tokens on the closing
/// edge and pseudo-random execution times.
sdf::TimedGraph makeRing(std::uint32_t n, std::uint64_t tokens, std::uint64_t seed) {
  Rng rng(seed);
  sdf::Graph g("ring");
  std::vector<sdf::ActorId> ids;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string actorName = "r";
    actorName += std::to_string(i);
    ids.push_back(g.addActor(std::move(actorName)));
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    g.connect(ids[i], 1, ids[(i + 1) % n], 1, (i + 1 == n) ? tokens : 0);
  }
  sdf::TimedGraph timed;
  timed.graph = std::move(g);
  for (std::uint32_t i = 0; i < n; ++i) {
    timed.execTime.push_back(rng.range(1, 50));
  }
  return timed;
}

/// Static-order resource constraints for a ring: actors are bound
/// round-robin to `resourceCount` shared resources, scheduled in ring
/// order (q is all-ones, so each actor appears once).
analysis::ResourceConstraints makeRingResources(std::uint32_t n, std::uint32_t resourceCount) {
  analysis::ResourceConstraints resources;
  resources.actorResource.resize(n);
  resources.staticOrder.resize(resourceCount);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t r = i % resourceCount;
    resources.actorResource[i] = r;
    resources.staticOrder[r].push_back(i);
  }
  return resources;
}

void BM_StateSpaceThroughput(benchmark::State& state) {
  const auto timed = makeRing(static_cast<std::uint32_t>(state.range(0)),
                              static_cast<std::uint64_t>(state.range(1)), 42);
  analysis::ThroughputOptions options;
  options.engine = analysis::ThroughputEngine::StateSpace;
  for (auto _ : state) {
    const auto result = analysis::computeThroughput(timed, options);
    benchmark::DoNotOptimize(result.iterationsPerCycle);
  }
}
BENCHMARK(BM_StateSpaceThroughput)->Args({4, 1})->Args({8, 2})->Args({16, 4})->Args({32, 8})->Args({64, 16});

void BM_McrThroughput(benchmark::State& state) {
  const auto timed = makeRing(static_cast<std::uint32_t>(state.range(0)),
                              static_cast<std::uint64_t>(state.range(1)), 42);
  for (auto _ : state) {
    const auto result = analysis::computeThroughputMcr(timed);
    benchmark::DoNotOptimize(result.iterationsPerCycle);
  }
}
BENCHMARK(BM_McrThroughput)
    ->Args({4, 1})
    ->Args({8, 2})
    ->Args({16, 4})
    ->Args({32, 8})
    ->Args({64, 16})
    ->Args({128, 32})
    ->Args({256, 64});

void BM_UnifiedThroughput(benchmark::State& state) {
  // The default entry point: Auto engine selection (these graphs take
  // the MCR fast path — asserted below via the engine field).
  const auto timed = makeRing(static_cast<std::uint32_t>(state.range(0)),
                              static_cast<std::uint64_t>(state.range(1)), 42);
  for (auto _ : state) {
    const auto result = analysis::computeThroughput(timed);
    benchmark::DoNotOptimize(result.iterationsPerCycle);
    if (result.engine != analysis::ThroughputEngine::Mcr) {
      state.SkipWithError("expected the MCR fast path");
    }
  }
}
BENCHMARK(BM_UnifiedThroughput)->Args({64, 16})->Args({128, 32})->Args({256, 64});

void BM_ScheduledThroughput(benchmark::State& state) {
  // Resource-constrained analysis (the flow's hot path on binding-aware
  // graphs): ring actors shared across 4 static-order resources.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto timed = makeRing(n, static_cast<std::uint64_t>(state.range(1)), 42);
  const auto resources = makeRingResources(n, 4);
  for (auto _ : state) {
    const auto result = analysis::computeThroughput(timed, resources);
    benchmark::DoNotOptimize(result.iterationsPerCycle);
    if (result.engine != analysis::ThroughputEngine::Mcr) {
      state.SkipWithError("expected the MCR fast path");
    }
  }
}
BENCHMARK(BM_ScheduledThroughput)->Args({64, 16})->Args({128, 32})->Args({256, 64});

void BM_BufferSizing(benchmark::State& state) {
  const auto timed = makeRing(static_cast<std::uint32_t>(state.range(0)), 2, 7);
  for (auto _ : state) {
    const auto result = analysis::minimalDeadlockFreeCapacities(timed.graph);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_BufferSizing)->Arg(4)->Arg(8)->Arg(16);

/// Perf regression gate: mean wall time per computeThroughput call on
/// the unified MCR fast path over the three trajectory ring sizes,
/// against 1.5x the mean of the committed trajectory's latest
/// unified_auto entry (BENCH_throughput.json, PR 10). Update the
/// constant when appending an entry.
int runRegressionGate() {
  constexpr double kCommittedMeanMs = 0.13;
  constexpr double kGateFactor = 1.5;
  constexpr int kReps = 20;
  double totalMs = 0.0;
  int solves = 0;
  for (const std::uint32_t n : {64u, 128u, 256u}) {
    const auto timed = makeRing(n, n / 4, 42);
    auto warmup = analysis::computeThroughput(timed);
    benchmark::DoNotOptimize(warmup);
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kReps; ++i) {
      auto result = analysis::computeThroughput(timed);
      benchmark::DoNotOptimize(result);
    }
    const auto end = std::chrono::steady_clock::now();
    totalMs += std::chrono::duration<double, std::milli>(end - start).count();
    solves += kReps;
  }
  const double meanMs = totalMs / solves;
  const double limitMs = kGateFactor * kCommittedMeanMs;
  std::fprintf(stderr, "perf gate: unified MCR mean %.3f ms per analysis (limit %.3f ms)\n",
               meanMs, limitMs);
  if (meanMs > limitMs) {
    std::fprintf(stderr, "perf gate FAILED: regression vs committed trajectory\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return runRegressionGate();
}
