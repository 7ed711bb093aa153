// DSE engine benchmark: sweep >= 100 MJPEG design points three times in
// the same run — once with the serial from-scratch baseline (no shared
// application preparation, every buffer-growth round rebuilds the
// binding-aware model and runs a cold analysis), then with the engine
// (shared AppAnalysisCache, incremental re-analysis with warm-started
// Howard) on one worker and on a pool of hardware_concurrency workers —
// and verify that all three sweeps' throughput rationals are
// bit-identical. Prints one JSON object to stdout; the trajectory at
// ../BENCH_dse.json records these numbers across PRs. Exits non-zero
// when the sweeps disagree, or when the one-worker engine's mean
// per-point latency exceeds 1.5x the committed trajectory's latest
// entry, which was measured on one core (the perf regression gate —
// wins recorded in BENCH_dse.json cannot silently rot). The pool's
// per-point latency and speedup are printed but not gated: they depend
// on how many cores the host lends the process at that moment.
#include <algorithm>
#include <cstdio>
#include <thread>

#include "apps/mjpeg/actors.hpp"
#include "apps/mjpeg/testdata.hpp"
#include "mapping/dse.hpp"

using namespace mamps;

int main() {
  const auto calibration = mjpeg::encodeSequence(mjpeg::makeSyntheticSequence(2, 64, 48), {});
  mjpeg::MjpegApp app = mjpeg::buildMjpegApp(mjpeg::calibrateWcets(calibration));
  // Demand a throughput most configurations only reach after several
  // buffer-growth rounds (and single-tile ones never do), so every
  // design point exercises the re-analysis loop the engine accelerates.
  app.model.setThroughputConstraint(Rational(1, 1'250'000));

  std::vector<mapping::DesignPoint> points;
  for (const auto serialization :
       {comm::SerializationMode::OnProcessor, comm::SerializationMode::CommAssist}) {
    for (const auto kind :
         {platform::InterconnectKind::Fsl, platform::InterconnectKind::NocMesh}) {
      for (std::uint32_t tiles = 1; tiles <= 5; ++tiles) {
        for (const std::uint32_t scale : {1u, 2u}) {
          for (const std::uint32_t wires : {8u, 4u, 2u}) {
            mapping::DesignPoint point;
            point.platform.tileCount = tiles;
            point.platform.interconnect = kind;
            point.options.serialization = serialization;
            point.options.initialBufferScale = scale;
            point.options.nocWiresPerConnection = wires;
            point.options.bufferGrowthRounds = 6;
            points.push_back(point);
          }
        }
      }
    }
  }

  // Baseline: serial, from-scratch, no reuse anywhere.
  std::vector<mapping::DesignPoint> baselinePoints = points;
  for (mapping::DesignPoint& point : baselinePoints) {
    point.options.incrementalAnalysis = false;
  }
  mapping::DseOptions serialOptions;
  serialOptions.threads = 1;
  serialOptions.reusePreparation = false;
  const mapping::DseResult baseline =
      mapping::exploreDesignSpace(app.model, baselinePoints, serialOptions);

  // The engine: incremental re-analysis and shared preparation, on one
  // worker (the gated sweep) and on a worker pool.
  mapping::DseOptions oneWorker;
  oneWorker.threads = 1;
  const mapping::DseResult engine = mapping::exploreDesignSpace(app.model, points, oneWorker);
  mapping::DseOptions poolOptions;
  poolOptions.threads = static_cast<unsigned>(
      std::min<std::size_t>(std::max(1u, std::thread::hardware_concurrency()), points.size()));
  const mapping::DseResult pooled = mapping::exploreDesignSpace(app.model, points, poolOptions);

  const auto sameResults = [](const mapping::DseResult& x, const mapping::DseResult& y) {
    if (x.points.size() != y.points.size()) {
      return false;
    }
    for (std::size_t i = 0; i < x.points.size(); ++i) {
      const auto& b = x.points[i];
      const auto& e = y.points[i];
      if (b.feasible() != e.feasible()) {
        return false;
      }
      if (e.feasible() &&
          !(b.mapping->throughput.status == e.mapping->throughput.status &&
            b.mapping->throughput.iterationsPerCycle == e.mapping->throughput.iterationsPerCycle &&
            b.mapping->meetsConstraint == e.mapping->meetsConstraint &&
            b.mapping->mapping.localCapacityTokens == e.mapping->mapping.localCapacityTokens &&
            b.mapping->mapping.srcBufferTokens == e.mapping->mapping.srcBufferTokens)) {
        return false;
      }
    }
    return true;
  };
  const bool identical = sameResults(baseline, engine) && sameResults(baseline, pooled);
  std::size_t met = 0;
  for (const auto& point : engine.points) {
    met += point.feasible() && point.mapping->meetsConstraint ? 1 : 0;
  }

  // Perf regression gate: the committed trajectory's latest
  // engine_mean_point_ms (BENCH_dse.json, the 2026-08-08 entry, measured
  // on one core) with 1.5x headroom for host variance, against the
  // one-worker sweep so that like is compared with like. Update the
  // constant when appending an entry.
  constexpr double kCommittedMeanPointMs = 0.95;
  constexpr double kGateFactor = 1.5;
  const double meanPointMs = engine.meanPointSeconds() * 1e3;
  const bool withinBudget = meanPointMs <= kGateFactor * kCommittedMeanPointMs;

  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  std::printf("{\n");
  std::printf("  \"bench\": \"bench_dse\",\n");
  std::printf("  \"workload\": \"MJPEG decoder, constraint 1/1250000, growth budget 6\",\n");
  std::printf("  \"points\": %zu,\n", points.size());
  std::printf("  \"feasible\": %zu,\n", engine.feasibleCount());
  std::printf("  \"meets_constraint\": %zu,\n", met);
  std::printf("  \"baseline_workers\": %u,\n", serialOptions.threads);
  std::printf("  \"baseline_seconds\": %.3f,\n", baseline.totalSeconds);
  std::printf("  \"engine_workers\": %u,\n", oneWorker.threads);
  std::printf("  \"engine_seconds\": %.3f,\n", engine.totalSeconds);
  std::printf("  \"engine_mean_point_ms\": %.2f,\n", meanPointMs);
  std::printf("  \"speedup\": %.2f,\n", ratio(baseline.totalSeconds, engine.totalSeconds));
  std::printf("  \"pooled_workers\": %u,\n", poolOptions.threads);
  std::printf("  \"pooled_seconds\": %.3f,\n", pooled.totalSeconds);
  std::printf("  \"pooled_mean_point_ms\": %.2f,\n", pooled.meanPointSeconds() * 1e3);
  std::printf("  \"pooled_speedup_over_one_worker\": %.2f,\n",
              ratio(engine.totalSeconds, pooled.totalSeconds));
  std::printf("  \"identical_rationals\": %s,\n", identical ? "true" : "false");
  std::printf("  \"perf_gate_limit_ms\": %.2f,\n", kGateFactor * kCommittedMeanPointMs);
  std::printf("  \"perf_within_budget\": %s\n", withinBudget ? "true" : "false");
  std::printf("}\n");
  return identical && withinBudget ? 0 : 1;
}
