// dse_sweep: Section 7. Each round runs exploreDesignSpace over the
// 120-point MJPEG grid (constraint 1/1,250,000, growth budget 6, WCETs
// calibrated on one of 24 seeded synthetic streams, a different one
// each round), every suite scenario over its recommended platforms x
// {PE, CA}, and the use cases' workload points, on one worker. Bound by
// analysis; never touches the simulator or the plan cache.
#include "apps/mjpeg/actors.hpp"
#include "apps/mjpeg/testdata.hpp"
#include "apps/suite/suite.hpp"
#include "apps/suite/usecases.hpp"
#include "common.hpp"
#include "mapping/dse.hpp"
#include "support/rng.hpp"
#include "step.hpp"

namespace perfbench {

using namespace mamps;

namespace {

constexpr std::size_t kTracedRounds = 8;
/// Distinct rounds: round r calibrates on seeded stream r % kCalibrations,
/// so every round's inputs recur identically kCalibrations rounds later.
/// About one stream in thirty calibrates WCETs that make 24 MJPEG points
/// miss the constraint and double the grid's analysis work, so fewer
/// streams would make the figures depend on whether a seed drew one.
constexpr std::size_t kCalibrations = 24;

enum class Group { Mjpeg, Scenario, UseCase };

/// One exploreDesignSpace call of a round.
struct Sweep {
  Group group = Group::Mjpeg;
  std::vector<const sdf::ApplicationModel*> apps;
  std::vector<mapping::DesignPoint> points;
};

/// The verdict a point is checked on: per application, mapped or not,
/// constraint met, status, rational, and buffer sizes.
struct AppVerdict {
  bool mapped = false;
  bool meets = false;
  analysis::ThroughputResult::Status status{};
  Rational rate{0};
  std::vector<std::uint64_t> local, src, dst;
  bool operator==(const AppVerdict&) const = default;
};
using PointVerdict = std::vector<AppVerdict>;

AppVerdict verdictOf(const std::optional<mapping::MappingResult>& m) {
  AppVerdict v;
  if (m) {
    v = {true,
         m->meetsConstraint,
         m->throughput.status,
         m->throughput.iterationsPerCycle,
         m->mapping.localCapacityTokens,
         m->mapping.srcBufferTokens,
         m->mapping.dstBufferTokens};
  }
  return v;
}

PointVerdict verdictOf(const mapping::DesignPointResult& p) {
  if (p.workload) {
    PointVerdict v;
    for (const auto& app : p.workload->apps) {
      v.push_back(verdictOf(app));
    }
    return v;
  }
  return {verdictOf(p.mapping)};
}

bool meets(const mapping::DesignPointResult& p) {
  return p.workload ? p.workload->meetsConstraints()
                    : (p.mapping.has_value() && p.mapping->meetsConstraint);
}

/// The models and design points every round sweeps (identical in every
/// round; rebuilt as part of each round's set-up).
struct Fixed {
  std::vector<suite::Scenario> scenarios;
  std::vector<suite::UseCase> useCases;  ///< referenced by pointer: never resized
  std::vector<Sweep> constantSweeps;     ///< scenarios and use cases
  std::vector<mapping::DesignPoint> mjpegPoints;
};

std::vector<mapping::DesignPoint> mjpegGrid() {
  std::vector<mapping::DesignPoint> points;
  for (const auto serialization :
       {comm::SerializationMode::OnProcessor, comm::SerializationMode::CommAssist}) {
    for (const auto kind : {platform::InterconnectKind::Fsl, platform::InterconnectKind::NocMesh}) {
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
  return points;
}

std::unique_ptr<Fixed> makeFixed() {
  auto f = std::make_unique<Fixed>();
  f->scenarios = suite::builtinScenarios();
  f->useCases = suite::builtinUseCases();
  for (const suite::Scenario& s : f->scenarios) {
    f->constantSweeps.push_back({Group::Scenario, {&s.model}, suite::scenarioDesignPoints(s)});
  }
  for (const suite::UseCase& u : f->useCases) {
    suite::UseCaseSweep sweep = suite::useCaseDesignPoints(u);
    f->constantSweeps.push_back({Group::UseCase, sweep.apps, std::move(sweep.points)});
  }
  f->mjpegPoints = mjpegGrid();
  return f;
}

/// The round's MJPEG model: WCETs calibrated on its seeded stream.
mjpeg::MjpegApp calibratedMjpeg(const std::vector<std::uint8_t>& stream,
                                std::vector<double>& calibrateMs) {
  const ScopedSpan span("apps.mjpeg.calibrate");
  const std::int64_t start = nowNs();
  mjpeg::MjpegApp app = mjpeg::buildMjpegApp(mjpeg::calibrateWcets(stream));
  calibrateMs.push_back(msSince(start));
  app.model.setThroughputConstraint(Rational(1, 1'250'000));
  return app;
}

std::vector<std::uint8_t> roundStream(std::uint64_t seed, std::size_t round) {
  return mjpeg::encodeSequence(
      mjpeg::makeSyntheticSequence(2, 64, 48, seed * 104'729 + round + 1), {});
}

struct RoundResult {
  std::vector<Sweep> sweeps;  ///< the round's calls, in order
  std::vector<mapping::DseResult> results;
  std::vector<double> callMs;
};

/// A round's exploreDesignSpace calls: the MJPEG grid, then the sweeps
/// every round shares.
std::vector<Sweep> roundSweeps(const Fixed& fixed, const mjpeg::MjpegApp& app) {
  std::vector<Sweep> sweeps{{Group::Mjpeg, {&app.model}, fixed.mjpegPoints}};
  sweeps.insert(sweeps.end(), fixed.constantSweeps.begin(), fixed.constantSweeps.end());
  return sweeps;
}

RoundResult runRound(const Fixed& fixed, const mjpeg::MjpegApp& app, unsigned workers,
                     const char* spanName) {
  RoundResult r;
  r.sweeps = roundSweeps(fixed, app);
  mapping::DseOptions options;
  options.threads = workers;
  for (const Sweep& sweep : r.sweeps) {
    const ScopedSpan span(spanName);
    const std::int64_t start = nowNs();
    r.results.push_back(mapping::exploreDesignSpace(sweep.apps, sweep.points, options));
    r.callMs.push_back(msSince(start));
  }
  return r;
}

std::size_t pointCount(const RoundResult& r) {
  std::size_t n = 0;
  for (const mapping::DseResult& d : r.results) {
    n += d.points.size();
  }
  return n;
}

/// The reference sweep: one worker, no incremental analysis, no shared
/// preparation, no warm starts.
std::vector<PointVerdict> referenceVerdicts(const Sweep& sweep) {
  const QuietLog quiet;
  std::vector<mapping::DesignPoint> points = sweep.points;
  for (mapping::DesignPoint& p : points) {
    p.options.incrementalAnalysis = false;
    for (mapping::MappingOptions& o : p.workloadOptions.appOptions) {
      o.incrementalAnalysis = false;
    }
    p.workloadOptions.options.incrementalAnalysis = false;
  }
  mapping::DseOptions options;
  options.threads = 1;
  options.reusePreparation = false;
  options.crossPointWarmStart = false;
  const mapping::DseResult ref = mapping::exploreDesignSpace(sweep.apps, points, options);
  std::vector<PointVerdict> out;
  for (const mapping::DesignPointResult& p : ref.points) {
    out.push_back(verdictOf(p));
  }
  return out;
}

/// Every point's verdict in a round, sweeps in call order.
std::vector<PointVerdict> verdictsOf(const RoundResult& r) {
  std::vector<PointVerdict> out;
  for (const mapping::DseResult& d : r.results) {
    for (const mapping::DesignPointResult& p : d.points) {
      out.push_back(verdictOf(p));
    }
  }
  return out;
}

/// The reference verdicts of a round's sweeps; those of the sweeps every
/// round shares are computed once, into `constantRefs`.
std::vector<PointVerdict> referenceOf(const std::vector<Sweep>& sweeps,
                                      std::vector<std::vector<PointVerdict>>& constantRefs) {
  std::vector<PointVerdict> out = referenceVerdicts(sweeps[0]);
  for (std::size_t s = 1; s < sweeps.size(); ++s) {
    if (constantRefs.size() < s) {
      constantRefs.push_back(referenceVerdicts(sweeps[s]));
    }
    out.insert(out.end(), constantRefs[s - 1].begin(), constantRefs[s - 1].end());
  }
  return out;
}

/// Fail every point of round `round` whose verdict differs from
/// `expected` (`what` names it).
void compareVerdicts(const std::vector<PointVerdict>& got,
                     const std::vector<PointVerdict>& expected, std::size_t round,
                     const std::string& what, Report& report) {
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (i >= expected.size() || !(got[i] == expected[i])) {
      report.fail("dse_sweep: point " + std::to_string(i) + " of round " + std::to_string(round) +
                  " differs from " + what);
    }
  }
}

/// One seeded MJPEG point of the round against the state-space engine.
void checkStateSpace(const RoundResult& r, Rng& rng, Report& report) {
  const mapping::DseResult& mjpeg = r.results.front();
  const auto& point = mjpeg.points[rng.range(0, mjpeg.points.size() - 1)];
  if (point.mapping && point.mapping->throughput.ok()) {
    analysis::ThroughputOptions options;
    options.engine = analysis::ThroughputEngine::StateSpace;
    const analysis::ThroughputResult ss = analysis::computeThroughput(
        point.mapping->model.graph, point.mapping->model.resources, options);
    if (!ss.ok() || ss.iterationsPerCycle != point.mapping->throughput.iterationsPerCycle) {
      report.fail("dse_sweep: point " + point.label + " disagrees with the state-space engine");
    }
  }
}

void decomposeRound(const RoundResult& r, StepStats& steps, std::vector<double>& prepareMs,
                    std::vector<double>& generateMs) {
  for (std::size_t s = 0; s < r.sweeps.size(); ++s) {
    const Sweep& sweep = r.sweeps[s];
    std::vector<mapping::AppAnalysisCache> caches;
    caches.reserve(sweep.apps.size());
    for (const sdf::ApplicationModel* app : sweep.apps) {
      const ScopedSpan span("mapping.prepare");
      const std::int64_t start = nowNs();
      caches.push_back(mapping::prepareApplication(*app));
      prepareMs.push_back(msSince(start));
    }
    for (std::size_t i = 0; i < sweep.points.size(); ++i) {
      const mapping::DesignPoint& point = sweep.points[i];
      const mapping::DesignPointResult& result = r.results[s].points[i];
      platform::Architecture arch;
      {
        const ScopedSpan span("platform.generate");
        const std::int64_t start = nowNs();
        arch = platform::generateFromTemplate(point.platform);
        generateMs.push_back(msSince(start));
      }
      if (point.workloadApps.empty()) {
        mapping::WorkloadOptions options;
        options.options = point.options;
        decomposeWorkload({&caches[0]}, arch, options, {&result.mapping}, steps);
      } else {
        std::vector<const mapping::AppAnalysisCache*> pointCaches;
        std::vector<const std::optional<mapping::MappingResult>*> real;
        for (std::size_t k = 0; k < point.workloadApps.size(); ++k) {
          pointCaches.push_back(&caches[point.workloadApps[k]]);
          real.push_back(&result.workload->apps[k]);
        }
        decomposeWorkload(pointCaches, arch, point.workloadOptions, real, steps);
      }
    }
  }
}

}  // namespace

void runDseSweep(const RunContext& ctx, Report& report) {
  // Every round sets up afresh (models, design points, the round's
  // calibration), so setup_s is the median over the whole run. The
  // seeded calibration streams are generated before anything is timed.
  std::vector<std::vector<std::uint8_t>> streams;
  for (std::size_t k = 0; k < kCalibrations; ++k) {
    streams.push_back(roundStream(ctx.seed, k));
  }
  std::vector<double> setupS, calibrateMs;
  std::unique_ptr<Fixed> fixed;
  std::unique_ptr<mjpeg::MjpegApp> app;
  const auto setUpRound = [&](std::size_t round) {
    const std::int64_t start = nowNs();
    fixed = makeFixed();
    app = std::make_unique<mjpeg::MjpegApp>(
        calibratedMjpeg(streams[round % kCalibrations], calibrateMs));
    setupS.push_back(msSince(start) * 1e-3);
  };

  Rng rng(ctx.seed * 31 + 7);
  std::vector<std::vector<PointVerdict>> constantRefs;
  const unsigned workers = ctx.dseWorkers;

  if (!ctx.trace) {
    // The MJPEG grid's points and call are distinct per calibration; the
    // shared sweeps' are the same units in every round. At least one
    // round per calibration, so every unit has a time. Each round is
    // checked against the first run of its calibration; the first runs
    // against the reference sweeps once the measured window has closed.
    UnitTimes gridPointMs, gridCallMs, sharedPointMs, sharedCallMs;
    std::vector<std::vector<PointVerdict>> firstRuns(kCalibrations);
    std::size_t points = 0, met = 0;
    const std::int64_t start = nowNs();
    for (std::size_t round = 0; round < kCalibrations || msSince(start) < ctx.seconds * 1e3;
         ++round) {
      const std::size_t k = round % kCalibrations;
      setUpRound(k);
      const RoundResult r = runRound(*fixed, *app, workers, "mapping.dse.explore");
      const std::size_t perRound = pointCount(r);
      std::size_t shared = 0;
      for (std::size_t s = 0; s < r.results.size(); ++s) {
        (s == 0 ? gridCallMs : sharedCallMs).add(s == 0 ? k : s - 1, r.callMs[s]);
        for (std::size_t i = 0; i < r.results[s].points.size(); ++i) {
          const mapping::DesignPointResult& p = r.results[s].points[i];
          if (s == 0) {
            gridPointMs.add(k * r.results[s].points.size() + i, p.seconds * 1e3);
          } else {
            sharedPointMs.add(shared++, p.seconds * 1e3);
          }
          if (round < kCalibrations) {
            met += meets(p) ? 1 : 0;
            ++points;
          }
        }
      }
      report.attempt(perRound);
      if (round < kCalibrations) {
        firstRuns[k] = verdictsOf(r);
        checkStateSpace(r, rng, report);
      } else {
        compareVerdicts(verdictsOf(r), firstRuns[k], round, "the first round on its calibration",
                        report);
      }
    }
    for (std::size_t k = 0; k < kCalibrations; ++k) {
      std::vector<double> unused;
      const mjpeg::MjpegApp calibrated = calibratedMjpeg(streams[k], unused);
      compareVerdicts(firstRuns[k], referenceOf(roundSweeps(*fixed, calibrated), constantRefs), k,
                      "the reference sweep", report);
    }
    // Every point of the distinct rounds at its median time: the shared
    // sweeps' points count once per round.
    std::vector<double> per = gridPointMs.medians();
    const std::vector<double> shared = sharedPointMs.medians();
    for (std::size_t k = 0; k < kCalibrations; ++k) {
      per.insert(per.end(), shared.begin(), shared.end());
    }
    const double roundsMs = sum(gridCallMs.medians()) +
                            static_cast<double>(kCalibrations) * sum(sharedCallMs.medians());
    setSetup(report, setupS,
             "suite + use-case models, design points, calibration; once per round");
    report.set("latency_ms_iqm", interquartileMean(per), "ms", "lower", per.size(), 0,
               "(design point as exploreDesignSpace reports it: interquartile mean)");
    setPercentile(report, "latency_ms_tail", per, 0.99, "ms", "(design point p99)");
    setRate(report, static_cast<double>(points), roundsMs,
            "(= dse_points_per_s: points per second of exploreDesignSpace calls)");
    report.set("outcome_ratio", points > 0 ? static_cast<double>(met) / points : 0, "ratio",
               "higher", points, 0, "(= dse_met_ratio)");
    report.info(gridPointMs.describe("dse_sweep MJPEG grid points (wall time)"));
    report.info(sharedPointMs.describe("dse_sweep scenario and use-case points (wall time)"));
    report.info(gridCallMs.describe("dse_sweep MJPEG grid calls (wall time)"));
    return;
  }

  tracer().enable(true);
  StepStats steps;
  std::vector<double> prepareMs, generateMs;
  std::vector<double> pointMs, poolPointMs, mjpegMs, scenarioMs, useCaseMs;
  double poolBusyS = 0, poolWallMs = 0, wallMs = 0, untracedMs = 0;
  std::size_t points = 0, feasible = 0;
  for (std::size_t round = 0; round < kTracedRounds; ++round) {
    tracer().beginOp(static_cast<std::uint32_t>(round));
    setUpRound(round);
    const RoundResult r = runRound(*fixed, *app, workers, "mapping.dse.explore");
    for (std::size_t s = 0; s < r.results.size(); ++s) {
      wallMs += r.callMs[s];
      for (const mapping::DesignPointResult& p : r.results[s].points) {
        const double ms = p.seconds * 1e3;
        pointMs.push_back(ms);
        (r.sweeps[s].group == Group::Mjpeg      ? mjpegMs
         : r.sweeps[s].group == Group::Scenario ? scenarioMs
                                                : useCaseMs)
            .push_back(ms);
        feasible += p.feasible() ? 1 : 0;
        ++points;
      }
    }
    {
      // The same sweeps untraced, right after, for the tracing overhead.
      tracer().enable(false);
      const QuietLog quiet;
      for (const double ms : runRound(*fixed, *app, workers, "").callMs) {
        untracedMs += ms;
      }
      tracer().enable(true);
    }
    report.attempt(pointCount(r));
    compareVerdicts(verdictsOf(r), referenceOf(r.sweeps, constantRefs), round,
                    "the reference sweep", report);
    checkStateSpace(r, rng, report);
    // The same sweeps on the worker pool a user gets by default, for the
    // pool's figures.
    const RoundResult pool = runRound(*fixed, *app, ctx.poolWorkers, "mapping.dse.explore_pool");
    for (std::size_t s = 0; s < pool.results.size(); ++s) {
      poolWallMs += pool.callMs[s];
      for (const mapping::DesignPointResult& p : pool.results[s].points) {
        poolPointMs.push_back(p.seconds * 1e3);
        poolBusyS += p.seconds;
      }
    }
    decomposeRound(r, steps, prepareMs, generateMs);
  }

  setPercentile(report, "mapping.dse.point_ms_p50", pointMs, 0.5, "ms");
  setPercentile(report, "mapping.dse.point_ms_p99", pointMs, 0.99, "ms");
  setPercentile(report, "mapping.dse.mjpeg_point_ms_p50", mjpegMs, 0.5, "ms");
  setPercentile(report, "mapping.dse.scenario_point_ms_p99", scenarioMs, 0.99, "ms");
  setPercentile(report, "mapping.dse.usecase_point_ms_p50", useCaseMs, 0.5, "ms");
  report.set("mapping.dse.feasible_ratio", points > 0 ? static_cast<double>(feasible) / points : 0,
             "ratio", "higher", points);
  const std::string pool = std::to_string(ctx.poolWorkers) + "-worker pool";
  report.set("mapping.dse.worker_busy_ratio",
             poolWallMs > 0 ? poolBusyS * 1e3 / (ctx.poolWorkers * poolWallMs) : 0, "ratio",
             "higher", poolPointMs.size(), 0,
             "(" + pool + ": sum of point time / (workers x sweep wall time))");
  const double p50 = median(pointMs);
  report.set("mapping.dse.parallel_slowdown", p50 > 0 ? median(poolPointMs) / p50 : 0, "ratio",
             "lower", poolPointMs.size(), 0,
             "(point p50 on the " + pool + " / point p50 on the workload's " +
                 std::to_string(workers) + " worker)");
  report.set("apps.mjpeg.calibrate_ms", mean(calibrateMs), "ms", "lower", calibrateMs.size(), 0,
             "(mean per calibrateWcets call)");
  report.set("mapping.prepare_ms", mean(prepareMs), "ms", "lower", prepareMs.size(), 0,
             "(mean per prepareApplication call)");
  setPercentile(report, "platform.generate_ms_p50", generateMs, 0.5, "ms");
  reportSteps(steps, report);
  report.set("trace_overhead_ratio", untracedMs > 0 ? wallMs / untracedMs : 0, "ratio", "lower",
             kTracedRounds, 0, "(traced / untraced exploreDesignSpace wall time, same rounds)");
}

}  // namespace perfbench
