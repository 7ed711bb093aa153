// paper_flow: the Table 1 / Figure 6 pipeline on the MJPEG case study.
// One op is generateFromTemplate (3 tiles) -> mapApplication ->
// gen::generatePlatform (in memory) -> measureAverageCosts +
// analyzeMapping -> PlatformSim with the functional decoder attached
// (8 warm-up + 64 measured iterations) on one stream. The 18 distinct
// ops are the five named test sequences and four seeded synthetic
// streams, each on FSL and on NoC; the run cycles through them.
#include <memory>

#include "apps/mjpeg/actors.hpp"
#include "apps/mjpeg/testdata.hpp"
#include "common.hpp"
#include "mamps/generator.hpp"
#include "mapping/flow.hpp"
#include "platform/arch_template.hpp"
#include "sim/platform_sim.hpp"
#include "step.hpp"

namespace perfbench {

using namespace mamps;

namespace {

constexpr std::uint32_t kWidth = 64;
constexpr std::uint32_t kHeight = 48;
constexpr std::uint32_t kFrames = 2;
constexpr std::size_t kSyntheticStreams = 4;
constexpr std::size_t kTracedOps = 126;  ///< seven cycles of the 18 distinct ops
constexpr std::size_t kOverheadOps = 18;
constexpr std::size_t kEngineOnlyEvery = 4;
/// Set-ups timed back to back before the first op and after every cycle.
constexpr std::size_t kSetupRepeats = 5;

struct Stream {
  std::string name;
  std::vector<std::uint8_t> bytes;
  std::vector<mjpeg::Frame> reference;  ///< mjpeg::referenceDecode of `bytes`
};

Stream makeStream(const std::string& name, const std::vector<mjpeg::Frame>& frames) {
  // 4:1:0 sampling keeps the VLD at its full fixed rate, as in the
  // repository's Figure 6 benches.
  mjpeg::EncoderOptions options;
  options.sampling = mjpeg::Sampling::Yuv410;
  Stream s{name, mjpeg::encodeSequence(frames, options), {}};
  s.reference = mjpeg::referenceDecode(s.bytes);
  return s;
}

/// The op sequence's streams: the five named test sequences plus
/// seeded synthetic ones (generated here, outside every timed interval).
std::vector<Stream> makeStreams(std::uint64_t seed) {
  std::vector<Stream> streams;
  for (const std::string& name : mjpeg::testSequenceNames()) {
    streams.push_back(makeStream(name, mjpeg::makeTestSequence(name, kFrames, kWidth, kHeight)));
  }
  for (std::size_t k = 0; k < kSyntheticStreams; ++k) {
    const std::uint64_t streamSeed = seed * 7919 + k + 1;
    streams.push_back(
        makeStream("synthetic#" + std::to_string(k),
                   mjpeg::makeSyntheticSequence(kFrames, kWidth, kHeight, streamSeed)));
  }
  return streams;
}

/// The distinct ops: every stream on FSL, then on NoC. Op i of a run is
/// distinct op i % count, so each repeats with identical inputs.
struct OpSpec {
  const Stream* stream = nullptr;
  platform::InterconnectKind kind = platform::InterconnectKind::Fsl;
};

std::vector<OpSpec> makeOps(const std::vector<Stream>& streams) {
  std::vector<OpSpec> ops;
  for (const Stream& stream : streams) {
    ops.push_back({&stream, platform::InterconnectKind::Fsl});
    ops.push_back({&stream, platform::InterconnectKind::NocMesh});
  }
  return ops;
}

/// The calibration set: the named sequences plus the library's default
/// synthetic stream. It does not depend on the seed, so every seed maps
/// the decoder identically.
std::vector<std::vector<std::uint8_t>> calibrationStreams(const std::vector<Stream>& streams) {
  std::vector<std::vector<std::uint8_t>> out;
  for (std::size_t i = 0; i + kSyntheticStreams < streams.size(); ++i) {
    out.push_back(streams[i].bytes);
  }
  out.push_back(makeStream("synthetic", mjpeg::makeSyntheticSequence(kFrames, kWidth, kHeight))
                    .bytes);
  return out;
}

/// Set-up a user pays once: WCET calibration (per-actor maximum over the
/// calibration set with the library's default 10 % margin, which covers
/// the seeded synthetic streams: none of seeds 2-1999 exceeds 95 % of it)
/// and the application model.
mjpeg::MjpegApp setUp(const std::vector<std::vector<std::uint8_t>>& calibration,
                      std::vector<double>& calibrateMs) {
  mjpeg::MjpegWcets w;
  for (const std::vector<std::uint8_t>& stream : calibration) {
    const ScopedSpan span("apps.mjpeg.calibrate");
    const std::int64_t start = nowNs();
    const mjpeg::MjpegWcets c = mjpeg::calibrateWcets(stream);
    calibrateMs.push_back(msSince(start));
    w = {std::max(w.vld, c.vld), std::max(w.iqzz, c.iqzz), std::max(w.idct, c.idct),
         std::max(w.cc, c.cc), std::max(w.raster, c.raster)};
  }
  return mjpeg::buildMjpegApp(w);
}

struct OpSample {
  double flowMs = 0;
  double analyzed = 0;  ///< guarantee, iterations per cycle
  double simulated = 0;
  std::uint64_t simCycles = 0;
  std::uint64_t firings = 0;
  double simRunMs = 0;
  std::size_t files = 0;
  std::size_t bytes = 0;
};

/// One op, timed around its public calls; then its output checks.
/// `arch`/`mapped` are handed back for the traced decomposition.
OpSample runOp(const mjpeg::MjpegApp& app, const OpSpec& spec, Report& report,
               platform::Architecture& arch, std::optional<mapping::MappingResult>& mapped) {
  const Stream& stream = *spec.stream;
  const platform::InterconnectKind kind = spec.kind;
  OpSample s;
  const std::int64_t start = nowNs();
  std::unique_ptr<sim::PlatformSim> simulator;
  mjpeg::MjpegBehaviors handles;
  sim::SimResult simResult;
  analysis::ThroughputResult expected;
  {
    const ScopedSpan op("paper_flow.op");
    platform::TemplateRequest request;
    request.tileCount = 3;
    request.interconnect = kind;
    {
      const ScopedSpan span("platform.generate");
      arch = platform::generateFromTemplate(request);
    }
    {
      const ScopedSpan span("mapping.map_application");
      mapped = mapping::mapApplication(app.model, arch, {});
    }
    if (!mapped) {
      report.fail("paper_flow: no mapping for " + stream.name);
      return s;
    }
    {
      const ScopedSpan span("mamps.generate");
      const gen::PlatformProject project = gen::generatePlatform(app.model, arch, mapped->mapping);
      s.files = project.files.size();
      for (const auto& [name, text] : project.files) {
        s.bytes += text.size();
      }
    }
    mjpeg::MjpegWcets costs;
    {
      const ScopedSpan span("apps.mjpeg.measure_costs");
      costs = mjpeg::measureAverageCosts(stream.bytes);
    }
    {
      const ScopedSpan span("analysis.expected");
      expected = mapping::analyzeMapping(app.model, arch, mapped->mapping,
                                         {costs.vld, costs.iqzz, costs.idct, costs.cc,
                                          costs.raster});
    }
    {
      const ScopedSpan span("sim.construct");
      simulator = std::make_unique<sim::PlatformSim>(app.model, arch, mapped->mapping);
    }
    {
      const ScopedSpan span("apps.mjpeg.attach");
      handles = mjpeg::attachMjpegBehaviors(*simulator, app, stream.bytes);
    }
    {
      const ScopedSpan span("sim.run");
      const std::int64_t runStart = nowNs();
      sim::SimOptions options;
      options.warmupIterations = 8;
      options.measureIterations = 64;
      simResult = simulator->run(options);
      s.simRunMs = msSince(runStart);
    }
  }
  s.flowMs = msSince(start);

  // Output checks (outside the timed interval).
  s.analyzed = mapped->throughput.iterationsPerCycle.toDouble();
  s.simulated = simResult.iterationsPerCycle();
  s.simCycles = simResult.totalCycles;
  for (const std::uint64_t f : simResult.firings) {
    s.firings += f;
  }
  const std::string what = "paper_flow " + stream.name + "/" +
                           std::string(platform::interconnectKindName(kind)) + ": ";
  if (!mapped->throughput.ok()) {
    report.fail(what + "no analyzed guarantee");
  } else if (!simResult.ok()) {
    report.fail(what + "simulation did not finish");
  } else if (s.simulated < s.analyzed * (1 - 1e-9)) {
    report.fail(what + "simulated throughput below the guarantee (Figure 6)");
  } else if (!expected.ok() ||
             expected.iterationsPerCycle < mapped->throughput.iterationsPerCycle) {
    report.fail(what + "expected throughput below the guarantee");
  } else {
    const std::vector<mjpeg::Frame>& decoded = handles.raster->frames();
    bool identical = decoded.size() >= stream.reference.size();
    for (std::size_t f = 0; identical && f < decoded.size(); ++f) {
      identical = decoded[f].rgb == stream.reference[f % stream.reference.size()].rgb;
    }
    if (!identical) {
      report.fail(what + "decoded frames differ from mjpeg::referenceDecode");
    }
  }
  return s;
}

}  // namespace

void runPaperFlow(const RunContext& ctx, Report& report) {
  const std::vector<Stream> streams = makeStreams(ctx.seed);
  const std::vector<std::vector<std::uint8_t>> calibration = calibrationStreams(streams);
  const std::vector<OpSpec> ops = makeOps(streams);

  // Set-up before the first op, and again after every cycle of ops, so
  // its median (setup_s) samples the whole run rather than its first
  // milliseconds.
  std::vector<double> setupS;
  std::vector<double> calibrateMs;
  mjpeg::MjpegApp app;
  const auto setUpRepeated = [&] {
    for (std::size_t r = 0; r < kSetupRepeats; ++r) {
      const std::int64_t start = nowNs();
      app = setUp(calibration, calibrateMs);
      setupS.push_back(msSince(start) * 1e-3);
    }
  };
  setUpRepeated();

  if (!ctx.trace) {
    // At least one whole cycle, so every distinct op has a time.
    UnitTimes flow;
    double tightnessSum = 0;
    const std::int64_t start = nowNs();
    for (std::size_t i = 0; i < ops.size() || msSince(start) < ctx.seconds * 1e3; ++i) {
      platform::Architecture arch;
      std::optional<mapping::MappingResult> mapped;
      report.attempt();
      const std::size_t failedBefore = report.failed();
      const OpSample s = runOp(app, ops[i % ops.size()], report, arch, mapped);
      if (report.failed() == failedBefore) {
        flow.add(i % ops.size(), s.flowMs);
        tightnessSum += i < ops.size() ? s.analyzed / s.simulated : 0;
      }
      if ((i + 1) % ops.size() == 0) {
        setUpRepeated();
      }
    }
    setSetup(report, setupS, "WCET calibration + model construction");
    const std::vector<double> per = flow.medians();
    report.set("latency_ms_iqm", interquartileMean(per), "ms", "lower", per.size(), 0,
               "(flow op: interquartile mean of the distinct ops' median times)");
    report.set("latency_ms_tail", slowestQuarterMean(per), "ms", "lower", per.size(), 0,
               "(mean of the slowest quarter of the distinct ops' median times)");
    setRate(report, static_cast<double>(ops.size()), sum(per),
            "(flow ops per second, each distinct op once at its median time)");
    report.set("outcome_ratio", tightnessSum / static_cast<double>(ops.size()), "ratio", "higher",
               ops.size(), 0, "(= guarantee_tightness: mean analyzed / simulated throughput)");
    report.info(flow.describe("paper_flow ops (wall time)"));
    return;
  }

  // Traced run: a fixed quota of ops, each followed (outside its op
  // span) by the decomposed mapping step and, every few ops, the same
  // simulation with no behaviours attached.
  tracer().enable(true);
  StepStats steps;
  std::vector<double> opMs, simRunMs, engineOnlyMs, prepareMs;
  std::vector<double> files, bytes;
  std::uint64_t cycles = 0, firings = 0;
  double runMsSum = 0, tracedSum = 0, untracedSum = 0;
  for (std::size_t i = 0; i < kTracedOps; ++i) {
    if (i < kOverheadOps) {
      // The same op untraced, right before the traced one, for the
      // tracing overhead.
      tracer().enable(false);
      const QuietLog quiet;
      platform::Architecture arch;
      std::optional<mapping::MappingResult> mapped;
      Report discarded;
      untracedSum += runOp(app, ops[i % ops.size()], discarded, arch, mapped).flowMs;
      tracer().enable(true);
    }
    tracer().beginOp(static_cast<std::uint32_t>(i));
    platform::Architecture arch;
    std::optional<mapping::MappingResult> mapped;
    report.attempt();
    const OpSample s = runOp(app, ops[i % ops.size()], report, arch, mapped);
    tracedSum += i < kOverheadOps ? s.flowMs : 0;
    opMs.push_back(s.flowMs);
    simRunMs.push_back(s.simRunMs);
    files.push_back(static_cast<double>(s.files));
    bytes.push_back(static_cast<double>(s.bytes));
    cycles += s.simCycles;
    firings += s.firings;
    runMsSum += s.simRunMs;
    if (!mapped) {
      continue;
    }
    mapping::AppAnalysisCache cache;
    {
      const ScopedSpan span("mapping.prepare");
      const std::int64_t start = nowNs();
      cache = mapping::prepareApplication(app.model);
      prepareMs.push_back(msSince(start));
    }
    decomposeWorkload({&cache}, arch, mapping::WorkloadOptions{}, {&mapped}, steps);
    if (i % kEngineOnlyEvery == 0) {
      const ScopedSpan span("sim.engine_only");
      const std::int64_t start = nowNs();
      sim::PlatformSim bare(app.model, arch, mapped->mapping);
      sim::SimOptions options;
      options.warmupIterations = 8;
      options.measureIterations = 64;
      if (!bare.run(options).ok()) {
        report.fail("paper_flow: engine-only simulation did not finish");
      }
      engineOnlyMs.push_back(msSince(start));
    }
  }

  std::vector<std::uint32_t> opIds(kTracedOps);
  for (std::uint32_t i = 0; i < kTracedOps; ++i) {
    opIds[i] = i;
  }
  const std::map<std::string, double> self = tracer().selfByName(opIds, "paper_flow.op");
  double total = 0, simSelf = 0;
  std::vector<double> construct, generate, mamps, measure, expected;
  for (const auto& [name, ms] : self) {
    total += ms;
    simSelf += name.rfind("sim.", 0) == 0 ? ms : 0;
  }
  const std::vector<Span>& spans = tracer().spans();
  for (std::size_t k = 0; k < spans.size(); ++k) {
    const std::string name = spans[k].name;
    const double ms = (spans[k].endNs - spans[k].startNs) * 1e-6;
    if (name == "sim.construct") construct.push_back(ms);
    if (name == "platform.generate") generate.push_back(ms);
    if (name == "mamps.generate") mamps.push_back(ms);
    if (name == "apps.mjpeg.measure_costs") measure.push_back(ms);
    if (name == "analysis.expected") expected.push_back(ms);
  }
  std::string breakdown = "paper_flow op self time by span:";
  for (const auto& [name, ms] : self) {
    char part[96];
    std::snprintf(part, sizeof part, " %s=%.1f%%", name.c_str(), total > 0 ? 100 * ms / total : 0);
    breakdown += part;
  }
  report.info(breakdown);

  setPercentile(report, "sim.construct_ms_p50", construct, 0.5, "ms");
  setPercentile(report, "sim.run_ms_p50", simRunMs, 0.5, "ms");
  setPercentile(report, "sim.run_ms_p90", simRunMs, 0.9, "ms");
  setPercentile(report, "sim.engine_only_ms_p50", engineOnlyMs, 0.5, "ms",
                "(same mapping, no behaviours attached)");
  report.set("sim.mcycles_per_s", runMsSum > 0 ? cycles / (runMsSum * 1e3) : 0, "Mcycle/s",
             "higher", simRunMs.size(), 0, "(simulated cycles per host second)");
  report.set("sim.host_us_per_firing", firings > 0 ? runMsSum * 1e3 / firings : 0, "us", "lower",
             simRunMs.size());
  report.set("sim.flow_share", total > 0 ? simSelf / total : 0, "ratio", "lower", opMs.size(), 0,
             "(sim span self time / op time)");
  setPercentile(report, "mamps.generate_ms_p50", mamps, 0.5, "ms");
  report.set("mamps.files", median(files), "count", "lower", files.size(), 0.5);
  report.set("mamps.bytes", median(bytes), "bytes", "lower", bytes.size(), 0.5);
  report.set("apps.mjpeg.calibrate_ms", mean(calibrateMs), "ms", "lower", calibrateMs.size(), 0,
             "(mean per calibrateWcets call)");
  setPercentile(report, "apps.mjpeg.measure_costs_ms_p50", measure, 0.5, "ms");
  setPercentile(report, "platform.generate_ms_p50", generate, 0.5, "ms");
  setPercentile(report, "analysis.expected_ms_p50", expected, 0.5, "ms");
  report.set("mapping.prepare_ms", mean(prepareMs), "ms", "lower", prepareMs.size(), 0,
             "(mean per prepareApplication call)");
  reportSteps(steps, report);
  report.set("trace_overhead_ratio", untracedSum > 0 ? tracedSum / untracedSum : 0, "ratio",
             "lower", kOverheadOps, 0, "(traced / untraced op time, same ops)");
}

}  // namespace perfbench
