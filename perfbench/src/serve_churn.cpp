// serve_churn: online admission under tile faults on three platforms,
// each with one long-lived AdmissionController serving seeded event
// scripts from the suite churn mix back to back (departure chance 0.45,
// tile-fault chance 0.05, repair chance 0.25). Every trace ends with
// repair-all and a drain, so the run can replay its six passes of
// scripts in turn with identical decisions. Every fault and repair bumps
// the plan-cache epoch, so most decisions run the mapping step cold.
#include <algorithm>
#include <limits>
#include <memory>
#include <optional>

#include "apps/suite/churn.hpp"
#include "common.hpp"
#include "mapping/admission.hpp"
#include "platform/arch_template.hpp"
#include "support/rng.hpp"
#include "step.hpp"

namespace perfbench {

using namespace mamps;
using mapping::ClientId;

namespace {

constexpr double kDepartChance = 0.45;
constexpr double kFaultChance = 0.05;
constexpr double kRepairChance = 0.25;
constexpr std::size_t kEvents = 300;  ///< per platform and trace
/// Distinct passes, each one script per platform; the run replays them.
constexpr std::size_t kPasses = 6;
/// Set-ups timed (and discarded) after every pass, for setup_s.
constexpr std::size_t kSetupRepeats = 3;
constexpr std::size_t kTracedPasses = 3;
constexpr std::size_t kPlanCacheCapacity = 1024;
/// Client id of the benchmark's own trial steps; the controllers number
/// clients from 0 and never reach it.
constexpr std::uint32_t kTrialClient = 1u << 30;

/// One platform: its architecture, application mix, and controller.
struct Served {
  std::uint16_t index = 0;
  std::string name;
  platform::Architecture arch;
  suite::ChurnWorkload workload;
  std::unique_ptr<mapping::AdmissionController> controller;
};

std::vector<std::unique_ptr<Served>> makePlatforms() {
  struct Spec {
    const char* name;
    platform::TemplateRequest request;
    std::uint32_t spareTiles;
    bool tdm;
  };
  const Spec specs[] = {
      {"mesh12", platform::largeMeshPreset(12), 2, false},
      {"hetero4", platform::heterogeneousPreset(4, {"accel"}), 1, false},
      {"tdm_mesh12", platform::withTdm(platform::largeMeshPreset(12), 4, 200), 2, true},
  };
  std::vector<std::unique_ptr<Served>> out;
  for (const Spec& spec : specs) {
    auto s = std::make_unique<Served>();
    s->index = static_cast<std::uint16_t>(out.size());
    s->name = spec.name;
    s->arch = platform::generateFromTemplate(spec.request);
    s->workload = spec.tdm ? suite::suiteTdmChurnWorkload(4, 2) : suite::suiteChurnWorkload(2);
    mapping::AdmissionOptions options;
    options.recovery.spareTiles = spec.spareTiles;
    options.planCacheCapacity = kPlanCacheCapacity;
    s->controller = std::make_unique<mapping::AdmissionController>(s->arch, options);
    out.push_back(std::move(s));
  }
  return out;
}

/// One pre-drawn event: the random numbers runChurnTrace would draw,
/// resolved against the live state when the event runs.
struct Draw {
  double repair = 0;
  double fault = 0;
  double depart = 0;
  std::uint64_t pick = 0;
  std::uint64_t app = 0;
};

std::vector<Draw> makeScript(std::uint64_t seed, std::size_t pass, std::size_t platform) {
  Rng rng(seed * 1'000'003 + pass * 101 + platform + 1);
  std::vector<Draw> script(kEvents);
  for (Draw& d : script) {
    d = {rng.uniform(), rng.uniform(), rng.uniform(), rng.next(), rng.next()};
  }
  return script;
}

/// An admit's op class: platform, application, plan-cache hit or miss.
std::uint16_t classOf(const Served& s, std::size_t app, bool hit) {
  return static_cast<std::uint16_t>((s.index * 16 + app) * 2 + (hit ? 1 : 0));
}

std::string className(const std::vector<std::unique_ptr<Served>>& platforms, std::uint16_t id) {
  const Served& s = *platforms[id / 32];
  return s.name + "/" + s.workload.names[(id / 2) % 16] + (id % 2 != 0 ? "/hit" : "/miss");
}

/// Measurements pooled over platforms and traces.
struct Samples {
  std::vector<double> admitMs;
  std::vector<std::uint16_t> admitClass;  ///< classOf each admitMs sample
  std::vector<double> hitMs, missMs, missOverheadMs, departMs, repairMs, recoveryMs, copyUs;
  double callMs = 0;
  std::size_t events = 0, arrivals = 0, admitted = 0, rejected = 0, hits = 0;
  std::size_t stranded = 0, recovered = 0;
  std::uint32_t nextOp = 0;
  std::uint16_t attributedClass = 0;    ///< traced: the class whose misses are attributed
  std::vector<std::uint32_t> classOps;  ///< traced: ops of that class
};

/// One timed call of a trace, as the trace's first run made it.
struct Call {
  char kind = 0;          ///< 'a' admit, 'd' depart, 'f' fault, 'r' repair
  std::uint16_t cls = 0;  ///< admits: classOf
  bool admitted = false;
  bool operator==(const Call&) const = default;
};

/// The calls one script makes on one platform, in order, with each
/// call's timings over the script's replays.
struct TraceLog {
  std::vector<Call> calls;
  UnitTimes ms;
  std::size_t runs = 0;
};

void checkResidents(const Served& s, Report& report) {
  const mapping::AdmissionController& c = *s.controller;
  if (!c.budget().strandedClients().empty()) {
    report.fail(s.name + ": a resident still references a failed tile after recovery");
  }
  for (const ClientId id : c.residentIds()) {
    if (!c.resident(id).meetsConstraint) {
      report.fail(s.name + ": resident " + std::to_string(id) + " misses its constraint");
    }
  }
}

/// Run one trace on one platform: the scripted events, then repair-all
/// and a drain. Each library call is timed on its own. With `steps`
/// (traced run), every miss is also decomposed into those stage counters.
/// With `log`, the first run of the script records its calls and every
/// replay must make the same ones.
void runTrace(Served& s, const std::vector<Draw>& script, StepStats* steps, Samples& out,
              Report& report, TraceLog* log) {
  mapping::AdmissionController& c = *s.controller;
  std::vector<ClientId> residents;
  std::vector<platform::TileId> failed;
  const std::size_t tileCount = s.arch.tileCount();
  std::size_t calls = 0;
  bool diverged = false;
  const auto logCall = [&](const Call& call, double ms) {
    if (log == nullptr) {
      return;
    }
    if (log->runs == 0) {
      log->calls.push_back(call);
    } else if (calls >= log->calls.size() || !(log->calls[calls] == call)) {
      diverged = true;
    }
    log->ms.add(calls++, ms);
  };

  const auto timed = [&](const char* name, auto&& call) {
    tracer().beginOp(out.nextOp++);
    const ScopedSpan span(name);
    const std::int64_t start = nowNs();
    call();
    const double ms = msSince(start);
    out.callMs += ms;
    ++out.events;
    report.attempt();
    return ms;
  };
  const auto departAt = [&](std::size_t pick) {
    const ClientId id = residents[pick];
    out.departMs.push_back(timed("mapping.admission.depart", [&] { c.depart(id); }));
    logCall({'d'}, out.departMs.back());
    residents.erase(residents.begin() + static_cast<std::ptrdiff_t>(pick));
  };
  const auto repairAt = [&](std::size_t pick) {
    const platform::TileId tile = failed[pick];
    out.repairMs.push_back(timed("mapping.admission.repair", [&] {
      c.repair(mapping::FaultEvent::tileFailure(tile));
    }));
    logCall({'r'}, out.repairMs.back());
    failed.erase(failed.begin() + static_cast<std::ptrdiff_t>(pick));
  };

  for (const Draw& d : script) {
    try {
      if (!failed.empty() && d.repair < kRepairChance) {
        repairAt(d.pick % failed.size());
        continue;
      }
      if (failed.size() + 1 < tileCount && d.fault < kFaultChance) {
        std::vector<platform::TileId> healthy;
        for (platform::TileId t = 0; t < tileCount; ++t) {
          if (!c.budget().tileFailed(t)) {
            healthy.push_back(t);
          }
        }
        const platform::TileId tile = healthy[d.pick % healthy.size()];
        mapping::RecoveryReport rec;
        out.recoveryMs.push_back(timed("mapping.admission.inject_fault", [&] {
          rec = c.injectFault(mapping::FaultEvent::tileFailure(tile));
        }));
        logCall({'f'}, out.recoveryMs.back());
        failed.push_back(tile);
        out.stranded += rec.stranded.size();
        out.recovered += rec.recovered.size();
        for (const ClientId lost : rec.degraded) {
          residents.erase(std::remove(residents.begin(), residents.end(), lost),
                          residents.end());
        }
        checkResidents(s, report);
        continue;
      }
      if (!residents.empty() && d.depart < kDepartChance) {
        departAt(d.pick % residents.size());
        continue;
      }
      const std::size_t appIndex = d.app % s.workload.caches.size();
      const mapping::AppAnalysisCache& app = s.workload.caches[appIndex];
      const mapping::MappingOptions& options = s.workload.options[appIndex];
      std::optional<platform::ResourceBudget> before;
      if (steps != nullptr) {
        const std::int64_t start = nowNs();
        before.emplace(c.budget());
        out.copyUs.push_back(msSince(start) * 1e3);
      }
      mapping::AdmissionDecision decision;
      const std::uint32_t op = out.nextOp;
      const double ms = timed("mapping.admission.admit", [&] { decision = c.admit(app, options); });
      const std::uint16_t cls = classOf(s, appIndex, decision.planCacheHit);
      logCall({'a', cls, decision.admitted()}, ms);
      out.admitMs.push_back(ms);
      out.admitClass.push_back(cls);
      ++out.arrivals;
      (decision.planCacheHit ? out.hitMs : out.missMs).push_back(ms);
      out.hits += decision.planCacheHit ? 1 : 0;
      if (decision.admitted()) {
        ++out.admitted;
        residents.push_back(*decision.client);
        if (!decision.result->meetsConstraint) {
          report.fail(s.name + ": admitted client misses its constraint");
        }
      } else {
        ++out.rejected;
      }
      if (steps != nullptr && !decision.planCacheHit) {
        // The mapping step on a copy of the same budget: the real call,
        // then its stage-by-stage decomposition, which must agree.
        const QuietLog quiet;
        tracer().beginOp(op);
        platform::ResourceBudget realCopy = *before;
        std::optional<mapping::MappingResult> real;
        const std::int64_t start = nowNs();
        {
          const ScopedSpan span("mapping.map_onto_budget");
          real = mapping::mapOntoBudget(app, s.arch, options, realCopy, kTrialClient);
        }
        out.missOverheadMs.push_back(ms - msSince(start));
        platform::ResourceBudget stepCopy = *before;
        const StepOutcome step =
            decomposedStep(app, s.arch, options, stepCopy, kTrialClient, *steps);
        if (!sameOutcome(step, real)) {
          ++steps->mismatches;
        }
        if (cls == out.attributedClass) {
          out.classOps.push_back(op);
        }
      }
    } catch (const std::exception& e) {
      report.fail(s.name + ": call threw: " + e.what());
    }
  }
  try {
    while (!failed.empty()) {
      repairAt(failed.size() - 1);
    }
    while (!residents.empty()) {
      departAt(residents.size() - 1);
    }
    if (!c.pristine()) {
      report.fail(s.name + ": the drained platform is not pristine");
    }
  } catch (const std::exception& e) {
    report.fail(s.name + ": repair/drain threw: " + e.what());
  }
  if (log != nullptr) {
    if (diverged || calls != log->calls.size()) {
      report.fail(s.name + ": a replayed script made other calls than its first run");
    }
    ++log->runs;
  }
}

/// Where a pooled admission percentile lands: the class of the sample at
/// the rank and the most common class beyond it.
std::string percentileClass(const std::vector<double>& ms, const std::vector<std::uint16_t>& classes,
                            const std::vector<std::unique_ptr<Served>>& platforms, double p,
                            const char* label) {
  if (ms.empty()) {
    return "";
  }
  std::vector<std::size_t> order(ms.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return ms[a] < ms[b]; });
  const std::size_t rank = ms.size() - beyond(ms.size(), p) - 1;
  std::map<std::uint16_t, std::size_t> tail;
  for (std::size_t k = rank + 1; k < order.size(); ++k) {
    ++tail[classes[order[k]]];
  }
  std::uint16_t top = classes[order[rank]];
  std::size_t topCount = 0;
  for (const auto& [cls, n] : tail) {
    if (n > topCount) {
      top = cls;
      topCount = n;
    }
  }
  char line[256];
  std::snprintf(line, sizeof line,
                "admit %s = %.4f ms is a %s decision; %zu of the %zu samples beyond it are %s",
                label, ms[order[rank]], className(platforms, classes[order[rank]]).c_str(),
                topCount, order.size() - rank - 1, className(platforms, top).c_str());
  return line;
}

/// Admit times and classes, fault times and the total time of every
/// distinct call, each call at its median time over its replays.
struct Distinct {
  std::vector<double> admitMs, recoveryMs;
  std::vector<std::uint16_t> admitClass;
  double totalMs = 0;
  std::size_t calls = 0, admitted = 0;
};

Distinct distinct(const std::vector<TraceLog>& logs) {
  Distinct d;
  for (const TraceLog& log : logs) {
    const std::vector<double> ms = log.ms.medians();
    for (std::size_t n = 0; n < log.calls.size(); ++n) {
      const Call& call = log.calls[n];
      d.totalMs += ms[n];
      ++d.calls;
      if (call.kind == 'a') {
        d.admitMs.push_back(ms[n]);
        d.admitClass.push_back(call.cls);
        d.admitted += call.admitted ? 1 : 0;
      } else if (call.kind == 'f') {
        d.recoveryMs.push_back(ms[n]);
      }
    }
  }
  return d;
}

/// The end-to-end metrics, from every distinct call.
void reportEndToEnd(const std::vector<TraceLog>& logs, const Samples& s,
                    const std::vector<std::unique_ptr<Served>>& platforms, Report& report) {
  const Distinct d = distinct(logs);
  std::size_t fewest = std::numeric_limits<std::size_t>::max(), most = 0;
  for (const TraceLog& log : logs) {
    fewest = std::min(fewest, log.runs);
    most = std::max(most, log.runs);
  }
  report.set("latency_ms_iqm", interquartileMean(d.admitMs), "ms", "lower", d.admitMs.size(), 0,
             "(admit, pooled over the three platforms: interquartile mean)");
  setPercentile(report, "latency_ms_tail", d.admitMs, 0.99, "ms", "(= admit_ms_p99)");
  setRate(report, static_cast<double>(d.calls), d.totalMs,
          "(= churn_events_per_s: events per second of call time)");
  report.set("outcome_ratio",
             d.admitMs.empty() ? 0 : static_cast<double>(d.admitted) / d.admitMs.size(), "ratio",
             "higher", d.admitMs.size(), 0, "(= admitted_ratio)");
  char line[256];
  std::snprintf(line, sizeof line,
                "serve_churn: %zu distinct events in %zu traces, each trace run %zu-%zu times",
                d.calls, logs.size(), fewest, most);
  report.info(line);
  report.info(percentileClass(d.admitMs, d.admitClass, platforms, 0.5, "p50"));
  report.info(percentileClass(d.admitMs, d.admitClass, platforms, 0.99, "p99"));
  std::snprintf(line, sizeof line,
                "serve_churn recovery_ms_p95 = %.4f ms (n=%zu, %zu beyond); survival_ratio = "
                "%.4f (%zu re-admitted / %zu stranded)",
                percentile(d.recoveryMs, 0.95), d.recoveryMs.size(),
                beyond(d.recoveryMs.size(), 0.95),
                s.stranded > 0 ? static_cast<double>(s.recovered) / s.stranded : 0.0, s.recovered,
                s.stranded);
  report.info(line);
}

}  // namespace

void runServeChurn(const RunContext& ctx, Report& report) {
  // Set-up: models, preparation, architectures and controllers.
  std::vector<double> setupS;
  const auto setUp = [&] {
    const std::int64_t start = nowNs();
    std::vector<std::unique_ptr<Served>> platforms = makePlatforms();
    setupS.push_back(msSince(start) * 1e-3);
    return platforms;
  };
  std::vector<std::unique_ptr<Served>> platforms = setUp();

  // One pass: one seeded script per platform (drawn outside every timed
  // call). With `logs`, each trace's calls go to its log.
  Samples samples;
  const auto runPass = [&](std::size_t pass, StepStats* steps,
                           std::vector<std::unique_ptr<Served>>& on, Samples& into,
                           std::vector<TraceLog>* logs) {
    for (std::size_t p = 0; p < on.size(); ++p) {
      runTrace(*on[p], makeScript(ctx.seed, pass, p), steps, into, report,
               logs != nullptr ? &(*logs)[pass * on.size() + p] : nullptr);
    }
  };

  if (!ctx.trace) {
    // The passes in turn, each logged at least once, after the last pass
    // has run once unlogged: a trace can start with a plan-cache hit on
    // an entry the trace before it left under the same fault epoch, so a
    // trace repeats its calls exactly only when the same trace precedes
    // it every time.
    std::vector<TraceLog> logs(kPasses * platforms.size());
    runPass(kPasses - 1, nullptr, platforms, samples, nullptr);
    const std::int64_t start = nowNs();
    for (std::size_t i = 0; i < kPasses || msSince(start) < ctx.seconds * 1e3; ++i) {
      runPass(i % kPasses, nullptr, platforms, samples, &logs);
      // More set-ups, timed and discarded (the controllers are
      // long-lived), so setup_s is a median over the whole run.
      for (std::size_t r = 0; r < kSetupRepeats; ++r) {
        (void)setUp();
      }
    }
    setSetup(report, setupS, "platforms and controllers");
    reportEndToEnd(logs, samples, platforms, report);
    return;
  }

  tracer().enable(true);
  StepStats steps;
  std::vector<double> prepareMs;
  for (const auto& s : platforms) {
    for (const sdf::ApplicationModel& model : s->workload.models) {
      const ScopedSpan span("mapping.prepare");
      const std::int64_t start = nowNs();
      (void)mapping::prepareApplication(model);
      prepareMs.push_back(msSince(start));
    }
  }
  // The class behind the admit p99: hetero4 h263 misses.
  for (const auto& s : platforms) {
    for (std::size_t a = 0; a < s->workload.names.size(); ++a) {
      if (s->name == "hetero4" && s->workload.names[a] == "h263") {
        samples.attributedClass = classOf(*s, a, /*hit=*/false);
      }
    }
  }
  // Fresh controllers replay every traced pass untraced, right after it,
  // for the tracing overhead.
  std::vector<std::unique_ptr<Served>> fresh;
  {
    tracer().enable(false);
    const QuietLog quiet;
    fresh = makePlatforms();
    tracer().enable(true);
  }
  Samples untraced;
  for (std::size_t pass = 0; pass < kTracedPasses; ++pass) {
    runPass(pass, &steps, platforms, samples, nullptr);
    tracer().enable(false);
    const QuietLog quiet;
    runPass(pass, nullptr, fresh, untraced, nullptr);
    tracer().enable(true);
  }
  std::size_t cacheEntries = 0;
  for (const auto& s : platforms) {
    cacheEntries += s->controller->planCacheSize();
  }

  report.info(percentileClass(samples.admitMs, samples.admitClass, platforms, 0.5, "p50"));
  report.info(percentileClass(samples.admitMs, samples.admitClass, platforms, 0.99, "p99"));
  report.set("mapping.admission.hit_ratio",
             samples.arrivals > 0 ? static_cast<double>(samples.hits) / samples.arrivals : 0,
             "ratio", "higher", samples.arrivals);
  setPercentile(report, "mapping.admission.hit_ms_p50", samples.hitMs, 0.5, "ms");
  setPercentile(report, "mapping.admission.hit_ms_p99", samples.hitMs, 0.99, "ms");
  setPercentile(report, "mapping.admission.miss_ms_p50", samples.missMs, 0.5, "ms");
  setPercentile(report, "mapping.admission.miss_ms_p99", samples.missMs, 0.99, "ms");
  setPercentile(report, "mapping.admission.miss_overhead_ms_p50", samples.missOverheadMs, 0.5,
                "ms", "(miss latency - the mapping step on a copy of the same budget)");
  report.set("mapping.admission.rejected", static_cast<double>(samples.rejected), "count",
             "lower", samples.arrivals);
  setPercentile(report, "mapping.admission.depart_ms_p50", samples.departMs, 0.5, "ms");
  setPercentile(report, "mapping.admission.depart_ms_p99", samples.departMs, 0.99, "ms");
  setPercentile(report, "mapping.admission.repair_ms_p50", samples.repairMs, 0.5, "ms");
  setPercentile(report, "mapping.admission.recovery_ms_p95", samples.recoveryMs, 0.95, "ms",
                "(injectFault: evacuate + re-admit)");
  report.set("mapping.admission.stranded", static_cast<double>(samples.stranded), "count",
             "lower", samples.recoveryMs.size());
  report.set("mapping.admission.recovered", static_cast<double>(samples.recovered), "count",
             "higher", samples.recoveryMs.size());
  report.set("mapping.admission.survival_ratio",
             samples.stranded > 0 ? static_cast<double>(samples.recovered) / samples.stranded : 0,
             "ratio", "higher", samples.stranded, 0, "(re-admitted / stranded, per evacuation)");
  report.set("mapping.admission.cache_entries", static_cast<double>(cacheEntries), "count",
             "lower", platforms.size(), 0, "(plan-cache entries at the end, all controllers)");
  report.set("mapping.prepare_ms", mean(prepareMs), "ms", "lower", prepareMs.size(), 0,
             "(mean per prepareApplication call)");
  setPercentile(report, "platform.budget_copy_us_p50", samples.copyUs, 0.5, "us",
                "(copy of the live ResourceBudget before each admit)");
  reportSteps(steps, report);

  std::sort(samples.classOps.begin(), samples.classOps.end());
  const std::map<std::string, double> self = tracer().selfByName(samples.classOps, "mapping.step");
  double total = 0;
  std::string top = "-";
  double topMs = -1;
  for (const auto& [name, ms] : self) {
    total += ms;
    if (ms > topMs) {
      top = name;
      topMs = ms;
    }
  }
  std::string line = className(platforms, samples.attributedClass) +
                     " decomposed step self time (" + std::to_string(samples.classOps.size()) +
                     " misses):";
  for (const auto& [name, ms] : self) {
    char part[96];
    std::snprintf(part, sizeof part, " %s=%.1f%%", name.c_str(), total > 0 ? 100 * ms / total : 0);
    line += part;
  }
  report.info(line + "; largest: " + top +
              (steps.mismatches == 0 ? "" : " (UNATTRIBUTED: trace mismatch)"));
  report.set("trace_overhead_ratio", untraced.callMs > 0 ? samples.callMs / untraced.callMs : 0,
             "ratio", "lower", untraced.events, 0, "(traced / untraced call time, same events)");
}

}  // namespace perfbench
