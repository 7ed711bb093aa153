// The benchmark executable: parses the run settings, runs one workload,
// and prints its metrics. perfbench/run.py builds and drives it; see
// perfbench/README.md for the workloads and metrics.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string_view>
#include <thread>

#include "common.hpp"

namespace perfbench {

std::int64_t nowNs() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin).count();
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(samples.size())));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

std::size_t beyond(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  return n - std::min(n, std::max<std::size_t>(rank, 1));
}

double median(const std::vector<double>& samples) { return percentile(samples, 0.5); }

double sum(const std::vector<double>& samples) {
  double total = 0;
  for (const double s : samples) {
    total += s;
  }
  return total;
}

double mean(const std::vector<double>& samples) {
  return samples.empty() ? 0.0 : sum(samples) / static_cast<double>(samples.size());
}

double interquartileMean(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t trim = samples.size() / 4;
  return mean({samples.begin() + static_cast<std::ptrdiff_t>(trim),
               samples.end() - static_cast<std::ptrdiff_t>(trim)});
}

double slowestQuarterMean(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t keep = std::max<std::size_t>(1, samples.size() / 4);
  return mean({samples.end() - static_cast<std::ptrdiff_t>(std::min(keep, samples.size())),
               samples.end()});
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

std::int32_t Tracer::open(const char* name) {
  if (!enabled_) {
    return -1;
  }
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(Span{name, nowNs(), 0, current_, op_});
  current_ = id;
  return id;
}

void Tracer::close(std::int32_t id) {
  if (id < 0) {
    return;
  }
  spans_[static_cast<std::size_t>(id)].endNs = nowNs();
  current_ = spans_[static_cast<std::size_t>(id)].parent;
}

void Tracer::add(const char* name, std::int64_t startNs, std::int64_t endNs,
                 std::int32_t parent) {
  if (enabled_) {
    spans_.push_back(Span{name, startNs, endNs, parent, op_});
  }
}

std::vector<double> Tracer::selfMs() const {
  // Children of one span never overlap (the benchmark is sequential and
  // reported phases are laid end to end), so the covered part is the
  // sum of the children's durations, clipped to the parent.
  std::vector<std::int64_t> covered(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      covered[static_cast<std::size_t>(s.parent)] += s.endNs - s.startNs;
    }
  }
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::int64_t duration = spans_[i].endNs - spans_[i].startNs;
    self[i] = static_cast<double>(std::max<std::int64_t>(0, duration - covered[i])) * 1e-6;
  }
  return self;
}

std::map<std::string, double> Tracer::selfByName(const std::vector<std::uint32_t>& ops,
                                                 const char* root) const {
  const std::vector<double> self = selfMs();
  std::vector<char> inside(spans_.size(), 0);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Parents precede children, so one forward pass resolves subtrees.
    inside[i] = std::strcmp(s.name, root) == 0 ||
                (s.parent >= 0 && inside[static_cast<std::size_t>(s.parent)] != 0);
    if (inside[i] != 0 && std::binary_search(ops.begin(), ops.end(), s.op)) {
      out[s.name] += self[i];
    }
  }
  return out;
}

void Tracer::writeTo(const std::string& path) const {
  std::ofstream file(path);
  file << "name\top\tparent\tstart_ns\tend_ns\n";
  for (const Span& s : spans_) {
    file << s.name << '\t' << s.op << '\t' << s.parent << '\t' << s.startNs << '\t' << s.endNs
         << '\n';
  }
}

void Report::set(const std::string& name, double value, const std::string& unit,
                 const std::string& better, std::size_t samples, double p,
                 const std::string& note) {
  metrics_[name] = Metric{value, unit, better, samples, p, note};
}

void Report::fail(const std::string& what) {
  if (++failed_ <= 10) {
    std::printf("FAILED: %s\n", what.c_str());
  }
}

void Report::print() const {
  for (const std::string& line : info_) {
    std::printf("%s\n", line.c_str());
  }
  std::string json = "{";
  for (const auto& [name, m] : metrics_) {
    std::printf("metric %s = %.6g %s (%s is better; n=%zu", name.c_str(), m.value, m.unit.c_str(),
                m.better.c_str(), m.samples);
    if (m.p > 0) {
      std::printf(", p%g has %zu samples beyond", m.p * 100, beyond(m.samples, m.p));
    }
    std::printf(")%s%s\n", m.note.empty() ? "" : " ", m.note.c_str());
    char entry[256];
    std::snprintf(entry, sizeof entry, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.size() > 1 ? ", " : "", name.c_str(), m.value, m.unit.c_str());
    json += entry;
  }
  json += "}";
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              failed_ == 0 ? "true" : "false", std::max<std::size_t>(attempted_, 1), failed_,
              json.c_str());
}

void setPercentile(Report& report, const std::string& name, const std::vector<double>& samples,
                   double p, const std::string& unit, const std::string& note) {
  report.set(name, percentile(samples, p), unit, "lower", samples.size(), p, note);
}

void UnitTimes::add(std::size_t unit, double ms) {
  if (unit >= ms_.size()) {
    ms_.resize(unit + 1);
  }
  ms_[unit].push_back(ms);
}

std::vector<double> UnitTimes::medians() const {
  std::vector<double> out;
  out.reserve(ms_.size());
  for (const std::vector<double>& timings : ms_) {
    out.push_back(median(timings));
  }
  return out;
}

std::string UnitTimes::describe(const std::string& what) const {
  if (ms_.empty()) {
    return what + ": nothing timed";
  }
  std::size_t fewest = ms_.front().size(), most = 0;
  for (const std::vector<double>& timings : ms_) {
    fewest = std::min(fewest, timings.size());
    most = std::max(most, timings.size());
  }
  char line[256];
  std::snprintf(line, sizeof line, "%s: %zu distinct, each timed %zu-%zu times", what.c_str(),
                ms_.size(), fewest, most);
  return line;
}

void setRate(Report& report, double work, double ms, const std::string& note) {
  report.set("rate_per_s", ms > 0 ? work / (ms * 1e-3) : 0, "1/s", "higher",
             static_cast<std::size_t>(work), 0, note);
}

void setSetup(Report& report, const std::vector<double>& seconds, const std::string& what) {
  report.set("setup_s", median(seconds), "s", "lower", seconds.size(), 0.5,
             "(" + what + "; median of every set-up in the run)");
  char line[200];
  std::snprintf(line, sizeof line,
                "setup_s: first (cold) set-up %.6g s, median of %zu set-ups %.6g s (%s)",
                seconds.empty() ? 0.0 : seconds.front(), seconds.size(), median(seconds),
                what.c_str());
  report.info(line);
}

double peakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives exec and so
  // can report the launching process's size instead of this one's.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

namespace {

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<paper_flow|dse_sweep|serve_churn> --seed <n> --seconds <s> "
               "--trace <0|1> [--span-dir <dir>]\n",
               message);
  std::exit(2);
}

RunContext parseArgs(int argc, char** argv) {
  RunContext ctx;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) {
      usage("missing value");
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      ctx.workload = value;
    } else if (flag == "--seed") {
      ctx.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      ctx.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      ctx.trace = std::strtol(value, &end, 10) != 0;
    } else if (flag == "--span-dir") {
      ctx.spanDir = value;
    } else {
      usage("unknown flag");
    }
    if (end != nullptr && *end != '\0') {
      usage("malformed number");
    }
  }
  if (ctx.seconds <= 0) {
    usage("--seconds must be positive");
  }
  ctx.poolWorkers = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  return ctx;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const RunContext ctx = parseArgs(argc, argv);
  (void)nowNs();  // fix the clock origin at process start
  std::printf("host nproc=%u dse_workers=%u traced_pool_workers=%u compiler=\"%s\" build=%s "
              "seed=%llu workload=%s seconds=%g trace=%d loop=closed(1 client)\n",
              std::thread::hardware_concurrency(), ctx.dseWorkers, ctx.poolWorkers,
              PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE, static_cast<unsigned long long>(ctx.seed),
              ctx.workload.c_str(), ctx.seconds, ctx.trace ? 1 : 0);
  Report report;
  try {
    if (ctx.workload == "paper_flow") {
      runPaperFlow(ctx, report);
    } else if (ctx.workload == "dse_sweep") {
      runDseSweep(ctx, report);
    } else if (ctx.workload == "serve_churn") {
      runServeChurn(ctx, report);
    } else {
      usage("unknown workload");
    }
  } catch (const std::exception& e) {
    report.fail(std::string("uncaught exception: ") + e.what());
  }

  if (ctx.trace && !ctx.spanDir.empty()) {
    tracer().writeTo(ctx.spanDir + "/spans_" + ctx.workload + "_seed" + std::to_string(ctx.seed) +
                     ".tsv");
  }
  if (!ctx.trace) {
    report.set("peak_rss_mb", peakRssMb(), "MiB", "lower", 1, 0, "(process peak RSS at exit)");
  }
  report.print();
  return report.failed() == 0 ? 0 : 1;
}
