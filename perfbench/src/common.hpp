// Shared machinery of the benchmark: run context, wall-clock helpers,
// percentiles, the span recorder of the traced run, and the metric
// report every workload fills.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/log.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the first call (one process-wide origin).
[[nodiscard]] std::int64_t nowNs();

[[nodiscard]] inline double msSince(std::int64_t startNs) { return (nowNs() - startNs) * 1e-6; }

/// Command-line settings of one run.
struct RunContext {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 12;
  bool trace = false;
  unsigned dseWorkers = 1;   ///< DSE workers of the workload (one: deterministic points)
  unsigned poolWorkers = 1;  ///< DSE pool the traced run compares with, min(4, nproc)
  std::string spanDir;       ///< where the traced run writes its spans
};

/// Nearest-rank percentile of `samples` (p in (0, 1]); 0 when empty.
[[nodiscard]] double percentile(std::vector<double> samples, double p);
/// Samples strictly after the nearest-rank position of `p`.
[[nodiscard]] std::size_t beyond(std::size_t n, double p);
[[nodiscard]] double median(const std::vector<double>& samples);
[[nodiscard]] double sum(const std::vector<double>& samples);
[[nodiscard]] double mean(const std::vector<double>& samples);
/// Mean of the samples between the first and the third quartile. Unlike
/// the median it moves smoothly when the mix of op classes shifts, so a
/// centre that falls in a gap between two classes does not jump across
/// it from one seed to the next. 0 when empty.
[[nodiscard]] double interquartileMean(std::vector<double> samples);
/// Mean of the slowest quarter of `samples` (at least one); 0 when empty.
[[nodiscard]] double slowestQuarterMean(std::vector<double> samples);

/// One recorded span: a call into a layer's public function, or a
/// phase reported by the library itself (kept as a child of the call
/// that reported it).
struct Span {
  const char* name = "";
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  std::int32_t parent = -1;
  std::uint32_t op = 0;
};

/// In-memory span recorder. Disabled in untimed runs (every call is a
/// no-op returning -1); spans are written out once, at exit.
class Tracer {
 public:
  void enable(bool on) { enabled_ = on; }
  /// Start a new operation: following spans carry its id.
  void beginOp(std::uint32_t op) { op_ = op; }
  [[nodiscard]] std::int32_t open(const char* name);
  void close(std::int32_t id);
  /// A span whose interval is known after the fact (a phase timer the
  /// library reported), attached under `parent`.
  void add(const char* name, std::int64_t startNs, std::int64_t endNs, std::int32_t parent);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Self time per span: duration minus the union of its children.
  [[nodiscard]] std::vector<double> selfMs() const;
  /// Σ self time per span name over spans of operation `op` under (and
  /// including) spans named `root`.
  [[nodiscard]] std::map<std::string, double> selfByName(const std::vector<std::uint32_t>& ops,
                                                         const char* root) const;
  /// Write every span as a tab-separated line (name, op, parent, start,
  /// end in ns).
  void writeTo(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::uint32_t op_ = 0;
  std::int32_t current_ = -1;
  std::vector<Span> spans_;
};

Tracer& tracer();

/// RAII span around one call; measures nothing when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : id_(tracer().open(name)) {}
  ~ScopedSpan() { tracer().close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::int32_t id() const { return id_; }

 private:
  std::int32_t id_;
};

/// Silences library warnings while the benchmark repeats a call for its
/// own checks or decomposition, so stderr (and support.log_lines)
/// carries exactly the warnings of the calls a user would make.
class QuietLog {
 public:
  QuietLog() : saved_(mamps::logLevel()) { mamps::setLogLevel(mamps::LogLevel::Error); }
  ~QuietLog() { mamps::setLogLevel(saved_); }
  QuietLog(const QuietLog&) = delete;
  QuietLog& operator=(const QuietLog&) = delete;

 private:
  mamps::LogLevel saved_;
};

/// Metrics and output checks of one run.
class Report {
 public:
  /// Record a metric. `samples` is how many measurements it summarizes
  /// and `p` the percentile it reports (0 = not a percentile).
  void set(const std::string& name, double value, const std::string& unit,
           const std::string& better, std::size_t samples = 1, double p = 0,
           const std::string& note = "");
  /// A failed operation; `what` is printed (first few only).
  void fail(const std::string& what);
  void attempt(std::size_t n = 1) { attempted_ += n; }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  /// Informational line, printed before the metrics.
  void info(const std::string& line) { info_.push_back(line); }
  /// Print the info lines, one self-describing line per metric, and a
  /// final JSON object with every metric (perfbench/run.py keeps the
  /// ones BENCHMARK.json lists for the run's mode).
  void print() const;

 private:
  struct Metric {
    double value = 0;
    std::string unit;
    std::string better;
    std::size_t samples = 0;
    double p = 0;
    std::string note;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> info_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Record the `p` percentile of `samples` as a lower-is-better metric.
void setPercentile(Report& report, const std::string& name, const std::vector<double>& samples,
                   double p, const std::string& unit, const std::string& note = "");

/// Every timing of each distinct unit of work: an op, design point,
/// sweep call or event whose inputs repeat identically through the run,
/// so that its timings differ only by the host.
class UnitTimes {
 public:
  /// Record one timing of unit `unit` (units are numbered from 0).
  void add(std::size_t unit, double ms);
  /// Each unit's median timing.
  [[nodiscard]] std::vector<double> medians() const;
  /// Timings per unit (fewest and most) as an info line.
  [[nodiscard]] std::string describe(const std::string& what) const;

 private:
  std::vector<std::vector<double>> ms_;
};

/// Record rate_per_s: `work` units per second of `ms` (the summed
/// per-unit times of the work's distinct units).
void setRate(Report& report, double work, double ms, const std::string& note);

/// Record setup_s as the median of `seconds`, one entry per set-up of
/// the run (the first is the cold one a process pays; the others repeat
/// it in the warm process), and print the first and the median.
void setSetup(Report& report, const std::vector<double>& seconds, const std::string& what);

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peakRssMb();

/// Run the workloads (each fills `report`).
void runPaperFlow(const RunContext& ctx, Report& report);
void runDseSweep(const RunContext& ctx, Report& report);
void runServeChurn(const RunContext& ctx, Report& report);

}  // namespace perfbench
