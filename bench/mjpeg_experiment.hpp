// Shared machinery for the MJPEG case-study benches (Figure 6, Table 1,
// Section 6.3): deploys the decoder on the 3-tile platform of the paper
// and produces the three throughput values per input sequence:
//   worst-case analysis : SDF3 bound with calibrated WCETs (guaranteed)
//   expected            : SDF3 with execution times measured on the data
//   measured            : the platform simulator running the real decoder
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "apps/mjpeg/actors.hpp"
#include "apps/mjpeg/testdata.hpp"
#include "mapping/flow.hpp"
#include "platform/arch_template.hpp"
#include "sim/platform_sim.hpp"

namespace mamps::bench {

inline constexpr std::uint32_t kFrameWidth = 64;
inline constexpr std::uint32_t kFrameHeight = 48;
inline constexpr std::uint32_t kFramesPerSequence = 2;

struct MjpegDeployment {
  mjpeg::MjpegApp app;
  platform::Architecture arch;
  mapping::MappingResult result;
};

/// Encode a named sequence ("synthetic" or one of the five test names).
inline std::vector<std::uint8_t> encodeNamedSequence(const std::string& name) {
  const auto frames = name == "synthetic"
                          ? mjpeg::makeSyntheticSequence(kFramesPerSequence, kFrameWidth,
                                                         kFrameHeight)
                          : mjpeg::makeTestSequence(name, kFramesPerSequence, kFrameWidth,
                                                    kFrameHeight);
  // The 10-block sampling exercises the VLD's full fixed rate (no dummy
  // padding), matching the low execution-time variation of the paper's
  // streams and keeping the worst-case bound tight.
  mjpeg::EncoderOptions options;
  options.sampling = mjpeg::Sampling::Yuv410;
  return mjpeg::encodeSequence(frames, options);
}

/// Calibrate WCETs on the synthetic (worst-case) stream and map the
/// decoder onto a 3-tile platform with the given interconnect.
inline MjpegDeployment deployMjpeg(platform::InterconnectKind kind) {
  MjpegDeployment d;
  d.app = mjpeg::buildMjpegApp(
      mjpeg::calibrateWcets(encodeNamedSequence("synthetic"), /*marginPercent=*/1));
  platform::TemplateRequest request;
  request.tileCount = 3;
  request.interconnect = kind;
  d.arch = platform::generateFromTemplate(request);
  auto mapped = mapping::mapApplication(d.app.model, d.arch, {});
  if (!mapped || !mapped->throughput.ok()) {
    throw Error("deployMjpeg: mapping failed");
  }
  d.result = std::move(*mapped);
  return d;
}

struct SequencePoint {
  std::string sequence;
  double worstCase = 0;  ///< MCUs per MHz per second (= iterations/cycle * 1e6)
  double expected = 0;
  double measured = 0;
};

/// Produce one Figure 6 data point for `sequence` on `deployment`.
inline SequencePoint evaluateSequence(const MjpegDeployment& d, const std::string& sequence) {
  SequencePoint point;
  point.sequence = sequence;
  point.worstCase = d.result.throughput.iterationsPerCycle.toDouble() * 1e6;

  const auto stream = encodeNamedSequence(sequence);

  // Expected: SDF3 with the (average) execution times measured on this
  // data set — the long-term average throughput of Section 5 depends on
  // the mean firing times.
  const mjpeg::MjpegWcets measured = mjpeg::measureAverageCosts(stream);
  const auto expected = mapping::analyzeMapping(
      d.app.model, d.arch, d.result.mapping,
      {measured.vld, measured.iqzz, measured.idct, measured.cc, measured.raster});
  point.expected = expected.ok() ? expected.iterationsPerCycle.toDouble() * 1e6 : 0.0;

  // Measured: the platform simulator running the functional decoder.
  sim::PlatformSim simulator(d.app.model, d.arch, d.result.mapping);
  mjpeg::attachMjpegBehaviors(simulator, d.app, stream);
  sim::SimOptions options;
  options.warmupIterations = 8;
  options.measureIterations = 64;
  const sim::SimResult sim = simulator.run(options);
  point.measured = sim.ok() ? sim.iterationsPerCycle() * 1e6 : 0.0;
  return point;
}

/// The full corpus: the synthetic sequence plus the five test sequences.
inline std::vector<std::string> corpus() {
  std::vector<std::string> names{"synthetic"};
  for (const auto& name : mjpeg::testSequenceNames()) {
    names.push_back(name);
  }
  return names;
}

/// Print the Figure 6 table and its verdict. A simulation that did not
/// finish reads measured 0, so it fails the verdict too.
/// @return true when every measured and expected value is at or above
///   the worst-case guarantee
inline bool printFigure6Table(const char* title, const std::vector<SequencePoint>& points) {
  std::printf("%s\n", title);
  std::printf("Throughput in MCUs per MHz per second (= MCUs per Mcycle).\n");
  std::printf("The worst-case analysis line is guaranteed by the flow; measured\n");
  std::printf("and expected values must sit on or above it.\n\n");
  std::printf("%-12s %14s %12s %12s %14s\n", "sequence", "worst-case", "expected", "measured",
              "margin meas.");
  bool guaranteed = true;
  for (const SequencePoint& p : points) {
    std::printf("%-12s %14.4f %12.4f %12.4f %13.1f%%\n", p.sequence.c_str(), p.worstCase,
                p.expected, p.measured, 100.0 * (p.measured / p.worstCase - 1.0));
    guaranteed = guaranteed && p.measured >= p.worstCase * (1 - 1e-9) &&
                 p.expected >= p.worstCase * (1 - 1e-9);
  }
  std::printf("\nConservative bound held for every sequence: %s\n",
              guaranteed ? "yes" : "NO (guarantee violated!)");
  return guaranteed;
}

}  // namespace mamps::bench
