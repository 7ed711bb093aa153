// Ablation: SDM wire allocation. The NoC assigns each connection a
// number of wires; a word needs ceil(32/wires) cycles, so connection
// bandwidth trades directly against how many connections a link can
// carry (Section 5.3.1: "wires can only be assigned to a single
// connection at a given time"). Sweeps the per-connection wire request
// for the MJPEG mapping.
#include <cstdio>

#include "mjpeg_experiment.hpp"

int main() {
  using namespace mamps;
  using namespace mamps::bench;

  const auto app = mjpeg::buildMjpegApp(
      mjpeg::calibrateWcets(encodeNamedSequence("synthetic")));

  std::printf("NoC wires per connection vs guaranteed throughput (MJPEG, 3 tiles)\n\n");
  std::printf("%-7s %12s %16s\n", "wires", "cyc/word", "MCUs per Mcycle");

  platform::TemplateRequest request;
  request.tileCount = 3;
  request.interconnect = platform::InterconnectKind::NocMesh;
  const platform::Architecture arch = platform::generateFromTemplate(request);

  for (const std::uint32_t wires : {1u, 2u, 4u, 8u, 16u, 32u}) {
    mapping::MappingOptions options;
    options.nocWiresPerConnection = wires;
    const auto result = mapping::mapApplication(app.model, arch, options);
    if (!result || !result->throughput.ok()) {
      std::printf("%-7u %12s %16s\n", wires, "-", "infeasible");
      continue;
    }
    std::printf("%-7u %12u %16.4f\n", wires, platform::cyclesPerWord(wires),
                result->throughput.iterationsPerCycle.toDouble() * 1e6);
  }
  std::printf("\nShape: once the connection is fast enough that the PEs dominate,\n");
  std::printf("extra wires stop helping — the flow can then pack more connections\n");
  std::printf("per link instead.\n");
  return 0;
}
