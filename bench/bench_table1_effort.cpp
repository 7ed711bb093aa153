// Table 1: designer effort for creating and mapping the MJPEG decoder.
// The manual steps are human effort and are reported from the paper;
// the automated steps are run here, on this implementation of the flow,
// and marked automated. Their times are too short for one run to
// resolve: perfbench's paper_flow workload times them
// (`platform.generate_ms_p50`, the `mapping.map_application` span of its
// trace, and `mamps.generate_ms_p50`). FPGA synthesis (17 min of XPS
// work) is not reproducible without the Xilinx toolchain and is reported
// from the paper.
#include <cstdio>

#include "mamps/generator.hpp"
#include "mapping/flow.hpp"
#include "mjpeg_experiment.hpp"
#include "platform/arch_template.hpp"

int main() {
  using namespace mamps;
  using namespace mamps::bench;

  // Inputs (the manual steps' products, prepared as in the paper).
  const auto stream = encodeNamedSequence("synthetic");
  const mjpeg::MjpegApp app = mjpeg::buildMjpegApp(mjpeg::calibrateWcets(stream));

  // The automated steps: architecture model, mapping (SDF3), and the
  // Xilinx project (MAMPS).
  platform::TemplateRequest request;
  request.tileCount = 3;
  request.interconnect = platform::InterconnectKind::Fsl;
  const platform::Architecture arch = platform::generateFromTemplate(request);
  const auto result = mapping::mapApplication(app.model, arch, {});
  if (!result) {
    std::printf("mapping failed\n");
    return 1;
  }
  const gen::PlatformProject project = gen::generatePlatform(app.model, arch, result->mapping);

  std::printf("Table 1 - Designer effort (steps marked 'a' are automated)\n\n");
  std::printf("%-42s %16s %16s\n", "Step", "paper", "this repo");
  std::printf("%-42s %16s %16s\n", "Parallelizing the MJPEG code", "< 3 days", "(manual)");
  std::printf("%-42s %16s %16s\n", "Creating the SDF graph", "5 minutes", "(manual)");
  std::printf("%-42s %16s %16s\n", "Gathering required actor metrics", "1 day", "(manual)");
  std::printf("%-42s %16s %16s\n", "Creating application model", "1 hour", "(manual)");
  std::printf("%-42s %16s %16s\n", "Generating architecture model (a)", "1 second", "automated");
  std::printf("%-42s %16s %16s\n", "Mapping the design (SDF3) (a)", "1 minute", "automated");
  std::printf("%-42s %16s %16s\n", "Generating Xilinx project (MAMPS) (a)", "16 seconds",
              "automated");
  std::printf("%-42s %16s %16s\n", "Synthesis of the system (a)", "17 minutes",
              "(needs XPS)");
  std::printf("%-42s %16s\n", "Total time spent", "~ 4 days");
  std::printf("\nGenerated %zu artifacts; guaranteed throughput %.4f MCUs/MHz/s.\n",
              project.files.size(),
              result->throughput.iterationsPerCycle.toDouble() * 1e6);
  std::printf("Step times: perfbench's paper_flow workload (python3 perfbench/run.py\n");
  std::printf("--workload paper_flow) times the automated steps of this pipeline.\n");
  std::printf("A manual implementation would cost another 2-5 days (Section 6.2).\n");
  return 0;
}
