// Figure 6(b): the same experiment as Figure 6(a) on the SDM NoC
// interconnect. The NoC adds router latency and serializes words over
// the reserved SDM wires, so every series sits at or slightly below its
// FSL counterpart while the conservative-bound relation is unchanged.
//
// Exits non-zero when a measured or expected value falls below the
// guarantee or the FSL guarantee falls below the NoC one, so it doubles
// as the Figure 6 gate.
#include "mjpeg_experiment.hpp"

int main() {
  using namespace mamps::bench;
  const MjpegDeployment noc = deployMjpeg(mamps::platform::InterconnectKind::NocMesh);
  std::vector<SequencePoint> points;
  for (const std::string& name : corpus()) {
    points.push_back(evaluateSequence(noc, name));
  }
  const bool guaranteed = printFigure6Table("Figure 6(b) - NoC interconnect", points);

  // Cross-check the FSL-vs-NoC relation of Section 5.3.1.
  const MjpegDeployment fsl = deployMjpeg(mamps::platform::InterconnectKind::Fsl);
  const bool fslAtLeastNoc =
      fsl.result.throughput.iterationsPerCycle >= noc.result.throughput.iterationsPerCycle;
  std::printf("\nGuaranteed throughput FSL vs NoC: %.4f vs %.4f MCUs/MHz/s (FSL >= NoC: %s)\n",
              fsl.result.throughput.iterationsPerCycle.toDouble() * 1e6,
              noc.result.throughput.iterationsPerCycle.toDouble() * 1e6,
              fslAtLeastNoc ? "yes" : "no");
  return guaranteed && fslAtLeastNoc ? 0 : 1;
}
