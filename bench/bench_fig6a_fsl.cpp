// Figure 6(a): measured and predicted worst-case throughput of the
// MJPEG decoder for a synthetic sequence and a set of test sequences on
// the FSL interconnect.
//
// Paper (shape): all bars between ~0.8 and ~1.2 MCUs/MHz/s, worst-case
// analysis line just below the synthetic bars (<1% margin for the
// synthetic data), test-set bars slightly above the synthetic ones.
//
// Exits non-zero when a measured or expected value falls below the
// guarantee, so it doubles as the Figure 6 gate.
#include "mjpeg_experiment.hpp"

int main() {
  using namespace mamps::bench;
  const MjpegDeployment d = deployMjpeg(mamps::platform::InterconnectKind::Fsl);
  std::vector<SequencePoint> points;
  for (const std::string& name : corpus()) {
    points.push_back(evaluateSequence(d, name));
  }
  const bool guaranteed = printFigure6Table("Figure 6(a) - FSL interconnect", points);
  std::printf("\nPaper reference: worst-case ~0.75, synthetic ~0.8 (margin < 1%%),\n");
  std::printf("test-set ~0.9-1.1 MCUs per MHz per second.\n");
  return guaranteed ? 0 : 1;
}
