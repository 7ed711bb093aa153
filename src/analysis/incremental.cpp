#include "analysis/incremental.hpp"

namespace mamps::analysis {

using sdf::ChannelId;

IncrementalThroughput::IncrementalThroughput(const sdf::TimedGraph& timed,
                                             const ResourceConstraints* resources,
                                             const ThroughputOptions& options)
    // Whole-struct copy of the TimedGraph: every per-actor annotation
    // (execTime, maxConcurrent, future fields) is retained — see
    // TimedGraph::rebuildFrom for the field-by-field-rebuild hazard.
    : timed_(timed), options_(options) {
  if (timed_.execTime.size() != timed_.graph.actorCount()) {
    throw AnalysisError("IncrementalThroughput: execTime size does not match actor count");
  }
  if (resources != nullptr) {
    resources->validateFor(timed_.graph);
    resources_ = *resources;
  }
  const ResourceConstraints* res = resources_ ? &*resources_ : nullptr;
  fastPath_ = options_.engine != ThroughputEngine::StateSpace &&
              mcrFastPathApplicable(timed_, res, options_);
  if (fastPath_) {
    // The immutable prefix (topology, repetition vector, self-
    // concurrency edges, static-order chains) is encoded once here;
    // setInitialTokens only re-encodes the touched channel's slab.
    flat_.build(timed_, res);
  }
}

void IncrementalThroughput::setInitialTokens(ChannelId channel, std::uint64_t tokens) {
  if (channel >= timed_.graph.channelCount()) {
    throw AnalysisError("IncrementalThroughput::setInitialTokens: channel out of range");
  }
  if (timed_.graph.channel(channel).initialTokens == tokens) {
    return;
  }
  timed_.graph.setInitialTokens(channel, tokens);
  if (fastPath_) {
    flat_.patchChannel(timed_, channel);
  }
}

ThroughputResult IncrementalThroughput::compute() {
  if (!fastPath_) {
    return resources_ ? computeThroughput(timed_, *resources_, options_)
                      : computeThroughput(timed_, options_);
  }
  return solveExpansion(flat_, solver_);
}

}  // namespace mamps::analysis
