#include "sim/platform_sim.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <string>

#include "analysis/self_timed.hpp"
#include "mapping/binding_aware.hpp"
#include "sdf/repetition_vector.hpp"

namespace mamps::sim {

using mapping::BindingAwareModel;
using sdf::ActorId;
using sdf::ChannelId;

struct PlatformSim::Impl {
  sdf::ApplicationModel app;
  platform::Architecture arch;
  mapping::Mapping mapping;
  BindingAwareModel model;  ///< structure + comm-actor timing (WCET-based)

  std::vector<std::unique_ptr<ActorBehavior>> behaviors;  // per original actor
  std::vector<std::uint64_t> serOverhead;  ///< PE-mode (de)serialization cycles per firing
  std::vector<std::vector<ChannelId>> explicitIns;   // per original actor
  std::vector<std::vector<ChannelId>> explicitOuts;  // per original actor

  Impl(const sdf::ApplicationModel& appIn, const platform::Architecture& archIn,
       const mapping::Mapping& mappingIn)
      : app(appIn), arch(archIn), mapping(mappingIn) {
    // The binding-aware model provides the executable structure; the
    // original-actor execution times in it are WCETs and are replaced by
    // behavior costs at run time.
    std::vector<std::uint64_t> wcet(app.graph().actorCount());
    for (ActorId a = 0; a < app.graph().actorCount(); ++a) {
      const auto* impl =
          app.implementationFor(a, arch.tile(mapping.actorToTile.at(a)).processorType);
      if (impl == nullptr) {
        throw ModelError("PlatformSim: actor " + app.graph().actor(a).name +
                         " lacks an implementation for its tile");
      }
      wcet[a] = impl->wcetCycles;
    }
    model = mapping::buildBindingAware(app, arch, mapping, wcet);

    // An application actor's model time is its WCET plus the PE-mode
    // (de)serialization overhead; a firing costs its behaviour's cycles
    // plus that same overhead.
    behaviors.resize(app.graph().actorCount());
    serOverhead.resize(app.graph().actorCount());
    for (ActorId a = 0; a < app.graph().actorCount(); ++a) {
      behaviors[a] = std::make_unique<ConstantCostBehavior>(wcet[a]);
      serOverhead[a] = model.graph.execTime[a] - wcet[a];
    }

    explicitIns.resize(app.graph().actorCount());
    explicitOuts.resize(app.graph().actorCount());
    for (ActorId a = 0; a < app.graph().actorCount(); ++a) {
      for (const ChannelId c : app.graph().actor(a).inputs) {
        if (app.isExplicit(c)) {
          explicitIns[a].push_back(c);
        }
      }
      for (const ChannelId c : app.graph().actor(a).outputs) {
        if (app.isExplicit(c)) {
          explicitOuts[a].push_back(c);
        }
      }
    }
  }
};

PlatformSim::PlatformSim(const sdf::ApplicationModel& app, const platform::Architecture& arch,
                         const mapping::Mapping& mapping)
    : impl_(std::make_unique<Impl>(app, arch, mapping)) {}

PlatformSim::~PlatformSim() = default;

void PlatformSim::setBehavior(ActorId actor, std::unique_ptr<ActorBehavior> behavior) {
  if (actor >= impl_->behaviors.size()) {
    throw ModelError("PlatformSim::setBehavior: actor id out of range");
  }
  if (behavior == nullptr) {
    throw ModelError("PlatformSim::setBehavior: null behavior");
  }
  impl_->behaviors[actor] = std::move(behavior);
}

namespace {

/// The execution engine: the binding-aware structure (graph +
/// resources) runs on the same self-timed executor as the state-space
/// analysis, with per-firing costs from the functional behaviours and
/// byte-accurate payload transport alongside the token counting.
class Engine {
 public:
  Engine(PlatformSim::Impl& impl, const SimOptions& options)
      : impl_(impl),
        options_(options),
        originalActors_(impl.app.graph().actorCount()),
        execution_(impl.model.graph, &impl.model.resources) {
    pendingOutputs_.resize(originalActors_);

    // Payload queues per original explicit channel; initial tokens get
    // payloads from the source actor's init function.
    payloads_.resize(impl_.app.graph().channelCount());
    for (ChannelId c = 0; c < impl_.app.graph().channelCount(); ++c) {
      const sdf::Channel& channel = impl_.app.graph().channel(c);
      if (!impl_.app.isExplicit(c) || channel.initialTokens == 0) {
        continue;
      }
      auto initial = impl_.behaviors[channel.src]->initialTokens(c, channel.initialTokens,
                                                                 channel.tokenSizeBytes);
      if (initial.size() != channel.initialTokens) {
        throw ModelError("initialTokens produced wrong count for channel " + channel.name);
      }
      for (auto& t : initial) {
        t.resize(channel.tokenSizeBytes);
        payloads_[c].push_back(std::move(t));
      }
    }

    result_.maxFiringCycles.assign(originalActors_, 0);
    result_.totalFiringCycles.assign(originalActors_, 0);
    result_.firings.assign(originalActors_, 0);
    result_.interTileBytes.assign(impl_.app.graph().channelCount(), 0);
    const auto q = sdf::computeRepetitionVector(impl_.app.graph());
    if (!q) {
      throw ModelError("PlatformSim: inconsistent application graph");
    }
    qRef_ = (*q)[0];
  }

  SimResult run() {
    const std::uint64_t warmupFirings = options_.warmupIterations * qRef_;
    const std::uint64_t endFirings =
        (options_.warmupIterations + options_.measureIterations) * qRef_;
    // An application actor's firing costs its behaviour's cycles plus
    // the PE-mode (de)serialization overhead.
    const auto cost = [this](ActorId a) {
      if (a >= originalActors_) {
        return impl_.model.graph.execTime[a];
      }
      std::uint64_t cycles = 0;
      if (__builtin_add_overflow(runBehavior(a), impl_.serOverhead[a], &cycles)) {
        throw ModelError("PlatformSim: firing cost of actor " + impl_.app.graph().actor(a).name +
                         " overflows 64 bits");
      }
      return cycles;
    };
    const auto done = [this](ActorId a) {
      if (a < originalActors_) {
        deliver(a);
      }
    };

    while (execution_.now() <= options_.maxCycles) {
      if (!execution_.settle(cost, done)) {
        throw ModelError("PlatformSim: zero-time firings never settle at cycle " +
                         std::to_string(execution_.now()));
      }
      const std::uint64_t completions = execution_.referenceCompletions();
      if (completions >= warmupFirings && measureStart_ == kUnset) {
        measureStart_ = execution_.now();
      }
      if (completions >= endFirings) {
        result_.status = SimResult::Status::Ok;
        result_.measuredCycles = execution_.now() - measureStart_;
        result_.measuredIterations = options_.measureIterations;
        break;
      }
      if (!execution_.active()) {
        result_.status = SimResult::Status::Deadlock;
        break;
      }
      execution_.advance();
    }
    result_.totalCycles = execution_.now();
    return std::move(result_);
  }

 private:
  static constexpr std::uint64_t kUnset = std::numeric_limits<std::uint64_t>::max();

  /// Execute the functional behavior: pop input payloads, produce output
  /// payloads (buffered until the firing completes), return the cost.
  std::uint64_t runBehavior(ActorId a) {
    const sdf::Graph& appGraph = impl_.app.graph();
    FiringData data;
    data.inputs.resize(impl_.explicitIns[a].size());
    for (std::size_t i = 0; i < impl_.explicitIns[a].size(); ++i) {
      const ChannelId c = impl_.explicitIns[a][i];
      const std::uint32_t rate = appGraph.channel(c).consRate;
      auto& queue = payloads_[c];
      if (queue.size() < rate) {
        throw ModelError("payload underflow on channel " + appGraph.channel(c).name);
      }
      for (std::uint32_t k = 0; k < rate; ++k) {
        data.inputs[i].push_back(std::move(queue.front()));
        queue.pop_front();
      }
    }
    data.outputs.resize(impl_.explicitOuts[a].size());
    for (std::size_t i = 0; i < impl_.explicitOuts[a].size(); ++i) {
      const ChannelId c = impl_.explicitOuts[a][i];
      data.outputs[i].assign(appGraph.channel(c).prodRate,
                             Token(appGraph.channel(c).tokenSizeBytes, 0));
    }
    const std::uint64_t cost = impl_.behaviors[a]->fire(data);

    result_.maxFiringCycles[a] = std::max(result_.maxFiringCycles[a], cost);
    result_.totalFiringCycles[a] += cost;
    ++result_.firings[a];

    // Stash outputs; delivered at completion (SDF produce-at-end).
    auto& pending = pendingOutputs_[a];
    pending.clear();
    for (std::size_t i = 0; i < impl_.explicitOuts[a].size(); ++i) {
      const ChannelId c = impl_.explicitOuts[a][i];
      for (auto& token : data.outputs[i]) {
        token.resize(appGraph.channel(c).tokenSizeBytes);
        pending.emplace_back(c, std::move(token));
      }
    }
    return cost;
  }

  /// Deliver a completed firing's output payloads (SDF produce-at-end).
  void deliver(ActorId a) {
    for (auto& [channel, token] : pendingOutputs_[a]) {
      if (impl_.mapping.channelRoutes.at(channel).interTile) {
        result_.interTileBytes[channel] += token.size();
      }
      payloads_[channel].push_back(std::move(token));
    }
    pendingOutputs_[a].clear();
  }

  PlatformSim::Impl& impl_;
  SimOptions options_;
  std::size_t originalActors_;
  analysis::SelfTimedExecution execution_;

  std::vector<std::vector<std::pair<ChannelId, Token>>> pendingOutputs_;
  std::vector<std::deque<Token>> payloads_;

  std::uint64_t measureStart_ = kUnset;
  std::uint64_t qRef_ = 1;
  SimResult result_;
};

}  // namespace

SimResult PlatformSim::run(const SimOptions& options) {
  Engine engine(*impl_, options);
  return engine.run();
}

}  // namespace mamps::sim
