// Shared helpers for the test suites: well-known graphs and a random
// consistent-SDF-graph generator for property-based tests.
#pragma once

#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "analysis/throughput.hpp"
#include "sdf/app_model.hpp"
#include "sdf/graph.hpp"
#include "support/rng.hpp"

namespace mamps::test {

/// The example graph of Figure 2 of the paper: A fires first (self-edge
/// with one initial token), produces 2 tokens to B and 1 to C; B fires
/// twice producing 1 token to C each time; C consumes 2 from B and 1
/// from A. Repetition vector: q = [1, 2, 1].
inline sdf::Graph figure2Graph() {
  sdf::Graph g("figure2");
  const auto a = g.addActor("A");
  const auto b = g.addActor("B");
  const auto c = g.addActor("C");
  g.connect(a, 2, b, 1, 0, "a2b");
  g.connect(a, 1, c, 1, 0, "a2c");
  g.connect(b, 1, c, 2, 0, "b2c");
  g.connect(a, 1, a, 1, 1, "aState");
  return g;
}

/// A two-actor pipeline producer -> consumer with the given rates.
inline sdf::Graph pipelineGraph(std::uint32_t prod, std::uint32_t cons,
                                std::uint64_t initialTokens = 0) {
  sdf::Graph g("pipeline");
  const auto p = g.addActor("producer");
  const auto c = g.addActor("consumer");
  g.connect(p, prod, c, cons, initialTokens, "link");
  return g;
}

/// A ring of n actors with one token on the closing edge.
inline sdf::Graph ringGraph(std::uint32_t n) {
  sdf::Graph g("ring");
  std::vector<sdf::ActorId> ids;
  ids.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string name = "r";
    name += std::to_string(i);
    ids.push_back(g.addActor(std::move(name)));
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    const bool closing = (i + 1 == n);
    g.connect(ids[i], 1, ids[(i + 1) % n], 1, closing ? 1 : 0);
  }
  return g;
}

struct RandomGraphOptions {
  std::uint32_t minActors = 2;
  std::uint32_t maxActors = 6;
  std::uint32_t maxRateFactor = 3;  ///< multiplies the balance-derived base rates
  std::uint32_t maxExtraChannels = 4;
  std::uint32_t maxQ = 4;           ///< per-actor repetition count used to derive rates
  bool ensureLive = true;           ///< add tokens so one iteration completes
};

/// A random *consistent* SDF graph: rates are derived from a randomly
/// chosen repetition vector, so the balance equations hold by
/// construction. A spanning chain keeps the graph connected; extra
/// channels (possibly creating cycles) are added on top. When
/// `ensureLive` is set, channels that point "backwards" receive enough
/// initial tokens for one full iteration, making the graph deadlock-free.
inline sdf::Graph randomConsistentGraph(Rng& rng, const RandomGraphOptions& opt = {}) {
  sdf::Graph g("random");
  const auto n =
      static_cast<std::uint32_t>(rng.range(opt.minActors, opt.maxActors));
  std::vector<sdf::ActorId> ids;
  std::vector<std::uint64_t> q;
  ids.reserve(n);
  q.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string name = "x";
    name += std::to_string(i);
    ids.push_back(g.addActor(std::move(name)));
    q.push_back(rng.range(1, opt.maxQ));
  }
  const auto addChannel = [&](std::uint32_t from, std::uint32_t to) {
    const std::uint64_t gg = std::gcd(q[from], q[to]);
    const std::uint64_t k = rng.range(1, opt.maxRateFactor);
    const auto prod = static_cast<std::uint32_t>(q[to] / gg * k);
    const auto cons = static_cast<std::uint32_t>(q[from] / gg * k);
    std::uint64_t tokens = 0;
    if (opt.ensureLive && from >= to) {
      // Backward or self edge: provision a full iteration of tokens.
      tokens = q[from] * prod;
    } else if (rng.chance(0.3)) {
      tokens = rng.range(0, 3);
    }
    g.connect(ids[from], prod, ids[to], cons, tokens);
  };
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    addChannel(i, i + 1);
  }
  const auto extra = static_cast<std::uint32_t>(rng.range(0, opt.maxExtraChannels));
  for (std::uint32_t e = 0; e < extra; ++e) {
    const auto from = static_cast<std::uint32_t>(rng.range(0, n - 1));
    const auto to = static_cast<std::uint32_t>(rng.range(0, n - 1));
    addChannel(from, to);
  }
  return g;
}

/// A complete application model around a graph: one "microblaze"
/// implementation per actor with the given WCETs (cycled when fewer
/// WCETs than actors are given).
inline sdf::ApplicationModel makeAppModel(sdf::Graph graph,
                                          const std::vector<std::uint64_t>& wcets,
                                          std::uint32_t instrMem = 4096,
                                          std::uint32_t dataMem = 1024) {
  sdf::ApplicationModel model(std::move(graph));
  for (sdf::ActorId a = 0; a < model.graph().actorCount(); ++a) {
    sdf::ActorImplementation impl;
    impl.functionName = "actor_" + model.graph().actor(a).name;
    impl.processorType = "microblaze";
    impl.wcetCycles = wcets.empty() ? 100 : wcets[a % wcets.size()];
    impl.instrMemBytes = instrMem;
    impl.dataMemBytes = dataMem;
    for (const sdf::ChannelId c : model.graph().actor(a).outputs) {
      if (!model.graph().channel(c).isSelfEdge()) {
        impl.argumentChannels.push_back(c);
      }
    }
    model.addImplementation(a, impl);
  }
  return model;
}

/// Random execution times in [lo, hi] for every actor of `g`.
inline std::vector<std::uint64_t> randomExecTimes(Rng& rng, const sdf::Graph& g,
                                                  std::uint64_t lo = 1, std::uint64_t hi = 20) {
  std::vector<std::uint64_t> out(g.actorCount());
  for (auto& t : out) {
    t = rng.range(lo, hi);
  }
  return out;
}

/// FNV-1a over 64-bit values, low byte first: the digest of the golden
/// tables.
struct Fnv1a {
  std::uint64_t hash = 0xcbf29ce484222325ULL;

  void mix(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash = (hash ^ ((value >> (8 * byte)) & 0xffU)) * 0x100000001b3ULL;
    }
  }
};

/// A multi-rate ring under static-order resource sharing, for the
/// executor and state-space goldens.
struct StaticOrderRing {
  sdf::TimedGraph timed;
  analysis::ResourceConstraints resources;
};

/// A random static-order ring: 2-6 actors of 0-20 cycles in a ring whose
/// closing channel holds one iteration of tokens, each other channel
/// none or one firing's worth. Half the rings get random
/// self-concurrency limits in [0, 2]. Most actors are bound to one of
/// one or two shared resources. Each resource's static order is its
/// actors' part of a random admissible sequence of one iteration; in
/// about a quarter of the rings it keeps only each actor's first
/// firing, and in about a fifth it is shuffled, which may deadlock.
inline StaticOrderRing randomStaticOrderRing(Rng& rng) {
  const auto n = static_cast<std::uint32_t>(rng.range(2, 6));
  std::vector<std::uint64_t> q(n);
  for (auto& v : q) {
    v = rng.range(1, 3);
  }
  sdf::Graph g("so_ring");
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string name = "s";
    name += std::to_string(i);
    g.addActor(std::move(name));
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t next = (i + 1) % n;
    const std::uint64_t gg = std::gcd(q[i], q[next]);
    const auto prod = static_cast<std::uint32_t>(q[next] / gg);
    const auto cons = static_cast<std::uint32_t>(q[i] / gg);
    g.connect(i, prod, next, cons, next == 0 ? q[i] * prod : rng.range(0, 1) * cons);
  }

  // One iteration, fired sequentially in a random admissible order.
  // Actor a reads channel a - 1 and writes channel a.
  const auto input = [n](sdf::ActorId a) { return (a + n - 1) % n; };
  std::vector<sdf::ActorId> sequence;
  std::vector<std::uint64_t> tokens(n);
  std::vector<std::uint64_t> left = q;
  for (sdf::ChannelId c = 0; c < n; ++c) {
    tokens[c] = g.channel(c).initialTokens;
  }
  for (;;) {
    std::vector<sdf::ActorId> enabled;
    for (sdf::ActorId a = 0; a < n; ++a) {
      if (left[a] > 0 && tokens[input(a)] >= g.channel(input(a)).consRate) {
        enabled.push_back(a);
      }
    }
    if (enabled.empty()) {
      break;
    }
    const sdf::ActorId a = enabled[rng.range(0, enabled.size() - 1)];
    tokens[input(a)] -= g.channel(input(a)).consRate;
    tokens[a] += g.channel(a).prodRate;
    --left[a];
    sequence.push_back(a);
  }

  std::vector<std::uint64_t> execTimes = randomExecTimes(rng, g, 0, 20);
  StaticOrderRing ring{{std::move(g), std::move(execTimes)}, {}};
  if (rng.chance(0.5)) {
    ring.timed.maxConcurrent.resize(n);
    for (auto& limit : ring.timed.maxConcurrent) {
      limit = static_cast<std::uint32_t>(rng.range(0, 2));
    }
  }

  const auto resourceCount = static_cast<std::uint32_t>(rng.range(1, 2));
  ring.resources.actorResource.assign(n, analysis::ResourceConstraints::kUnbound);
  for (sdf::ActorId a = 0; a < n; ++a) {
    if (!rng.chance(0.2)) {
      ring.resources.actorResource[a] =
          static_cast<std::uint32_t>(rng.range(0, resourceCount - 1));
    }
  }
  const bool firstFiringOnly = rng.chance(0.25);
  const bool shuffled = rng.chance(0.2);
  ring.resources.staticOrder.resize(resourceCount);
  std::vector<bool> listed(n, false);
  for (const sdf::ActorId a : sequence) {
    const std::uint32_t r = ring.resources.actorResource[a];
    if (r != analysis::ResourceConstraints::kUnbound && !(firstFiringOnly && listed[a])) {
      ring.resources.staticOrder[r].push_back(a);
      listed[a] = true;
    }
  }
  if (shuffled) {
    for (auto& order : ring.resources.staticOrder) {
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.range(0, i - 1)]);
      }
    }
  }
  return ring;
}

}  // namespace mamps::test
