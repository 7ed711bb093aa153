#include "sdf/repetition_vector.hpp"

#include <numeric>

#include "support/rational.hpp"

namespace mamps::sdf {

std::optional<std::vector<std::uint64_t>> computeRepetitionVector(const Graph& g) {
  const std::size_t n = g.actorCount();
  std::vector<Rational> q(n, Rational(0));

  // Propagate fractional firing rates over each weakly connected
  // component by depth-first search, then verify every balance equation.
  std::vector<ActorId> stack;
  for (ActorId seed = 0; seed < n; ++seed) {
    if (!q[seed].isZero()) {
      continue;
    }
    q[seed] = Rational(1);
    stack.push_back(seed);
    while (!stack.empty()) {
      const ActorId a = stack.back();
      stack.pop_back();
      const auto propagate = [&](const Channel& c) {
        // q[src] * prod == q[dst] * cons
        const Rational prod(static_cast<std::int64_t>(c.prodRate));
        const Rational cons(static_cast<std::int64_t>(c.consRate));
        if (c.src == a && q[c.dst].isZero()) {
          q[c.dst] = q[c.src] * prod / cons;
          stack.push_back(c.dst);
        } else if (c.dst == a && q[c.src].isZero()) {
          q[c.src] = q[c.dst] * cons / prod;
          stack.push_back(c.src);
        }
      };
      for (const ChannelId cid : g.actor(a).outputs) {
        propagate(g.channel(cid));
      }
      for (const ChannelId cid : g.actor(a).inputs) {
        propagate(g.channel(cid));
      }
    }
  }

  for (const Channel& c : g.channels()) {
    const Rational lhs = q[c.src] * Rational(static_cast<std::int64_t>(c.prodRate));
    const Rational rhs = q[c.dst] * Rational(static_cast<std::int64_t>(c.consRate));
    if (!(lhs == rhs)) {
      return std::nullopt;  // inconsistent
    }
  }

  // Scale each connected component independently to smallest integers:
  // multiply by the lcm of denominators, then divide by the gcd.
  // Identify components again (undirected reachability).
  std::vector<int> component(n, -1);
  int componentCount = 0;
  for (ActorId seed = 0; seed < n; ++seed) {
    if (component[seed] != -1) {
      continue;
    }
    const int me = componentCount++;
    component[seed] = me;
    stack.push_back(seed);
    while (!stack.empty()) {
      const ActorId a = stack.back();
      stack.pop_back();
      const auto visit = [&](const Channel& c) {
        const ActorId other = (c.src == a) ? c.dst : c.src;
        if (component[other] == -1) {
          component[other] = me;
          stack.push_back(other);
        }
      };
      for (const ChannelId cid : g.actor(a).outputs) {
        visit(g.channel(cid));
      }
      for (const ChannelId cid : g.actor(a).inputs) {
        visit(g.channel(cid));
      }
    }
  }

  std::vector<std::int64_t> lcmDen(static_cast<std::size_t>(componentCount), 1);
  for (ActorId a = 0; a < n; ++a) {
    auto& l = lcmDen[static_cast<std::size_t>(component[a])];
    l = checkedLcm(l, q[a].den());
  }
  std::vector<std::uint64_t> out(n, 0);
  std::vector<std::uint64_t> gcdNum(static_cast<std::size_t>(componentCount), 0);
  for (ActorId a = 0; a < n; ++a) {
    const Rational scaled = q[a] * Rational(lcmDen[static_cast<std::size_t>(component[a])]);
    out[a] = static_cast<std::uint64_t>(scaled.num());
    auto& gnum = gcdNum[static_cast<std::size_t>(component[a])];
    gnum = std::gcd(gnum, out[a]);
  }
  for (ActorId a = 0; a < n; ++a) {
    out[a] /= gcdNum[static_cast<std::size_t>(component[a])];
  }
  return out;
}

bool isConsistent(const Graph& g) { return computeRepetitionVector(g).has_value(); }

bool isDeadlockFree(const Graph& g) {
  const auto qOpt = computeRepetitionVector(g);
  if (!qOpt) {
    throw AnalysisError("isDeadlockFree: graph '" + g.name() + "' is inconsistent");
  }
  const auto& q = *qOpt;
  std::vector<std::uint64_t> tokens(g.channelCount());
  for (std::size_t c = 0; c < g.channelCount(); ++c) {
    tokens[c] = g.channel(static_cast<ChannelId>(c)).initialTokens;
  }
  std::vector<std::uint64_t> remaining(q.begin(), q.end());

  // Fire any enabled actor until all firings of the iteration are done
  // or no actor can fire. Termination: each pass fires at least one
  // actor or exits; total firings are bounded by sum(q).
  bool progress = true;
  while (progress) {
    progress = false;
    for (ActorId a = 0; a < g.actorCount(); ++a) {
      if (remaining[a] == 0) {
        continue;
      }
      const Actor& actor = g.actor(a);
      bool ready = true;
      for (const ChannelId c : actor.inputs) {
        if (tokens[c] < g.channel(c).consRate) {
          ready = false;
          break;
        }
      }
      if (!ready) {
        continue;
      }
      for (const ChannelId c : actor.inputs) {
        tokens[c] -= g.channel(c).consRate;
      }
      for (const ChannelId c : actor.outputs) {
        tokens[c] += g.channel(c).prodRate;
      }
      --remaining[a];
      progress = true;
    }
  }
  for (const std::uint64_t r : remaining) {
    if (r != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace mamps::sdf
