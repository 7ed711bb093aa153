#include "sdf/repetition_vector.hpp"

#include <numeric>
#include <string>

#include "support/rational.hpp"

namespace mamps::sdf {
namespace {

/// from · num / den, with Rational's overflow, which names nothing,
/// rethrown as a ModelError that names the channel.
Rational balance(const Channel& c, const Rational& from, std::uint32_t num, std::uint32_t den) {
  try {
    return from * Rational(num, den);
  } catch (const Error&) {
    throw ModelError("computeRepetitionVector: the balance of channel '" + c.name +
                     "' overflows int64");
  }
}

}  // namespace

std::optional<std::vector<std::uint64_t>> computeRepetitionVector(const Graph& g) {
  const std::size_t n = g.actorCount();
  std::vector<Rational> q(n, Rational(0));

  // Propagate fractional firing rates over each weakly connected
  // component by depth-first search, labelling the components as they
  // are found, then verify every balance equation.
  std::vector<int> component(n, -1);
  int componentCount = 0;
  std::vector<ActorId> stack;
  for (ActorId seed = 0; seed < n; ++seed) {
    if (component[seed] != -1) {
      continue;
    }
    const int me = componentCount++;
    const auto reach = [&](ActorId a, const Rational& rate) {
      q[a] = rate;
      component[a] = me;
      stack.push_back(a);
    };
    reach(seed, Rational(1));
    while (!stack.empty()) {
      const ActorId a = stack.back();
      stack.pop_back();
      const auto propagate = [&](const Channel& c) {
        // q[src] * prod == q[dst] * cons
        if (c.src == a && component[c.dst] == -1) {
          reach(c.dst, balance(c, q[c.src], c.prodRate, c.consRate));
        } else if (c.dst == a && component[c.src] == -1) {
          reach(c.src, balance(c, q[c.dst], c.consRate, c.prodRate));
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
    if (balance(c, q[c.src], c.prodRate, 1) != balance(c, q[c.dst], c.consRate, 1)) {
      return std::nullopt;  // inconsistent
    }
  }

  // Scale each connected component independently to smallest integers:
  // multiply by the lcm of denominators, then divide by the gcd.
  std::vector<std::int64_t> lcmDen(static_cast<std::size_t>(componentCount), 1);
  std::vector<std::uint64_t> out(n, 0);
  std::vector<std::uint64_t> gcdNum(static_cast<std::size_t>(componentCount), 0);
  try {
    for (ActorId a = 0; a < n; ++a) {
      auto& l = lcmDen[static_cast<std::size_t>(component[a])];
      l = checkedLcm(l, q[a].den());
    }
    for (ActorId a = 0; a < n; ++a) {
      const Rational scaled = q[a] * Rational(lcmDen[static_cast<std::size_t>(component[a])]);
      out[a] = static_cast<std::uint64_t>(scaled.num());
      auto& gnum = gcdNum[static_cast<std::size_t>(component[a])];
      gnum = std::gcd(gnum, out[a]);
    }
  } catch (const Error&) {
    throw ModelError("computeRepetitionVector: the integer scaling of graph '" + g.name() +
                     "' overflows int64");
  }
  for (ActorId a = 0; a < n; ++a) {
    out[a] /= gcdNum[static_cast<std::size_t>(component[a])];
  }
  return out;
}

}  // namespace mamps::sdf
