#include "platform/noc_topology.hpp"

#include <cmath>

namespace mamps::platform {

std::pair<std::uint32_t, std::uint32_t> nearSquareMesh(std::uint32_t n) {
  if (n == 0) {
    return {1, 1};
  }
  auto rows = static_cast<std::uint32_t>(std::sqrt(static_cast<double>(n)));
  if (rows == 0) {
    rows = 1;
  }
  const std::uint32_t cols = (n + rows - 1) / rows;
  return {rows, cols};
}

NocTopology::NocTopology(const NocConfig& config) : config_(config) {
  if (config_.rows == 0 || config_.cols == 0) {
    throw ModelError("NocTopology: mesh dimensions must be positive");
  }
  // Enumerate directed links between 4-neighbour routers.
  for (std::uint32_t y = 0; y < config_.rows; ++y) {
    for (std::uint32_t x = 0; x < config_.cols; ++x) {
      const std::uint32_t me = routerAt({x, y});
      if (x + 1 < config_.cols) {
        const std::uint32_t right = routerAt({x + 1, y});
        links_.push_back({me, right});
        links_.push_back({right, me});
      }
      if (y + 1 < config_.rows) {
        const std::uint32_t down = routerAt({x, y + 1});
        links_.push_back({me, down});
        links_.push_back({down, me});
      }
    }
  }
}

MeshCoord NocTopology::coordOf(std::uint32_t router) const {
  if (router >= routerCount()) {
    throw ModelError("router id out of range");
  }
  return {router % config_.cols, router / config_.cols};
}

std::uint32_t NocTopology::routerAt(MeshCoord c) const {
  if (c.x >= config_.cols || c.y >= config_.rows) {
    throw ModelError("mesh coordinate out of range");
  }
  return c.y * config_.cols + c.x;
}

const NocLink& NocTopology::link(LinkId id) const {
  if (id >= links_.size()) {
    throw ModelError("link id out of range");
  }
  return links_[id];
}

LinkId NocTopology::linkBetween(std::uint32_t fromRouter, std::uint32_t toRouter) const {
  for (std::size_t i = 0; i < links_.size(); ++i) {
    if (links_[i].fromRouter == fromRouter && links_[i].toRouter == toRouter) {
      return static_cast<LinkId>(i);
    }
  }
  throw ModelError("no link between routers " + std::to_string(fromRouter) + " and " +
                   std::to_string(toRouter));
}

std::vector<LinkId> NocTopology::xyRoute(std::uint32_t srcRouter, std::uint32_t dstRouter) const {
  std::vector<LinkId> route;
  MeshCoord at = coordOf(srcRouter);
  const MeshCoord target = coordOf(dstRouter);
  // X first, then Y (dimension-ordered routing is deadlock-free).
  while (at.x != target.x) {
    const MeshCoord next{at.x < target.x ? at.x + 1 : at.x - 1, at.y};
    route.push_back(linkBetween(routerAt(at), routerAt(next)));
    at = next;
  }
  while (at.y != target.y) {
    const MeshCoord next{at.x, at.y < target.y ? at.y + 1 : at.y - 1};
    route.push_back(linkBetween(routerAt(at), routerAt(next)));
    at = next;
  }
  return route;
}

std::uint32_t NocTopology::hopDistance(std::uint32_t srcRouter, std::uint32_t dstRouter) const {
  const MeshCoord a = coordOf(srcRouter);
  const MeshCoord b = coordOf(dstRouter);
  const auto dx = (a.x > b.x) ? a.x - b.x : b.x - a.x;
  const auto dy = (a.y > b.y) ? a.y - b.y : b.y - a.y;
  return dx + dy;
}

std::uint32_t cyclesPerWord(std::uint32_t wires) {
  if (wires == 0) {
    throw ModelError("cyclesPerWord: zero wires");
  }
  return (32 + wires - 1) / wires;
}

}  // namespace mamps::platform
