// SDM mesh NoC topology: router placement, XY routing, and the word
// cost of a wire reservation (Section 5.3.1, based on [17]).
//
// The NoC has one router per tile, arranged in a 2-D mesh kept as close
// to square as possible. Connections are programmed point-to-point; a
// connection is assigned a number of wires on every link along its
// route, and a wire belongs to at most one connection at a time. The
// per-link ledger of those wires is platform::ResourceBudget
// (reserveNocWires / usedWires).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "platform/architecture.hpp"

namespace mamps::platform {

/// Position of a router in the mesh.
struct MeshCoord {
  std::uint32_t x = 0;
  std::uint32_t y = 0;

  bool operator==(const MeshCoord&) const = default;
};

/// One directed mesh link between adjacent routers.
struct NocLink {
  std::uint32_t fromRouter = 0;
  std::uint32_t toRouter = 0;
};

using LinkId = std::uint32_t;

/// Near-square mesh dimensions for `n` routers: rows = floor(sqrt(n)),
/// cols = ceil(n / rows). This minimizes the maximum hop distance,
/// which relates directly to connection latency (Section 5.3.1).
[[nodiscard]] std::pair<std::uint32_t, std::uint32_t> nearSquareMesh(std::uint32_t n);

/// The static topology derived from a NocConfig: routers, links, routes.
class NocTopology {
 public:
  explicit NocTopology(const NocConfig& config);

  [[nodiscard]] std::uint32_t routerCount() const { return config_.rows * config_.cols; }
  [[nodiscard]] const NocConfig& config() const { return config_; }

  [[nodiscard]] MeshCoord coordOf(std::uint32_t router) const;
  [[nodiscard]] std::uint32_t routerAt(MeshCoord c) const;

  [[nodiscard]] std::size_t linkCount() const { return links_.size(); }
  [[nodiscard]] const NocLink& link(LinkId id) const;
  [[nodiscard]] const std::vector<NocLink>& links() const { return links_; }
  /// The directed link between two adjacent routers.
  [[nodiscard]] LinkId linkBetween(std::uint32_t fromRouter, std::uint32_t toRouter) const;

  /// Dimension-ordered (XY) route between two routers: the sequence of
  /// directed links traversed. Empty when src == dst.
  [[nodiscard]] std::vector<LinkId> xyRoute(std::uint32_t srcRouter,
                                            std::uint32_t dstRouter) const;

  /// Manhattan distance in hops.
  [[nodiscard]] std::uint32_t hopDistance(std::uint32_t srcRouter,
                                          std::uint32_t dstRouter) const;

 private:
  NocConfig config_;
  std::vector<NocLink> links_;
  // linkIndex_[from][direction] would be denser; a flat search keeps it simple.
};

/// Cycles needed to move one 32-bit word over a connection's `wires`
/// reserved wires: words are transmitted bit-serially, so one word takes
/// ceil(32 / wires) cycles on the narrowest hop.
/// @throws ModelError when `wires` is zero
[[nodiscard]] std::uint32_t cyclesPerWord(std::uint32_t wires);

}  // namespace mamps::platform
