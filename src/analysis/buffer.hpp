// Deadlock check and bounded-buffer (capacity) modelling.
//
// The deadlock check runs one iteration of the graph on the self-timed
// executor (analysis/self_timed.hpp), each actor's budget its repetition
// count, with one-cycle firings and every actor serialized: token
// counting only, since execution times are irrelevant to deadlock in SDF.
//
// A bounded channel buffer is modeled by a reverse edge carrying "space
// tokens" (Stuijk [14]): a channel with capacity beta tokens gets a
// back-edge dst -> src with beta - initialTokens space tokens, the
// production rate of the back-edge equal to the forward consumption
// rate and vice versa. The producer then blocks until space is free,
// exactly like the generated platform's software does.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/throughput.hpp"
#include "sdf/graph.hpp"

namespace mamps::analysis {

/// Capacity per channel, in tokens. Zero means unbounded (no back-edge);
/// self-edges are never capacitated (their token count is fixed).
using BufferCapacities = std::vector<std::uint64_t>;

/// Build the capacitated graph: a copy of `g` with one space back-edge
/// per bounded channel. Back-edges are named "<channel>_space".
/// @param g the graph to capacitate
/// @param capacities one entry per channel of `g` (0 = unbounded)
/// @param spaceEdges when not null, receives one entry per channel of
///   `g`: the id of its space back-edge in the result, or
///   sdf::kInvalidChannel when it has none
/// @return the graph with space back-edges appended
/// @throws ModelError when a capacity is smaller than the channel's
///   initial tokens or smaller than max(prodRate, consRate)
[[nodiscard]] sdf::Graph withCapacities(const sdf::Graph& g, const BufferCapacities& capacities,
                                        std::vector<sdf::ChannelId>* spaceEdges = nullptr);

/// Timed variant: back-edge transport is instantaneous (space is
/// released by the consumer firing itself), so execution times carry
/// over unchanged.
/// @param timed the timed graph to capacitate
/// @param capacities one entry per channel (0 = unbounded)
/// @param spaceEdges as in the structural variant
/// @return the capacitated timed graph
/// @throws ModelError on invalid capacities (see the structural variant)
[[nodiscard]] sdf::TimedGraph withCapacities(const sdf::TimedGraph& timed,
                                             const BufferCapacities& capacities,
                                             std::vector<sdf::ChannelId>* spaceEdges = nullptr);

/// The classical per-channel lower bound for a deadlock-free capacity:
/// prod + cons - gcd(prod, cons) + (initialTokens mod gcd), and at least
/// the number of initial tokens.
/// @param c the channel to bound
/// @return the smallest capacity that can possibly avoid deadlock
[[nodiscard]] std::uint64_t capacityLowerBound(const sdf::Channel& c);

/// Deadlock check: can one iteration complete with unbounded buffers?
/// @param g the graph to check
/// @param q its repetition vector (sdf::computeRepetitionVector)
/// @return true when every actor completes its q firings
/// @throws AnalysisError when `q` does not have one entry per actor
[[nodiscard]] bool isDeadlockFree(const sdf::Graph& g, std::span<const std::uint64_t> q);

}  // namespace mamps::analysis
