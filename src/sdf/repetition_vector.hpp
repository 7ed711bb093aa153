// Repetition vector and consistency analysis.
//
// An SDF graph is *consistent* when the balance equations
//     q[src(c)] * prodRate(c) == q[dst(c)] * consRate(c)   for every c
// admit a non-trivial solution. The repetition vector is the smallest
// positive integer solution; one *iteration* of the graph fires each
// actor a exactly q[a] times and returns every channel to its initial
// token count.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sdf/graph.hpp"

namespace mamps::sdf {

/// The smallest positive integer repetition vector, or nullopt when the
/// graph is inconsistent. Disconnected graphs are solved per weakly
/// connected component; each component is scaled independently to the
/// smallest integers. Actors with no channels get q == 1.
[[nodiscard]] std::optional<std::vector<std::uint64_t>> computeRepetitionVector(const Graph& g);

/// True when the balance equations have a solution.
[[nodiscard]] bool isConsistent(const Graph& g);

/// Deadlock check: simulates one iteration with token counting only
/// (execution times are irrelevant for deadlock in SDF). Returns true
/// when every actor can complete its q firings. Throws AnalysisError for
/// inconsistent graphs.
[[nodiscard]] bool isDeadlockFree(const Graph& g);

}  // namespace mamps::sdf
