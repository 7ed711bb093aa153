// The token rule of the SDF-to-HSDF (homogeneous SDF) expansion.
//
// Every actor a of the SDF graph is expanded into q[a] copies, one per
// firing within an iteration; every channel is expanded into token-level
// dependencies between specific firings using the standard construction
// (Sriram & Bhattacharyya). All rates in the result are 1, so the
// expansion can be analyzed with maximum-cycle-ratio techniques
// (analysis/flat_hsdf.hpp).
#pragma once

#include <cstdint>

/// \namespace mamps::sdf
/// \brief The SDF graph model: structure, repetition vectors, HSDF
/// expansion, application models, and serialization.

namespace mamps::sdf {

/// One token-level dependency of the standard SDF-to-HSDF expansion
/// (see hsdfTokenDependency).
struct TokenDependency {
  /// Index of the source firing copy that produced the token.
  std::uint64_t srcCopy = 0;
  /// Iteration distance to the producing firing (the HSDF edge delay).
  std::uint64_t delay = 0;
};

/// The token rule of the standard expansion (Sriram & Bhattacharyya),
/// shared by the analysis layer's flat expansion and the tests'
/// graph-materializing oracle so the two encodings cannot drift apart:
/// the token at consumption position `n` of a channel with `d` initial
/// tokens and production rate `prod` was produced by firing
/// floor((n - d) / prod); non-negative indices
/// land in the current iteration (copy index, delay 0), negative ones
/// are initial tokens attributed to copies of earlier iterations (the
/// iteration distance becomes the delay).
/// @param n global consumption position within one iteration
/// @param d initial tokens on the channel
/// @param prod production rate (> 0)
/// @param qSrc repetition count of the producing actor (> 0)
/// @return the producing firing copy and the iteration distance
[[nodiscard]] constexpr TokenDependency hsdfTokenDependency(std::uint64_t n, std::uint64_t d,
                                                           std::uint64_t prod,
                                                           std::uint64_t qSrc) {
  if (n < d) {
    const std::uint64_t fromEnd = d - 1 - n;           // 0 = newest initial token
    const std::uint64_t prodIdxBack = fromEnd / prod;  // firings back from iteration 0
    return {(qSrc - 1) - prodIdxBack % qSrc, prodIdxBack / qSrc + 1};
  }
  return {(n - d) / prod % qSrc, 0};
}

}  // namespace mamps::sdf
