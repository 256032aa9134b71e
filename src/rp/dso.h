// Subset distance sensitivity oracle built on Algorithm 1.
//
// The paper (Section 4.3) relates its FT labels to distance sensitivity
// oracles: centralized structures answering dist_{G\e}(s, t) fast. For a
// source set S, Algorithm 1's output is exactly the content such an oracle
// needs: per pair, the base distance plus the replacement distance for each
// edge on the canonical path -- every other edge leaves the distance
// unchanged (stability). The oracle stores that in hash maps for O(1)
// expected query time, versus a full BFS per query without it.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/rpts.h"
#include "graph/graph.h"
#include "rp/subset_rp.h"

namespace restorable {

class SubsetDistanceSensitivityOracle {
 public:
  // Preprocesses with Algorithm 1: O(sigma m) + O~(sigma^2 n), fanned out
  // over `engine` (nullptr = shared engine).
  SubsetDistanceSensitivityOracle(const IsolationRpts& pi,
                                  std::span<const Vertex> sources,
                                  const BatchSsspEngine* engine = nullptr);

  // dist_{G \ {e}}(s1, s2); kUnreachable if the failure disconnects the
  // pair (or the pair was never connected). s1, s2 must be in S.
  int32_t query(Vertex s1, Vertex s2, EdgeId e) const;

  // dist_G(s1, s2) with no failure.
  int32_t base_distance(Vertex s1, Vertex s2) const;

  size_t num_pairs() const { return pairs_.size(); }
  // Total stored entries (pair records + per-edge replacement entries), the
  // oracle's O~(sigma^2 n) space term.
  size_t entries() const;

 private:
  struct PairRecord {
    int32_t base = kUnreachable;
    std::unordered_map<EdgeId, int32_t> on_path;  // edge -> replacement dist
  };

  static uint64_t key(Vertex a, Vertex b) {
    if (a > b) std::swap(a, b);
    return (static_cast<uint64_t>(a) << 32) | b;
  }

  std::unordered_map<uint64_t, PairRecord> pairs_;
};

}  // namespace restorable
