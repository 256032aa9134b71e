// subset-rp (Section 4.2, Algorithm 1 / Theorems 3 and 29).
//
// Input: graph G and sources S (|S| = sigma). Output: for every ordered-up
// pair {s1, s2} in S and every edge e on the selected path pi(s1, s2),
// dist_{G \ e}(s1, s2). (For edges off the selected path the distance is
// unchanged, by stability -- callers needing those values read the base
// distance.)
//
// Algorithm 1: build the out-tree T_s under a 1-restorable scheme for each
// s in S (O(sigma m) Dijkstra work); then for each pair run the single-pair
// algorithm on H = T_{s1} u T_{s2}, a graph with <= 2(n-1) edges
// (O~(sigma^2 n) work). 1-restorability is what makes the union graph
// preserve every single-fault replacement distance. Since T_{s1} lies in H
// and H in G, T_{s1} is also H's out-tree of s1: step 2 hands the batch's
// tree to the single-pair core as is, so one sweep (the in-tree to s2)
// runs per pair, and the base path comes back in G's edge ids.
#pragma once

#include <cstdint>
#include <vector>

#include "core/rpts.h"
#include "graph/graph.h"
#include "rp/single_pair_rp.h"

namespace restorable {

struct PairReplacementPaths {
  Vertex s1 = kNoVertex;
  Vertex s2 = kNoVertex;
  Path base_path;  // pi(s1, s2) in G's edge ids; empty if disconnected
  // replacement[i] = dist_{G \ base_path.edges[i]}(s1, s2).
  std::vector<int32_t> replacement;
};

struct SubsetRpResult {
  std::vector<PairReplacementPaths> pairs;  // one entry per unordered pair
  // Work accounting, for the E2 bench.
  size_t tree_edges_total = 0;
  size_t union_graph_edges_total = 0;
};

// Runs Algorithm 1 with the given (1-restorable) scheme. The sigma out-tree
// builds go through the batch engine as one submission, and the sigma^2 / 2
// per-pair union-graph solves fan out over the engine's pool (nullptr =
// shared engine). Results are in pair order (i < j, lexicographic) whatever
// the thread count. A non-null `cache` resolves the out-trees through the
// shared SPT store (serve/spt_cache.h), deduplicating them against other
// consumers of the same scheme; results are bit-identical either way.
// Throws std::out_of_range, before any work, for a source >= n.
SubsetRpResult subset_replacement_paths(const IsolationRpts& pi,
                                        std::span<const Vertex> sources,
                                        const BatchSsspEngine* engine = nullptr,
                                        SptCache* cache = nullptr);

}  // namespace restorable
