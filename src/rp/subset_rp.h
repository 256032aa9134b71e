// subset-rp (Section 4.2, Algorithm 1 / Theorems 3 and 29).
//
// Input: graph G and sources S (|S| = sigma). Output: for every ordered-up
// pair {s1, s2} in S and every edge e on the selected path pi(s1, s2),
// dist_{G \ e}(s1, s2). (For edges off the selected path the distance is
// unchanged, by stability -- callers needing those values read the base
// distance.)
//
// Algorithm 1: one engine batch builds the out-tree T_s of each s in S
// under a 1-restorable scheme (O(sigma m)); each pair is then solved from
// T_{s1} and T_{s2} alone in O(n). By the restoration lemma (Theorem 2),
// each failure e_i of P = pi(s1, s2) = p_0 .. p_d is avoided by a shortest
// path pi(s1, x) o reverse(pi(s2, x)). So each vertex x is a candidate of
// hops(s1, x) + hops(s2, x) hops, covering failures lo .. hi: p_{lo-1} is
// the last P-vertex on T_{s1}'s path to x, and hi = m[j] for p_j the last
// one on T_{s2}'s, where m[d] = d, m[j] = j if T_{s2} reaches p_j over
// e_{j+1} (by edge id), else hi of p_j's parent. When i > hi for the
// optimal x, T_{s2}'s path to x steps past e_i onto some p_c, c < i, and
// p_c is a d-hop candidate covering i. No union graph or in-tree is built.
#pragma once

#include <cstdint>
#include <vector>

#include "core/rpts.h"
#include "graph/graph.h"

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
  // Work accounting: edges over the sigma out-trees.
  size_t tree_edges_total = 0;
};

// Runs Algorithm 1 with the given (1-restorable) scheme. The sigma out-tree
// builds go through the batch engine as one submission, and the sigma^2 / 2
// pair solves fan out over the engine's pool (nullptr = shared engine).
// Results are in pair order (i < j, lexicographic) whatever the thread
// count. Throws std::out_of_range, before any work, for a source >= n.
SubsetRpResult subset_replacement_paths(const IsolationRpts& pi,
                                        std::span<const Vertex> sources,
                                        const BatchSsspEngine* engine = nullptr);

}  // namespace restorable
