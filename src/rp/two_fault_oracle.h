// Dual-failure subset distance oracle -- Definition 17 (f = 2) turned into
// a data structure.
//
// 2-restorability says: under any fault set F, |F| <= 2, some replacement
// shortest s1 ~> s2 path is pi(s1, x | F') o reverse(pi(s2, x | F')) for a
// PROPER subset F' of F. All such trees are indexed by (source, at most one
// fault), so it suffices to precompute, per source s in S:
//   * the base tree pi(s, . | {}), and
//   * one tree pi(s, . | {e}) per base-tree edge e (stability: faults off
//     the tree change nothing).
// A query (s1, s2, F) then scans the <= 3 relevant proper subsets F' and,
// per subset, the n midpoints, filtering by F-avoidance marks -- O(n) work
// per (subset, midpoint) pass after O(sigma * n) SSSP preprocessing.
//
// This is the natural f = 2 sequel to Algorithm 1's single-fault subset-rp,
// assembled from the paper's ingredients (Theorem 19 + Definition 17).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/rpts.h"
#include "graph/graph.h"

namespace restorable {

class TwoFaultSubsetOracle {
 public:
  // Preprocessing submits the sigma base trees, then the Theta(sigma n)
  // per-tree-edge fault trees, as two engine batches (nullptr = shared
  // engine).
  TwoFaultSubsetOracle(const IRpts& pi, std::span<const Vertex> sources,
                       const BatchSsspEngine* engine = nullptr);

  // dist_{G \ F}(s1, s2) for s1, s2 in S and |F| <= 2 (base-graph edge
  // ids); kUnreachable if disconnected. Exactness for |F| = 2 is the
  // 2-restorability guarantee; |F| <= 1 reduces to 1-restorability.
  // Throws std::invalid_argument for |F| > 2 and std::out_of_range for a
  // fault id >= m.
  int32_t query(Vertex s1, Vertex s2, const FaultSet& faults) const;

  size_t trees_stored() const;

 private:
  // Trees are retained as the shared handles spt_batch returns (see
  // SptHandle).
  struct PerSource {
    SptHandle base;
    std::unordered_map<EdgeId, SptHandle> under_fault;  // key: faulted edge
  };

  // Tree pi(s, . | {e}); by stability the base tree when e is not on it.
  const Spt& tree(const PerSource& ps, EdgeId e) const {
    const auto it = ps.under_fault.find(e);
    return it == ps.under_fault.end() ? *ps.base : *it->second;
  }

  const Graph* g_;
  std::unordered_map<Vertex, PerSource> per_source_;
};

}  // namespace restorable
