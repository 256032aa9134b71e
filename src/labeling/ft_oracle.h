// Centralized fault-tolerant distance oracle backed by an f-FT preserver.
//
// Section 4.3 contrasts the paper's *labels* with centralized distance
// sensitivity oracles. This is the centralized sibling of
// FtDistanceLabeling: one global (f)-FT S x V preserver H, answering
// dist_{G\F}(s, t) for s in S, any t, |F| <= f, by a BFS inside H \ F.
// Space is the preserver size (Theorem 26) instead of Theta(m); queries are
// BFS on a sparse subgraph instead of on G. Combined with Theorem 31, the
// same object answers S x S queries under f+1 faults.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/rpts.h"
#include "graph/graph.h"
#include "preserver/ft_preserver.h"

namespace restorable {

class FtDistanceOracle {
 public:
  // Builds the f-FT S x V preserver under the given restorable scheme; the
  // preserver's base trees are swept on `engine` (nullptr = shared engine)
  // and its fault trees are deltas of them.
  FtDistanceOracle(const IRpts& pi, std::span<const Vertex> sources, int f,
                   const BatchSsspEngine* engine = nullptr);

  int fault_tolerance() const { return f_; }
  // One extra fault is supported for queries with both endpoints in S
  // (Theorem 31 via restorability).
  int subset_fault_tolerance() const { return f_ + 1; }

  // dist_{G\F}(s, t) for s in S; valid for |F| <= f (any t) or |F| <= f+1
  // (s, t both in S). F uses base-graph edge ids. Throws std::out_of_range
  // for s or t >= n or a fault id >= m.
  int32_t query(Vertex s, Vertex t, const FaultSet& faults) const;

  size_t preserver_edges() const { return h_.num_edges(); }
  const Graph& preserver() const { return h_; }

 private:
  int f_;
  Graph h_;                         // the preserver (labels = G edge ids)
  std::vector<EdgeId> label_to_h_;  // G edge id -> h edge id (or kNoEdge)
};

}  // namespace restorable
