// Sourcewise replacement paths: the {s} x V setting of Chechik-Cohen
// (discussed in Section 1.1), solved here through the RPTS machinery.
//
// For a single source s, the output is dist_{G\{e}}(s, v) for every vertex
// v and every edge e on the selected path pi(s, v). By stability, faults off
// the selected path change nothing, so the output is exactly one entry per
// (tree edge e, vertex v behind e): the fault tree of each tree edge, built
// as a delta of the base tree (IRpts::fault_deltas) that re-relaxes only the
// subtree the fault cut, and whose labels are the row. This is the building
// block the FT-BFS literature (Theorems 24-26) reasons about, packaged as a
// queryable structure.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/rpts.h"
#include "graph/graph.h"

namespace restorable {

class SourcewiseReplacementPaths {
 public:
  // Preprocesses all single-fault distances from s: one tiebroken SSSP
  // for the base tree over `engine` (nullptr = shared engine), then one
  // fault delta per tree edge (only tree-edge faults matter).
  SourcewiseReplacementPaths(const IRpts& pi, Vertex s,
                             const BatchSsspEngine* engine = nullptr);

  Vertex source() const { return s_; }

  // dist_{G\{e}}(s, v) for any edge e and vertex v; kUnreachable if the
  // fault disconnects them.
  int32_t query(Vertex v, EdgeId e) const;

  // The fault-free selected distance.
  int32_t base_distance(Vertex v) const { return base_->hops(v); }

  // Number of stored replacement entries (the structure's space).
  size_t entries() const;

  // Union of all replacement paths = the 1-FT {s} x V preserver of
  // Theorem 24, as base-graph edge ids.
  const std::vector<EdgeId>& preserver_edges() const { return preserver_; }

 private:
  Vertex s_;
  // Retained as the shared handle spt_batch returns (see SptHandle).
  SptHandle base_;
  // Per faulted tree edge: the replacement distances of the vertices whose
  // selected path used that edge.
  std::unordered_map<EdgeId, std::unordered_map<Vertex, int32_t>> table_;
  std::vector<EdgeId> preserver_;
};

}  // namespace restorable
