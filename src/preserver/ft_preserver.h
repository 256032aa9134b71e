// Fault-tolerant distance preservers (Sections 4.1 and 4.4).
//
//  * S x V f-FT preservers (Theorem 26): overlay every replacement path
//    pi(s, v | F), s in S, |F| <= f, selected by a consistent stable scheme.
//    By stability, only fault sets lying on previously selected trees can
//    change any path, so the overlay is computed by recursing on tree edges.
//  * S x S (f+1)-FT preservers (Theorem 31): the *same* subgraph, which
//    restorability upgrades to one extra fault for pairs inside S. For
//    f = 0 this is the paper's headline construction: a union of tiebroken
//    BFS trees is already a 1-FT S x S preserver.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/rpts.h"
#include "graph/graph.h"

namespace restorable {

// An edge-subgraph of a fixed base graph, with cheap membership and size.
class EdgeSubset {
 public:
  explicit EdgeSubset(const Graph& g)
      : g_(&g), in_(g.num_edges(), 0), count_(0) {}

  const Graph& base() const { return *g_; }
  bool contains(EdgeId e) const { return in_[e]; }
  size_t count() const { return count_; }

  void insert(EdgeId e) {
    if (!in_[e]) {
      in_[e] = 1;
      ++count_;
    }
  }
  void insert_all(std::span<const EdgeId> edges) {
    for (EdgeId e : edges) insert(e);
  }

  std::vector<EdgeId> edge_ids() const {
    std::vector<EdgeId> out;
    out.reserve(count_);
    for (EdgeId e = 0; e < in_.size(); ++e)
      if (in_[e]) out.push_back(e);
    return out;
  }

  // Materializes the subgraph (labels carry through).
  Graph to_graph() const { return g_->edge_subgraph(edge_ids()); }

 private:
  const Graph* g_;
  std::vector<char> in_;
  size_t count_;
};

// fault_sets_explored == spt_computations + fault_deltas: each source's
// base tree is one full sweep, every non-empty fault set one delta of it.
struct PreserverStats {
  size_t spt_computations = 0;  // full sweeps (base trees) requested
  size_t fault_deltas = 0;      // fault trees built as deltas of a base tree
  size_t fault_sets_explored = 0;
};

// f-FT S x V preserver by replacement-path overlay (Theorem 26). The scheme
// must be consistent and stable (any Rpts<Policy> is; Theorem 19). Each
// source's base tree is swept over `engine` (nullptr = shared engine);
// every fault set's tree is a delta of that base tree (IRpts::fault_deltas),
// explored level by level (all fault sets of size k at once).
EdgeSubset build_sv_preserver(const IRpts& pi, std::span<const Vertex> sources,
                              int f, PreserverStats* stats = nullptr,
                              const BatchSsspEngine* engine = nullptr);

// (f+1)-FT S x S preserver (Theorem 31): identical overlay; the theorem is
// about what it preserves. Provided as a named entry point for readability.
EdgeSubset build_ss_preserver(const IRpts& pi, std::span<const Vertex> sources,
                              int f_plus_1, PreserverStats* stats = nullptr,
                              const BatchSsspEngine* engine = nullptr);

// 0-FT S x S preserver: union of the selected pairwise paths only (used by
// the +4 spanner at its f = 0 base case, where full trees would be
// wastefully large).
EdgeSubset build_pairwise_preserver(const IRpts& pi,
                                    std::span<const Vertex> sources);

}  // namespace restorable
