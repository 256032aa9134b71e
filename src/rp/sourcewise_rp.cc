#include "rp/sourcewise_rp.h"

namespace restorable {

SourcewiseReplacementPaths::SourcewiseReplacementPaths(
    const IRpts& pi, Vertex s, const BatchSsspEngine* engine)
    : s_(s) {
  // The base tree through the same batch API as everything else.
  const SsspRequest base_req[1] = {{s, {}, Direction::kOut}};
  base_ = pi.spt_batch(base_req, engine)[0];

  const Graph& g = pi.graph();
  std::vector<char> in_preserver(g.num_edges(), 0);
  const std::vector<EdgeId> tree_edges = base_->tree_edges();
  for (EdgeId e : tree_edges) in_preserver[e] = 1;

  // One fault tree per tree edge, each a delta of the base tree: by
  // stability the delta lists exactly the vertices whose selected path used
  // e, which is the row, and its parent edges complete the replacement
  // paths (the rest of each path is base tree, overlaid already).
  std::vector<SsspRequest> reqs;
  reqs.reserve(tree_edges.size());
  for (EdgeId e : tree_edges) reqs.push_back({s, FaultSet{e}, Direction::kOut});
  const std::vector<FaultDelta> deltas = pi.fault_deltas(*base_, reqs);
  for (size_t idx = 0; idx < tree_edges.size(); ++idx) {
    auto& row = table_[tree_edges[idx]];
    for (const Relabel& r : deltas[idx]) {
      row.emplace(r.v, r.hops);
      if (r.parent_edge != kNoEdge) in_preserver[r.parent_edge] = 1;
    }
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    if (in_preserver[e]) preserver_.push_back(e);
}

int32_t SourcewiseReplacementPaths::query(Vertex v, EdgeId e) const {
  const auto it = table_.find(e);
  if (it == table_.end()) return base_->hops(v);  // fault off every path
  const auto hit = it->second.find(v);
  // Fault on the tree but not on pi(s, v): stability again.
  return hit == it->second.end() ? base_->hops(v) : hit->second;
}

size_t SourcewiseReplacementPaths::entries() const {
  size_t total = 0;
  for (const auto& [e, row] : table_) total += row.size();
  return total;
}

}  // namespace restorable
