#include "preserver/ft_preserver.h"

#include <set>

namespace restorable {

namespace {

// Level-synchronous fault enumeration for one source. Stability argument:
// take any |F| <= f and vertex v. Repeatedly discard from F any edge not on
// the current selected path: pi(s, v | F) = pi(s, v | F') where every edge
// of F' lies on a path selected under a sub-fault-set -- i.e. on a tree this
// exploration visits. Hence overlaying the trees of all visited fault sets
// covers every replacement path.
//
// The exploration expands one depth (= fault-set size) at a time: all fault
// sets of size k are deduplicated and their trees seed the size-(k+1)
// frontier, so it visits exactly the fault sets the natural recursion
// visits (a frontier set of size k is F' u {e} with e on tree(F')). Only
// the base tree T(s, {}) is a full sweep. Every other level is one
// fault_deltas batch against it: by stability a fault set costs the region
// it detaches, the union takes only the delta's new parent edges (the base
// edges are in already), and tree(F') is the base edges of the vertices the
// delta does not list plus the delta's parent edges.
void explore(const IRpts& pi, Vertex s, int f, EdgeSubset& out,
             PreserverStats* stats, const BatchSsspEngine* engine) {
  if (f < 0) return;
  const SsspRequest base_req[1] = {{s, {}, Direction::kOut}};
  const SptHandle base = pi.spt_batch(base_req, engine)[0];
  const std::vector<EdgeId> base_edges = base->tree_edges();
  out.insert_all(base_edges);
  if (stats) {
    ++stats->spt_computations;
    ++stats->fault_sets_explored;
  }
  if (f == 0) return;

  // The size-1 sets are the base edges, distinct already.
  std::vector<SsspRequest> level;
  level.reserve(base_edges.size());
  for (EdgeId e : base_edges) level.push_back({s, FaultSet{e}, Direction::kOut});
  // Dedup at push time: a size-(k+1) set is derivable from up to k+1
  // parents, and the frontier must hold each unique set once.
  std::set<FaultSet> seen;
  auto grow = [&](std::vector<SsspRequest>& next, const FaultSet& from,
                  EdgeId e) {
    FaultSet grown = from.with(e);
    if (seen.insert(grown).second)
      next.push_back({s, std::move(grown), Direction::kOut});
  };

  std::vector<char> listed(f > 1 ? base->num_vertices() : 0, 0);
  for (int depth = 1; depth <= f && !level.empty(); ++depth) {
    if (stats) {
      stats->fault_deltas += level.size();
      stats->fault_sets_explored += level.size();
    }
    const std::vector<FaultDelta> deltas = pi.fault_deltas(*base, level);
    std::vector<SsspRequest> next;
    for (size_t i = 0; i < deltas.size(); ++i) {
      for (const Relabel& r : deltas[i])
        if (r.parent_edge != kNoEdge) out.insert(r.parent_edge);
      if (depth == f) continue;
      for (const Relabel& r : deltas[i]) listed[r.v] = 1;
      for (Vertex v = 0; v < base->num_vertices(); ++v) {
        const EdgeId pe = base->parent_edge(v);
        if (pe != kNoEdge && !listed[v]) grow(next, level[i].faults, pe);
      }
      for (const Relabel& r : deltas[i]) {
        listed[r.v] = 0;
        if (r.parent_edge != kNoEdge) grow(next, level[i].faults, r.parent_edge);
      }
    }
    level.swap(next);
  }
}

}  // namespace

EdgeSubset build_sv_preserver(const IRpts& pi, std::span<const Vertex> sources,
                              int f, PreserverStats* stats,
                              const BatchSsspEngine* engine) {
  EdgeSubset out(pi.graph());
  for (Vertex s : sources) explore(pi, s, f, out, stats, engine);
  return out;
}

EdgeSubset build_ss_preserver(const IRpts& pi, std::span<const Vertex> sources,
                              int f_plus_1, PreserverStats* stats,
                              const BatchSsspEngine* engine) {
  // Theorem 31: overlaying all S x V replacement paths under <= f faults
  // yields an (f+1)-FT S x S preserver. The subgraph is the f-FT S x V
  // overlay; restorability supplies the extra fault for pairs within S.
  return build_sv_preserver(pi, sources, f_plus_1 - 1, stats, engine);
}

EdgeSubset build_pairwise_preserver(const IRpts& pi,
                                    std::span<const Vertex> sources) {
  // The sigma base trees as one batch; path extraction is cheap afterwards.
  std::vector<SsspRequest> reqs;
  reqs.reserve(sources.size());
  for (Vertex s : sources) reqs.push_back({s, {}, Direction::kOut});
  const std::vector<SptHandle> trees = pi.spt_batch(reqs);

  EdgeSubset out(pi.graph());
  for (size_t i = 0; i < sources.size(); ++i) {
    for (Vertex t : sources) {
      if (t == sources[i] || !trees[i]->reachable(t)) continue;
      const Path p = trees[i]->path_to(t);
      out.insert_all(p.edges);
    }
  }
  return out;
}

}  // namespace restorable
