#include "rp/subset_rp.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "engine/batch_sssp.h"

namespace restorable {

SubsetRpResult subset_replacement_paths(const IsolationRpts& pi,
                                        std::span<const Vertex> sources,
                                        const BatchSsspEngine* engine,
                                        SptCache* cache) {
  const Graph& g = pi.graph();
  for (const Vertex s : sources)
    if (s >= g.num_vertices())
      throw std::out_of_range("subset_replacement_paths: source " +
                              std::to_string(s) + " out of range");
  const BatchSsspEngine& eng = BatchSsspEngine::or_shared(engine);
  SubsetRpResult res;

  // Step 1: out-trees under the restorable scheme, one batched SSSP
  // submission for all sources (resolved through the shared tree store when
  // a cache is attached). Handles, not copies: on cache hits the trees are
  // read in place from the shared store.
  std::vector<SsspRequest> tree_reqs;
  tree_reqs.reserve(sources.size());
  for (Vertex s : sources) tree_reqs.push_back({s, {}, Direction::kOut});
  const std::vector<SptHandle> trees = pi.spt_batch(tree_reqs, engine, cache);

  std::vector<std::vector<EdgeId>> tree_edges;
  tree_edges.reserve(sources.size());
  for (const SptHandle& t : trees) {
    tree_edges.push_back(t->tree_edges());
    res.tree_edges_total += tree_edges.back().size();
  }

  // Step 2: per pair, solve on the union of the two trees. Pairs are
  // independent, so they fan out over the pool; each writes its own slot, so
  // the output order is the deterministic (i, j) enumeration below.
  std::vector<std::pair<size_t, size_t>> pair_index;
  for (size_t i = 0; i < sources.size(); ++i)
    for (size_t j = i + 1; j < sources.size(); ++j)
      pair_index.emplace_back(i, j);

  res.pairs.resize(pair_index.size());
  std::vector<size_t> union_edges_per_pair(pair_index.size(), 0);
  eng.parallel_for(pair_index.size(), [&](size_t p) {
    const auto [i, j] = pair_index[p];
    // Pooled per-thread pair workspace: the union id list and the union
    // Graph (with its CSR arrays) are rebuilt in place across the pairs a
    // worker processes, instead of freshly allocated per pair. Pool workers
    // are long-lived, so the pool spans whole batches.
    struct PairWorkspace {
      std::vector<EdgeId> union_ids;
      Graph h;
    };
    thread_local PairWorkspace ws;

    // Sorted-set union of edge id lists (both are sorted).
    ws.union_ids.clear();
    std::set_union(tree_edges[i].begin(), tree_edges[i].end(),
                   tree_edges[j].begin(), tree_edges[j].end(),
                   std::back_inserter(ws.union_ids));
    ws.h.assign_edge_subgraph(g, ws.union_ids);
    union_edges_per_pair[p] = ws.h.num_edges();

    // Same policy over the union graph: labels carry G's edge ids, so the
    // perturbation of every surviving edge is unchanged. T(s1) lies in h
    // and h in G, so T(s1) is also h's out-tree of s1: the core takes it
    // as is, sweeps only the in-tree to s2, and returns pi(s1, s2) in G's
    // edge ids.
    auto rp = single_pair_replacement_paths(ws.h, pi.policy(), *trees[i],
                                            sources[j]);

    PairReplacementPaths& out = res.pairs[p];
    out.s1 = sources[i];
    out.s2 = sources[j];
    out.base_path = std::move(rp.base_path);
    out.replacement = std::move(rp.replacement);
  });
  for (size_t ue : union_edges_per_pair) res.union_graph_edges_total += ue;
  return res;
}

}  // namespace restorable
