#include "rp/subset_rp.h"

#include <limits>
#include <stdexcept>
#include <string>

#include "engine/batch_sssp.h"
#include "rp/single_pair_rp.h"

namespace restorable {
namespace {

// One source's out-tree, unpacked once for all the pairs it is part of.
struct SourceTree {
  std::vector<Vertex> order;  // the reachable vertices, parents first
  std::vector<Vertex> parent;
  std::vector<int32_t> hops;
};

// The midpoint solve of the pair (out.s1, out.s2); see subset_rp.h.
void solve_pair(const Spt& t1, const SourceTree& a, const Spt& t2,
                const SourceTree& b, PairReplacementPaths& out) {
  out.base_path = t1.path_to(out.s2);
  const Path& p = out.base_path;
  const int32_t d = static_cast<int32_t>(p.length());
  if (d == 0) return;  // disconnected, or s1 == s2

  // Pooled per thread: pool workers are long-lived.
  thread_local std::vector<int32_t> pos, l, hi;
  thread_local std::vector<RpCandidate> candidates;
  pos.assign(a.hops.size(), -1);  // pos[p_j] = j, -1 off P
  for (int32_t j = 0; j <= d; ++j) pos[p.vertices[j]] = j;
  l.resize(pos.size());
  hi.resize(pos.size());
  for (const Vertex x : a.order) l[x] = pos[x] >= 0 ? pos[x] : l[a.parent[x]];

  // T(s2) meets P as p_d, p_{d-1}, .., p_0, so each vertex's hi is known
  // once its parent's is. The least hops of a candidate covering all of
  // 1..d bounds every later one.
  candidates.clear();
  int32_t full = std::numeric_limits<int32_t>::max();
  for (const Vertex x : b.order) {
    const int32_t j = pos[x];
    if (j == d)
      hi[x] = d;  // the root s2
    else if (j >= 0 && t2.parent_edge(x) == p.edges[j])
      hi[x] = j;  // T(s2) reaches p_j over e_{j+1}
    else
      hi[x] = hi[b.parent[x]];
    const int32_t lo = l[x] + 1;
    const int32_t hops = a.hops[x] + b.hops[x];
    if (lo > hi[x] || hops >= full) continue;
    if (lo == 1 && hi[x] == d) full = hops;
    candidates.push_back(RpCandidate{hops, lo, hi[x]});
  }
  out.replacement = cover_failures(candidates, d);
}

}  // namespace

SubsetRpResult subset_replacement_paths(const IsolationRpts& pi,
                                        std::span<const Vertex> sources,
                                        const BatchSsspEngine* engine) {
  const Graph& g = pi.graph();
  for (const Vertex s : sources)
    if (s >= g.num_vertices())
      throw std::out_of_range("subset_replacement_paths: source " +
                              std::to_string(s) + " out of range");
  const BatchSsspEngine& eng = BatchSsspEngine::or_shared(engine);
  SubsetRpResult res;

  // Step 1: out-trees under the restorable scheme, one batched SSSP
  // submission for all sources.
  std::vector<SsspRequest> tree_reqs;
  tree_reqs.reserve(sources.size());
  for (Vertex s : sources) tree_reqs.push_back({s, {}, Direction::kOut});
  const std::vector<SptHandle> trees = pi.spt_batch(tree_reqs, engine);

  std::vector<SourceTree> unpacked(sources.size());
  eng.parallel_for(sources.size(), [&](size_t i) {
    const Spt& t = *trees[i];
    SourceTree& u = unpacked[i];
    u.order = t.top_order();
    u.parent.assign(g.num_vertices(), kNoVertex);
    u.hops.assign(g.num_vertices(), kUnreachable);
    for (const Vertex v : u.order) {
      u.parent[v] = t.parent(v);
      u.hops[v] = t.hops(v);
    }
  });
  // One tree edge per reachable vertex other than the root.
  for (const SourceTree& u : unpacked)
    res.tree_edges_total += u.order.size() - 1;

  // Step 2: per pair, the midpoint solve on the two out-trees. Pairs are
  // independent, so they fan out over the pool; each writes its own slot, so
  // the output order is the deterministic (i, j) enumeration below.
  std::vector<std::pair<size_t, size_t>> pair_index;
  for (size_t i = 0; i < sources.size(); ++i)
    for (size_t j = i + 1; j < sources.size(); ++j)
      pair_index.emplace_back(i, j);

  res.pairs.resize(pair_index.size());
  eng.parallel_for(pair_index.size(), [&](size_t p) {
    const auto [i, j] = pair_index[p];
    PairReplacementPaths& out = res.pairs[p];
    out.s1 = sources[i];
    out.s2 = sources[j];
    solve_pair(*trees[i], unpacked[i], *trees[j], unpacked[j], out);
  });
  return res;
}

}  // namespace restorable
