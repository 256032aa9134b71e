#include "core/rpts.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>
#include <utility>

#include "engine/batch_sssp.h"
#include "serve/spt_cache.h"

namespace restorable {

std::vector<SptHandle> cached_spt_batch(
    SchemeVersion version, SptCache& cache,
    std::span<const SsspRequest> requests,
    const std::function<std::vector<Spt>(std::span<const SsspRequest>)>&
        compute_misses) {
  std::vector<SptHandle> out(requests.size());

  // Pass 1: resolve hits zero-copy (the cached pointer IS the result); group
  // the missing slots by key so each unique missing tree is computed once
  // per batch.
  std::unordered_map<SptKey, std::vector<size_t>, SptKeyHash> miss_slots;
  std::vector<SsspRequest> miss_reqs;
  for (size_t i = 0; i < requests.size(); ++i) {
    SptKey key(version, requests[i]);
    if ((out[i] = cache.lookup(key))) continue;
    auto [it, fresh] = miss_slots.try_emplace(std::move(key));
    if (fresh) miss_reqs.push_back(requests[i]);
    it->second.push_back(i);
  }

  // Pass 2: one engine batch over the unique misses, then publish. miss_reqs
  // preserves first-appearance order, so computed[k] matches the k-th
  // distinct missing key. Each tree is wrapped into a handle exactly once;
  // the cache and every requesting slot share it (insert may prefer an
  // already-resident bit-identical tree from a racing writer).
  if (!miss_reqs.empty()) {
    std::vector<Spt> computed = compute_misses(miss_reqs);
    const bool compact = cache.compact_trees();
    for (size_t k = 0; k < miss_reqs.size(); ++k) {
      const SptKey key(version, miss_reqs[k]);
      // Publication-time compaction: the tree is converted BEFORE it is
      // wrapped, so the cache and every requesting slot share one (compact)
      // handle -- pointer identity between hit and insert is preserved.
      // Trees that cannot compact (no endpoint table, >u16 hop counts) are
      // admitted fat; answers are identical either way.
      if (compact) computed[k].compact();
      auto tree = std::make_shared<const Spt>(std::move(computed[k]));
      if (auto resident = cache.insert(key, tree)) tree = std::move(resident);
      for (size_t slot : miss_slots.at(key)) out[slot] = tree;
    }
  }
  return out;
}

uint64_t IRpts::next_scheme_id() {
  // Process-unique instance ids; never reused, so a stale cache entry can
  // only miss, never alias a different scheme's trees.
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

IRpts::IRpts() : scheme_id_(next_scheme_id()) {}

std::vector<SptHandle> IRpts::spt_batch(std::span<const SsspRequest> requests,
                                        const BatchSsspEngine* engine,
                                        SptCache* cache) const {
  // Generic fan-out for schemes without a batch fast path (ArbitraryRpts):
  // each request still runs on the engine's pool, results in request order.
  const BatchSsspEngine& eng = BatchSsspEngine::or_shared(engine);
  auto compute = [&](std::span<const SsspRequest> reqs) {
    std::vector<Spt> out(reqs.size());
    eng.parallel_for(reqs.size(), [&](size_t i) {
      out[i] = spt(reqs[i].root, reqs[i].faults, reqs[i].dir);
    });
    return out;
  };
  if (!cache) return share_spts(compute(requests));
  return cached_spt_batch(version(), *cache, requests, compute);
}

bool IRpts::tree_survives(const GraphDelta& delta, const Spt& tree,
                          const FaultSet& faults, uint32_t eps_q) const {
  // A delta on a faulted-out edge never matters: e is excluded from G \ F
  // whether or not it is currently in G, so the tree's graph is unchanged.
  if (delta.edge != kNoEdge && faults.contains(delta.edge)) return true;
  if (delta.kind == GraphDelta::Kind::kInsert) {
    // Deciding exact insert-tightness needs the policy's arithmetic; schemes
    // without one (e.g. ArbitraryRpts) invalidate exact trees
    // conservatively. Approximate trees are hops-only on every scheme.
    return eps_q && insert_survives(HopsOnly{}, delta, tree, eps_q);
  }
  // Removal stability: dropping an edge only removes competing paths, so a
  // tree that avoids it selects exactly the same paths afterwards (and the
  // reachable set cannot shrink -- the tree itself certifies every old
  // distance). This holds for any scheme that selects among surviving
  // paths, which every scheme in this library does; an approximate tree
  // keeps every parent chain (F1) and only loses constraints (F2).
  return !tree.uses_edge(delta.edge);
}

bool IRpts::batch_survives(const DeltaBatch& batch, const Spt& tree,
                           const FaultSet& faults, uint32_t eps_q) const {
  // Conjunction over the batch's net deltas; exact, see the header. Order
  // does not matter: each per-delta test reads only the old tree and
  // per-label data, both invariant under the other deltas. Removals share
  // ONE parent-edge scan instead of one tree walk per delta -- for every
  // scheme, removal survival is the generic stability rule (the tree avoids
  // the removed edge; see tree_survives), so testing k removals is one
  // membership sweep. Inserts go through the per-delta test.
  FaultSet removed;
  for (const GraphDelta& d : batch.net) {
    if (d.edge != kNoEdge && faults.contains(d.edge)) continue;
    if (d.kind == GraphDelta::Kind::kRemove)
      removed.insert(d.edge);
    else if (!tree_survives(d, tree, faults, eps_q))
      return false;
  }
  if (removed.empty()) return true;
  const Vertex n = tree.num_vertices();
  for (Vertex v = 0; v < n; ++v) {
    const EdgeId pe = tree.parent_edge(v);
    if (pe != kNoEdge && removed.contains(pe)) return false;
  }
  return true;
}

RepairOutcome IRpts::repair_tree(const Spt& old_tree, const DeltaBatch& batch,
                                 const FaultSet& faults,
                                 double max_affected_fraction,
                                 uint32_t eps_q) const {
  if (eps_q)
    return repair_with(HopsOnly{}, old_tree, batch, faults,
                       max_affected_fraction, eps_q);
  // No exact tie arithmetic at this level: a from-scratch recompute is the
  // only way to reproduce the scheme's tree bit-identically.
  if (batch_survives(batch, old_tree, faults))
    return {old_tree, /*repaired=*/true, /*touched=*/0};
  RepairOutcome out;
  out.tree = spt(old_tree.root, faults, old_tree.dir);
  out.touched = graph().num_vertices();
  return out;
}

Spt ArbitraryRpts::spt(Vertex root, const FaultSet& faults,
                       Direction dir) const {
  // The tree itself is direction-independent (the scheme selects the same
  // undirected path for both orientations); `dir` only controls which way
  // extracted paths are oriented.
  const Graph& g = *g_;
  const Vertex n = g.num_vertices();
  Spt t;
  t.root = root;
  t.dir = dir;
  t.reset(n);
  t.attach_endpoints(g.shared_endpoints());
  auto& hops = t.mutable_hops();
  auto& parent = t.mutable_parent();
  auto& parent_edge = t.mutable_parent_edge();
  hops[root] = 0;

  // Layered BFS; each newly discovered vertex picks the smallest-id parent
  // in the previous layer (and smallest edge id among parallel options),
  // making the scheme deterministic.
  std::vector<Vertex> frontier{root}, next;
  int32_t level = 0;
  while (!frontier.empty()) {
    ++level;
    next.clear();
    for (Vertex v : frontier) {
      for (const Arc& a : g.arcs(v)) {
        if (faults.contains(a.edge)) continue;
        if (hops[a.to] == kUnreachable) {
          hops[a.to] = level;
          parent[a.to] = v;
          parent_edge[a.to] = a.edge;
          next.push_back(a.to);
        } else if (hops[a.to] == level &&
                   (v < parent[a.to] ||
                    (v == parent[a.to] && a.edge < parent_edge[a.to]))) {
          parent[a.to] = v;
          parent_edge[a.to] = a.edge;
        }
      }
    }
    frontier.swap(next);
  }
  return t;
}

}  // namespace restorable
