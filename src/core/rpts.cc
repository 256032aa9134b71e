#include "core/rpts.h"

#include <algorithm>
#include <atomic>
#include <queue>
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
                          const FaultSet& faults) const {
  // A delta on a faulted-out edge never matters: e is excluded from G \ F
  // whether or not it is currently in G, so the tree's graph is unchanged.
  if (delta.edge != kNoEdge && faults.contains(delta.edge)) return true;
  if (delta.kind == GraphDelta::Kind::kInsert) {
    // Deciding insert-tightness needs the policy's exact arithmetic;
    // schemes without one (e.g. ArbitraryRpts) invalidate conservatively.
    return false;
  }
  // Removal stability: dropping an edge only removes competing paths, so a
  // tree that avoids it selects exactly the same paths afterwards (and the
  // reachable set cannot shrink -- the tree itself certifies every old
  // distance). This holds for any scheme that selects among surviving
  // paths, which every scheme in this library does.
  return !tree.uses_edge(delta.edge);
}

bool IRpts::batch_survives(const DeltaBatch& batch, const Spt& tree,
                           const FaultSet& faults, uint32_t eps_q) const {
  // Conjunction over the batch's net deltas; exact, see the header. Order
  // does not matter: each per-delta test reads only the old tree and
  // per-label data, both invariant under the other deltas. Removals share
  // ONE parent-edge scan instead of one tree walk per delta -- for every
  // scheme, removal survival is the generic stability rule (the tree avoids
  // the removed edge; see the base tree_survives), so testing k removals is
  // one membership sweep. Inserts go through the per-delta test of the
  // tree's tier: the virtual exact one (Rpts<Policy> refines it with exact
  // tightness arithmetic) or the (1+eps) feasibility check.
  FaultSet removed;
  for (const GraphDelta& d : batch.net) {
    if (d.edge != kNoEdge && faults.contains(d.edge)) continue;
    if (d.kind == GraphDelta::Kind::kRemove)
      removed.insert(d.edge);
    else if (!(eps_q ? tree_survives_eps(d, tree, faults, eps_q)
                     : tree_survives(d, tree, faults)))
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

bool IRpts::tree_survives_eps(const GraphDelta& delta, const Spt& tree,
                              const FaultSet& faults, uint32_t eps_q) const {
  // A delta on a faulted-out edge never matters (excluded from G \ F either
  // way).
  if (delta.edge != kNoEdge && faults.contains(delta.edge)) return true;
  if (delta.kind == GraphDelta::Kind::kRemove) {
    // Removal stability carries over verbatim from the exact tier: a tree
    // avoiding the edge keeps every parent chain (F1) and only loses
    // feasibility constraints (F2).
    return !tree.uses_edge(delta.edge);
  }
  const bool a_reach = tree.reachable(delta.u);
  const bool b_reach = tree.reachable(delta.v);
  // Both endpoints outside the root's component: e cannot extend it.
  if (!a_reach && !b_reach) return true;
  // Exactly one reachable: e attaches new vertices (F2 demands a finite
  // label across it).
  if (a_reach != b_reach) return false;
  // Both reachable: F holds on the grown graph iff the new edge itself is
  // (1+eps)-feasible in both travel directions. Labels, chains, and every
  // old edge's constraints are untouched by the insert.
  return !epsilon_improves(tree.hops(delta.v), tree.hops(delta.u) + 1,
                           eps_q) &&
         !epsilon_improves(tree.hops(delta.u), tree.hops(delta.v) + 1, eps_q);
}

RepairOutcome IRpts::repair_tree_eps(const Spt& old_tree,
                                     const DeltaBatch& batch,
                                     const FaultSet& faults,
                                     double max_affected_fraction,
                                     uint32_t eps_q) const {
  const Graph& g = graph();
  const Vertex n = g.num_vertices();

  auto full = [&] {
    // Fallback: a from-scratch EXACT recompute. Exact labels satisfy F at
    // any eps (feasibility with slack is weaker than tight feasibility), so
    // this is always a valid -- if conservative -- approximate tree.
    RepairOutcome out;
    out.tree = spt(old_tree.root, faults, old_tree.dir);
    out.touched = n;
    return out;
  };

  FaultSet removed, inserted;
  for (const GraphDelta& d : batch.net) {
    if (d.edge != kNoEdge && faults.contains(d.edge)) continue;
    (d.kind == GraphDelta::Kind::kRemove ? removed : inserted).insert(d.edge);
  }
  if (removed.empty() && inserted.empty())
    return {old_tree, /*repaired=*/true, /*touched=*/0};

  const size_t limit = std::max<size_t>(
      8, static_cast<size_t>(max_affected_fraction * static_cast<double>(n)));

  RepairOutcome out;
  // The repair mutates labels in place: start from a fat copy (identity
  // copy when the cached tree was never compacted). Re-attach THIS graph's
  // endpoint table: the cached tree may hold a pre-append clone of it, and
  // the insert phase writes fresh slot ids into parent_edge -- compacting
  // against the stale, shorter table would read out of bounds. Valid for
  // every old id because slots are append-only with preserved order.
  out.tree = old_tree.thawed();
  out.tree.attach_endpoints(g.shared_endpoints());
  out.repaired = true;
  Spt& nt = out.tree;
  auto& nt_hops = nt.mutable_hops();
  auto& nt_parent = nt.mutable_parent();
  auto& nt_parent_edge = nt.mutable_parent_edge();

  // Compact-aware fast path (same contract as the exact repair): when the
  // cached tree arrived compact, record every vertex this repair writes and
  // re-compact by patching those labels over the old compact image instead
  // of the thaw -> full compact() round-trip.
  const bool want_patch = old_tree.is_compact();
  std::vector<Vertex> patch_touched;

  // Deterministic hops-only heap: (hops, vertex id), smallest first. Lazy
  // deletion -- stale entries are skipped by comparing against the current
  // label. Pop order is nondecreasing in hops (every relaxation offers
  // hops+1 > hops of the popped source), so a vertex popped with a matching
  // label is final: any later candidate has cand >= final, which the
  // (relaxed or exact) improvement test rejects.
  using QItem = std::pair<int32_t, Vertex>;
  std::priority_queue<QItem, std::vector<QItem>, std::greater<QItem>> pq;

  std::vector<Vertex> decrease_seeds;

  // ---- Phase R: detach the subtree forest hanging off removed edges and
  // re-relax it EXACTLY against the surviving labels.
  if (!removed.empty()) {
    const std::vector<Vertex> order = old_tree.top_order();
    std::vector<char> detached(n, 0);
    size_t detached_count = 0;
    for (Vertex v : order) {
      const Vertex p = old_tree.parent(v);
      if (p == kNoVertex) continue;
      if (detached[p] || removed.contains(old_tree.parent_edge(v))) {
        detached[v] = 1;
        ++detached_count;
      }
    }
    if (detached_count > limit) return full();

    if (detached_count > 0) {
      // Old labels are needed afterwards: a detached vertex whose fresh
      // label comes back LOWER than its old one tightens the F2 constraint
      // on every arc leaving it -- those must re-cascade with the relaxed
      // test below. (Raised labels only loosen constraints.)
      std::vector<int32_t> old_hops(nt_hops);
      for (Vertex v = 0; v < n; ++v) {
        if (!detached[v]) continue;
        nt_hops[v] = kUnreachable;
        nt_parent[v] = kNoVertex;
        nt_parent_edge[v] = kNoEdge;
        if (want_patch) patch_touched.push_back(v);
      }
      std::vector<char> settled(n, 0);
      auto relax_into = [&](Vertex w, int32_t h, Vertex par, EdgeId pe) {
        if (nt_hops[w] != kUnreachable && nt_hops[w] <= h) return;
        nt_hops[w] = h;
        nt_parent[w] = par;
        nt_parent_edge[w] = pe;
        pq.push({h, w});
      };
      // Frontier: every surviving in-neighbor of a detached vertex offers a
      // candidate across the boundary arc; net inserts wait for the cascade.
      for (Vertex v = 0; v < n; ++v) {
        if (!detached[v]) continue;
        for (const Arc& a : g.arcs(v)) {
          const Vertex u = a.to;
          if (detached[u] || nt_hops[u] == kUnreachable) continue;
          if (faults.contains(a.edge) || inserted.contains(a.edge)) continue;
          relax_into(v, nt_hops[u] + 1, u, a.edge);
        }
      }
      while (!pq.empty()) {
        const auto [h, v] = pq.top();
        pq.pop();
        if (settled[v] || h != nt_hops[v]) continue;
        settled[v] = 1;
        ++out.touched;
        for (const Arc& a : g.arcs(v)) {
          const Vertex w = a.to;
          if (!detached[w] || settled[w]) continue;
          if (faults.contains(a.edge) || inserted.contains(a.edge)) continue;
          relax_into(w, h + 1, v, a.edge);
        }
      }
      for (Vertex v = 0; v < n; ++v)
        if (detached[v] && nt_hops[v] != kUnreachable &&
            nt_hops[v] < old_hops[v])
          decrease_seeds.push_back(v);
    }
  }

  // ---- Cascade: net inserts + decrease seeds, all with the relaxed test.
  // A popped vertex re-checks (1+eps) feasibility on every outgoing arc;
  // improvements strictly lower labels and propagate. Exactly the updates
  // that violate F fire -- the point of the approximate tier is that this
  // region is much smaller than the exact affected region.
  if (!inserted.empty() || !decrease_seeds.empty()) {
    std::vector<char> improved(n, 0);
    size_t improved_count = 0;
    bool bail = false;
    auto relax = [&](Vertex s, Vertex t_v, EdgeId e) {
      if (nt_hops[s] == kUnreachable) return;
      const int32_t h = nt_hops[s] + 1;
      if (!epsilon_improves(nt_hops[t_v], h, eps_q)) return;
      nt_hops[t_v] = h;
      nt_parent[t_v] = s;
      nt_parent_edge[t_v] = e;
      if (!improved[t_v]) {
        improved[t_v] = 1;
        if (want_patch) patch_touched.push_back(t_v);
        if (++improved_count > limit) bail = true;
      }
      pq.push({h, t_v});
    };
    for (Vertex v : decrease_seeds) pq.push({nt_hops[v], v});
    for (EdgeId e : inserted) {
      const Edge& ed = g.endpoints(e);
      relax(ed.u, ed.v, e);
      relax(ed.v, ed.u, e);
    }
    while (!pq.empty() && !bail) {
      const auto [h, v] = pq.top();
      pq.pop();
      if (h != nt_hops[v]) continue;  // stale: v improved after this push
      ++out.touched;
      for (const Arc& a : g.arcs(v)) {
        if (faults.contains(a.edge)) continue;
        relax(v, a.to, a.edge);
      }
    }
    if (bail) return full();
  }
  // Patch-compact on success; on decline the tree stays fat and the caller's
  // usual publication compact() applies.
  if (want_patch) nt.compact_from(old_tree, patch_touched);
  return out;
}

RepairOutcome IRpts::repair_tree(const Spt& old_tree, const DeltaBatch& batch,
                                 const FaultSet& faults,
                                 double /*max_affected_fraction*/) const {
  // No exact tie arithmetic at this level: a from-scratch recompute is the
  // only way to reproduce the scheme's tree bit-identically.
  if (batch_survives(batch, old_tree, faults))
    return {old_tree, /*repaired=*/true, /*touched=*/0};
  RepairOutcome out;
  out.tree = spt(old_tree.root, faults, old_tree.dir);
  out.touched = graph().num_vertices();
  return out;
}

std::vector<Vertex> IRpts::affected_roots(
    const GraphDelta& delta, std::span<const SptHandle> base_trees) const {
  std::vector<Vertex> out;
  for (const SptHandle& tree : base_trees) {
    if (!tree) continue;
    if (!tree_survives(delta, *tree, FaultSet{})) out.push_back(tree->root);
  }
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
