// Replacement path tiebreaking schemes (Definitions 12-17 of the paper).
//
// An f-RPTS is the map pi(s, t | F): for each ordered vertex pair and fault
// set, one selected shortest path of G \ F. Here a scheme is *generated*
// rather than tabulated: `spt(root, F, dir)` materializes the scheme
// restricted to one root, and pi(s, t | F) is read off the out-tree of s.
//
// Two families are provided:
//  * Rpts<Policy> -- schemes generated by an antisymmetric tiebreaking
//    weight function (Theorem 19): stable, consistent and f-restorable for
//    every f. This is the paper's main construction.
//  * ArbitraryRpts -- a plausible-looking per-root BFS scheme (parents
//    chosen by smallest vertex id) that is NOT restorable; it realizes the
//    "bad" tiebreaking of Figure 1 and serves as the contrast baseline in
//    tests and benches. (The full Theorem 37 impossibility -- *no* symmetric
//    scheme on C4 is restorable -- is verified by exhaustive enumeration in
//    the tests.)
#pragma once

#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "core/dijkstra.h"
#include "core/perturbation.h"
#include "core/spt.h"
#include "engine/batch_sssp.h"
#include "engine/fault_delta.h"
#include "graph/graph.h"

namespace restorable {

// The serving-layer tree store (serve/spt_cache.h): spt_batch can resolve
// requests through a shared SptCache, which is what lets construction paths
// (subset-rp, preservers, labels, oracles) and the online serving path
// (serve/oracle_server.h) share one store of trees. Only a handle is
// threaded through here -- the full type is a .cc-level dependency.
class SptCache;

// Cache-through batch fetch shared by IRpts::spt_batch and Rpts<Policy>'s
// override (implemented in core/rpts.cc): resolves every request against
// `cache`, deduplicates the misses within the batch, computes them with ONE
// `compute_misses` call (the caller's engine-batched path), inserts the
// fresh trees, and returns request-order results. Hits hand out the cached
// pointer zero-copy; misses are wrapped into a handle exactly once and
// shared between the cache and every slot that requested them. Trees are
// bit-identical to what the compute path alone produces.
std::vector<SptHandle> cached_spt_batch(
    SchemeVersion version, SptCache& cache,
    std::span<const SsspRequest> requests,
    const std::function<std::vector<Spt>(std::span<const SsspRequest>)>&
        compute_misses);

// Wraps engine-computed trees into handles (one allocation per tree, no tree
// copies) -- the uncached tail of every spt_batch implementation.
inline std::vector<SptHandle> share_spts(std::vector<Spt>&& trees) {
  std::vector<SptHandle> out;
  out.reserve(trees.size());
  for (Spt& t : trees) out.push_back(std::make_shared<const Spt>(std::move(t)));
  return out;
}

// Result of one incremental tree repair (IRpts::repair_tree). On the exact
// tier `tree` is bit-identical to a from-scratch recompute at the current
// epoch; on the approximate tier it satisfies invariant F. `repaired`
// records whether the incremental path produced it (false = the affected
// region was too large, or the scheme lacks exact arithmetic, and a full
// recompute ran instead); `touched` counts the vertices whose label was
// re-derived -- the size of the affected region the repair actually paid
// for.
struct RepairOutcome {
  Spt tree;
  bool repaired = false;
  size_t touched = 0;
};

// Default ceiling on the affected region an incremental repair may grow to,
// as a fraction of the vertex count, before falling back to a from-scratch
// recompute. The repair scans a relabeled vertex's arcs about three times
// (detach, hop seeding, labeling) where the sweep scans them once, and
// copies the old labels once, so past about a quarter of the graph the
// sweep is the cheaper way.
inline constexpr double kDefaultRepairFraction = 0.25;

// Type-erased scheme interface. Everything downstream (replacement paths,
// preservers, spanners, labels, the CONGEST layer) consumes schemes through
// this interface, so any policy plugs in anywhere.
class IRpts {
 public:
  IRpts();
  virtual ~IRpts() = default;
  // Copies and assigned-over schemes are separate instances for cache-keying
  // purposes: a fresh id is minted in both cases (assignment may swap the
  // derived graph/policy, so keeping the old id could alias stale trees).
  // Always sound -- worst case a cold cache, never a wrong tree.
  IRpts(const IRpts&) : IRpts() {}
  IRpts& operator=(const IRpts&) {
    scheme_id_ = next_scheme_id();
    return *this;
  }

  virtual const Graph& graph() const = 0;
  virtual std::string name() const = 0;

  // Identity of this scheme instance for SPT cache keying. Trees are
  // deterministic functions of (graph, policy, root, faults, dir); the
  // instance id pins down the policy and the graph *object*, and the
  // graph's epoch pins down its topology over time, so
  // (version(), root, faults, dir) keys bit-identical trees even while the
  // graph mutates between queries.
  uint64_t scheme_id() const { return scheme_id_; }

  // The composite (scheme_id, graph epoch) version current trees are keyed
  // by. A mutation bumps the epoch instead of abandoning the scheme; trees
  // provably unaffected by the delta (tree_survives) are carried forward to
  // the new version by the serving cache.
  SchemeVersion version() const { return {scheme_id_, graph().epoch()}; }

  // Carry-forward predicate of the dynamic-update pipeline: true iff `tree`
  // -- computed by this scheme for `faults` at the epoch immediately before
  // `delta` was applied -- is still what a recompute at the post-delta epoch
  // may serve: bit-identical on the exact tier (eps_q == 0), invariant F
  // below on the approximate tier (eps_q > 0). `delta` must be fully filled
  // in (i.e. the value Graph::apply returned). Soundness contract: `false`
  // is always allowed (worst case a spurious recompute); `true` must hold.
  //
  // A delta whose edge is in `faults` never changes the tree (the edge is
  // excluded from G \ F whether or not it is in G), and a removal leaves any
  // tree that avoids the removed edge intact (stability: selections among
  // surviving paths are unchanged when only competing paths vanish). An
  // insert survives iff neither directed relaxation across the new edge
  // would be adopted (see the adoption rule below). The base implementation
  // decides exact-tier inserts conservatively (false); Rpts<Policy>
  // overrides the eps_q == 0 case with its exact tie arithmetic.
  virtual bool tree_survives(const GraphDelta& delta, const Spt& tree,
                             const FaultSet& faults, uint32_t eps_q = 0) const;

  // Batch carry-forward predicate: true iff `tree` survives EVERY net delta
  // of the batch. Exact, not merely sound: survival of each removal means
  // the tree avoids it (its selections persist unchanged), and under
  // unchanged labels each insert's test is per-edge-independent (the old
  // labels are a feasible potential for the grown graph iff they are for
  // every new edge separately), so the conjunction over net deltas decides
  // the whole batch. A flap healed within the batch has no net delta and
  // vacuously survives. One predicate for every cache key: pass its eps_q.
  bool batch_survives(const DeltaBatch& batch, const Spt& tree,
                      const FaultSet& faults, uint32_t eps_q = 0) const;

  // Advances `old_tree` -- computed by this scheme at batch.old_epoch for
  // `faults` -- to batch.new_epoch. On the exact tier the result is
  // bit-identical to a from-scratch recompute on the mutated graph; on the
  // approximate tier it satisfies invariant F below (NOT bit-identical to a
  // fresh relaxed compute, see SptKey::eps_q). Every scheme repairs
  // approximate-tier trees with the hops-only repair; the exact tier is
  // repair_exact. Past `max_affected_fraction` of the vertex count the
  // repair falls back to a full exact recompute (a fraction >= 1 never
  // falls back). Throws std::invalid_argument when `old_tree`'s vertex
  // count differs from the graph's or its root is out of range, and
  // std::out_of_range for a fault or delta edge id >= m.
  RepairOutcome repair_tree(const Spt& old_tree, const DeltaBatch& batch,
                            const FaultSet& faults,
                            double max_affected_fraction,
                            uint32_t eps_q = 0) const;
  RepairOutcome repair_tree(const Spt& old_tree,
                            const DeltaBatch& batch) const {
    return repair_tree(old_tree, batch, FaultSet{}, kDefaultRepairFraction);
  }

  // Kept for perfbench/: the old approximate-tier spelling of
  // batch_survives.
  bool batch_survives_eps(const DeltaBatch& batch, const Spt& tree,
                          const FaultSet& faults, uint32_t eps_q) const {
    return batch_survives(batch, tree, faults, eps_q);
  }
  // Kept for perfbench/: the old approximate-tier spelling of repair_tree.
  RepairOutcome repair_tree_eps(const Spt& old_tree, const DeltaBatch& batch,
                                const FaultSet& faults,
                                double max_affected_fraction,
                                uint32_t eps_q) const {
    return repair_tree(old_tree, batch, faults, max_affected_fraction, eps_q);
  }

  // ---- The adoption rule and invariant F ----------------------------------
  //
  // Survival and repair relax with one adoption rule: a candidate label
  // (h, tie) replaces (cur, cur_tie) iff epsilon_improves(cur, h, eps_q),
  // or, at eps_q == 0 only, h == cur and the candidate's tie compares
  // lower. The exact tier
  // runs it with the scheme's policy at eps_q == 0; the approximate tier
  // runs it with HopsOnly (core/perturbation.h) at the key's eps_q. An
  // approximate tree thereby keeps a per-edge contract F rather than
  // bit-identity: F1 (realizability), every finite hops[v] is witnessed by
  // a parent chain in G \ F with strictly descending hops, so
  // hops[v] >= d_true(v); F2 (relaxed feasibility), for every present
  // non-fault edge (x, y), in both directions, a finite hops[x] implies a
  // finite hops[y] <= (1+eps) * (hops[x] + 1). By induction along a true
  // shortest path, F gives d_true(v) <= hops[v] <= (1+eps)^d_true(v) *
  // d_true(v). F, not that endpoint bound, is what survival and repair
  // preserve: a new edge can shorten d_true out from under a valid label,
  // but a new edge that cannot be adopted keeps F2.

  // The scheme restricted to `root` under fault set F. dir == kOut encodes
  // pi(root, v | F) for all v; dir == kIn encodes pi(v, root | F).
  virtual Spt spt(Vertex root, const FaultSet& faults = {},
                  Direction dir = Direction::kOut) const = 0;

  // Batched spt: results in request order, one shared tree handle per
  // request, computed over `engine` (nullptr = the shared hardware-sized
  // engine). The default fans the virtual spt() out over the engine's pool;
  // Rpts<Policy> overrides it with the workspace-reusing batch path. Every
  // per-root / per-fault loop downstream submits through this instead of
  // looping. With a non-null `cache`, requests are resolved through it:
  // hits hand out the cached pointer zero-copy, misses compute as one
  // engine batch and publish the same handle the caller receives. Trees are
  // bit-identical either way; see SptHandle for the ownership rules.
  virtual std::vector<SptHandle> spt_batch(
      std::span<const SsspRequest> requests,
      const BatchSsspEngine* engine = nullptr,
      SptCache* cache = nullptr) const;

  // The fault trees of `requests` as deltas of `base` -- this scheme's
  // fault-free tree spt(base.root, {}, base.dir) on graph() -- in request
  // order: applying out[i] to `base` gives spt(root, requests[i].faults,
  // dir) bit-identically, and a vertex not listed keeps its base label. On
  // a stable scheme a fault set costs the region it detaches, not a sweep:
  // Rpts<Policy> lists exactly the vertices whose base path uses an edge of
  // F (engine/fault_delta.h). The base implementation computes each fault
  // tree with spt() and lists the vertices whose label differs, since a
  // scheme that is not stable (ArbitraryRpts) may move any vertex. Throws
  // std::invalid_argument when a request's root or direction differs from
  // the base tree's, when the base tree's vertex count differs from the
  // graph's, or for an approximate-tier request (eps_q > 0), and
  // std::out_of_range for a fault id >= m.
  std::vector<FaultDelta> fault_deltas(
      const Spt& base, std::span<const SsspRequest> requests) const;

  // The SAME scheme (same scheme_id, same policy, same tiebreak arithmetic)
  // rebound to a frozen copy of its graph -- the read side of the RCU
  // serving path (serve/generation.h): a pinned generation computes trees
  // against `frozen` while the live graph keeps mutating underneath.
  // `frozen` must be a snapshot of this scheme's graph (Graph::snapshot());
  // the view's trees are then bit-identical to this scheme's trees at the
  // snapshot's epoch, and because scheme_id carries over, they share cache
  // keys with them too. The caller keeps `frozen` alive for the view's
  // lifetime (the generation owns both). Every scheme must rebind: the
  // serving stack computes every query on such a view.
  virtual std::unique_ptr<IRpts> snapshot_view(const Graph& frozen) const = 0;

  // pi(s, t | F), oriented s -> t. Empty if t is unreachable in G \ F.
  Path path(Vertex s, Vertex t, const FaultSet& faults = {}) const {
    return spt(s, faults, Direction::kOut).path_to(t);
  }

  // Hop length of pi(s, t | F); kUnreachable if disconnected.
  int32_t distance(Vertex s, Vertex t, const FaultSet& faults = {}) const {
    return spt(s, faults, Direction::kOut).hops(t);
  }

 protected:
  // For snapshot_view implementations: makes `view` (a freshly built scheme
  // over the frozen graph) answer to this scheme's cache identity, so
  // (scheme_id, epoch, root, faults, dir) keys the same bit-identical trees
  // whether computed on the live graph or the snapshot. Only sound when the
  // view really is the same scheme over the same topology -- copying an id
  // across different policies would alias wrong trees.
  void adopt_identity(const IRpts& of) { scheme_id_ = of.scheme_id_; }

  // fault_deltas after its argument checks: spt() and a diff per request.
  virtual std::vector<FaultDelta> compute_fault_deltas(
      const Spt& base, std::span<const SsspRequest> requests) const;

  // repair_tree's exact tier after its argument checks. Without exact tie
  // arithmetic only a recompute reproduces the tree (repaired = false
  // unless the tree survives the batch); Rpts<Policy> repairs with its
  // policy.
  virtual RepairOutcome repair_exact(const Spt& old_tree,
                                     const DeltaBatch& batch,
                                     const FaultSet& faults,
                                     double max_affected_fraction) const;

  // The one insert-survival test and the one repair, run with the
  // adoption rule above over `policy` (defined below the class).
  template <typename Policy>
  bool insert_survives(const Policy& policy, const GraphDelta& delta,
                       const Spt& tree, uint32_t eps_q) const;
  template <typename Policy>
  RepairOutcome repair_with(const Policy& policy, const Spt& old_tree,
                            const DeltaBatch& batch, const FaultSet& faults,
                            double max_affected_fraction,
                            uint32_t eps_q) const;

 private:
  // The accumulated perturbation along the tree path root ~ x, read in
  // travel order (root -> x for kOut trees, x -> root for kIn trees).
  // Accumulation order is immaterial: every policy's Tie is a commutative
  // sum. x must be reachable in `tree`.
  template <typename Policy>
  typename Policy::Tie path_tie(const Policy& policy, const Spt& tree,
                                Vertex x) const;

  static uint64_t next_scheme_id();

  uint64_t scheme_id_;
};

template <typename Policy>
typename Policy::Tie IRpts::path_tie(const Policy& policy, const Spt& tree,
                                     Vertex x) const {
  const Graph& g = graph();
  auto tie = policy.zero();
  for (Vertex v = x; tree.parent(v) != kNoVertex; v = tree.parent(v)) {
    const EdgeId pe = tree.parent_edge(v);
    // kOut hops travel parent -> v, kIn hops travel v -> parent; the stored
    // orientation of pe decides the forward flag.
    const bool stored_from_parent = g.endpoints(pe).u == tree.parent(v);
    policy.accumulate(tie, g.label(pe),
                      tree.dir == Direction::kOut ? stored_from_parent
                                                  : !stored_from_parent);
  }
  return tie;
}

template <typename Policy>
bool IRpts::insert_survives(const Policy& policy, const GraphDelta& delta,
                            const Spt& tree, uint32_t eps_q) const {
  const bool u_reach = tree.reachable(delta.u);
  const bool v_reach = tree.reachable(delta.v);
  // Both endpoints outside the root's component: e cannot extend it.
  if (!u_reach && !v_reach) return true;
  // Exactly one reachable: e attaches new vertices to the tree.
  if (u_reach != v_reach) return false;
  if constexpr (requires { policy.can_accumulate(delta.label); }) {
    if (!policy.can_accumulate(delta.label)) return false;
  }
  // Would the relaxation src -> dst across e be adopted? For kOut trees
  // (distances from the root) travel u -> v offers v a label; for kIn trees
  // (distances towards the root) the same traversal offers u a route via v.
  // Ties are recovered from the Spt by accumulating the policy along parent
  // chains (O(depth) per endpoint), only when the hop counts tie at
  // eps_q == 0. An equal (hops, tie) conservatively counts as adopted --
  // uniqueness makes it impossible for exact policies.
  auto adopted = [&](Vertex src, Vertex dst, bool travel_forward) {
    const int32_t h = tree.hops(src) + 1, cur = tree.hops(dst);
    if (epsilon_improves(cur, h, eps_q)) return true;
    if (eps_q != 0 || h != cur) return false;
    auto cand = path_tie(policy, tree, src);
    policy.accumulate(cand, delta.label, travel_forward);
    return policy.compare(cand, path_tie(policy, tree, dst)) <= 0;
  };
  if (tree.dir == Direction::kOut)
    return !adopted(delta.u, delta.v, /*travel u->v*/ true) &&
           !adopted(delta.v, delta.u, /*travel v->u*/ false);
  return !adopted(delta.v, delta.u, /*travel u->v*/ true) &&
         !adopted(delta.u, delta.v, /*travel v->u*/ false);
}

// Incremental repair under the adoption rule on the re-relax kernel
// (ReRelax::repair, engine/fault_delta.h): bit-identical to a recompute on
// the exact tier (the repair fuzz tests, all three ATW policies); on the
// approximate tier exactly the labels that violate F change.
template <typename Policy>
RepairOutcome IRpts::repair_with(const Policy& policy, const Spt& old_tree,
                                 const DeltaBatch& batch,
                                 const FaultSet& faults,
                                 double max_affected_fraction,
                                 uint32_t eps_q) const {
  const Graph& g = graph();
  const Vertex n = g.num_vertices();

  auto full = [&] {
    // A from-scratch exact recompute: the tree itself on the exact tier, and
    // a valid approximate tree too (exact labels satisfy F at any eps).
    RepairOutcome out;
    out.tree = spt(old_tree.root, faults, old_tree.dir);
    out.touched = n;
    return out;
  };

  // The batch restricted to deltas this tree can feel: a delta on a faulted
  // edge never matters (the edge is excluded from G \ F either way), and a
  // flap healed inside the batch has no net entry at all.
  FaultSet removed, inserted;
  for (const GraphDelta& d : batch.net) {
    if (d.edge != kNoEdge && faults.contains(d.edge)) continue;
    (d.kind == GraphDelta::Kind::kRemove ? removed : inserted).insert(d.edge);
  }
  if (removed.empty() && inserted.empty()) {
    // Net no-op for this tree: the old tree IS the new tree.
    return {old_tree, /*repaired=*/true, /*touched=*/0};
  }
  if constexpr (requires { policy.can_accumulate(EdgeId{}); }) {
    // A label the policy cannot evaluate (fresh slot appended after the
    // policy tabulated its weights) defeats the exact arithmetic;
    // recompute conservatively.
    for (EdgeId e : inserted)
      if (!policy.can_accumulate(g.label(e))) return full();
  }

  // Affected-region ceiling: a fraction >= 1 never falls back; a NaN or
  // negative one gets the minimum allowance (and no UB float cast).
  const size_t limit =
      max_affected_fraction >= 1.0
          ? std::numeric_limits<size_t>::max()
          : std::max<size_t>(8, max_affected_fraction > 0.0
                                    ? static_cast<size_t>(
                                          max_affected_fraction *
                                          static_cast<double>(n))
                                    : 0);

  auto& ws = thread_fault_delta_workspace<Policy>();
  ReRelax<Policy> kernel(g, policy, old_tree, ws);
  const std::optional<size_t> touched =
      kernel.repair(faults, removed, inserted, eps_q, limit);
  if (!touched) return full();
  // Encoded against THIS graph's endpoint table: the cached tree may hold
  // the table from before a fresh-slot append (Graph::edges_mut clones when
  // shared), and the cascade writes the new slot ids into parent_edge.
  // Slots are append-only with preserved endpoint order, so the current
  // table is valid for every old id too.
  RepairOutcome out;
  out.repaired = true;
  out.touched = *touched;
  Spt::encode(old_tree.root, old_tree.dir, ws.tree_hops_, ws.tree_edge_,
              g.shared_endpoints(), out.tree);
  return out;
}

// Theorem 19 scheme: unique shortest paths of the reweighted graph G* \ F.
template <typename Policy>
class Rpts final : public IRpts {
 public:
  Rpts(const Graph& g, Policy policy)
      : g_(&g), policy_(std::move(policy)) {}

  const Graph& graph() const override { return *g_; }
  std::string name() const override { return policy_.name(); }
  const Policy& policy() const { return policy_; }

  Spt spt(Vertex root, const FaultSet& faults = {},
          Direction dir = Direction::kOut) const override {
    return sssp(root, faults, dir).spt;
  }

  std::vector<SptHandle> spt_batch(std::span<const SsspRequest> requests,
                                   const BatchSsspEngine* engine = nullptr,
                                   SptCache* cache = nullptr) const override {
    const BatchSsspEngine& eng = BatchSsspEngine::or_shared(engine);
    if (!cache) return share_spts(eng.run_batch_spt(*g_, policy_, requests));
    return cached_spt_batch(version(), *cache, requests,
                            [&](std::span<const SsspRequest> missed) {
                              return eng.run_batch_spt(*g_, policy_, missed);
                            });
  }

  // The exact tier's insert test: the old tree survives an insert of
  // e = (u, v) iff neither orientation of e would be adopted under the
  // policy's exact arithmetic, i.e. the old perturbed distances are a
  // feasible potential for the grown graph. Then every path through e is
  // strictly longer than the old (unique) selections, so the tree is still
  // THE tree -- the reweighted-graph version of the classic "a non-tight
  // edge changes nothing" argument. Everything else is the base predicate.
  bool tree_survives(const GraphDelta& delta, const Spt& tree,
                     const FaultSet& faults,
                     uint32_t eps_q = 0) const override {
    if (eps_q || delta.kind == GraphDelta::Kind::kRemove ||
        (delta.edge != kNoEdge && faults.contains(delta.edge)))
      return IRpts::tree_survives(delta, tree, faults, eps_q);
    return insert_survives(policy_, delta, tree, 0);
  }


  // Full result including exact tie values (used by the RP algorithms).
  DijkstraResult<Policy> sssp(Vertex root, const FaultSet& faults = {},
                              Direction dir = Direction::kOut) const {
    DijkstraResult<Policy> res;
    tiebroken_sssp_into(*g_, policy_, root, faults, dir,
                        thread_workspace<Policy>(), res);
    return res;
  }

  // Batched full results, in request order.
  std::vector<DijkstraResult<Policy>> sssp_batch(
      std::span<const SsspRequest> requests,
      const BatchSsspEngine* engine = nullptr) const {
    return BatchSsspEngine::or_shared(engine).run_batch(*g_, policy_,
                                                        requests);
  }

  // The same scheme viewed over a subgraph of g (edge labels must refer to
  // g's edges, which Graph::edge_subgraph guarantees). Stability and
  // consistency transfer because the weights are per-label.
  Rpts<Policy> over(const Graph& subgraph) const {
    return Rpts<Policy>(subgraph, policy_);
  }

  // Same policy instance over the frozen graph, answering to this scheme's
  // cache identity: per-label weights make the rebound scheme bit-identical
  // at the snapshot's epoch.
  std::unique_ptr<IRpts> snapshot_view(const Graph& frozen) const override {
    auto view = std::make_unique<Rpts<Policy>>(frozen, policy_);
    view->adopt_identity(*this);
    return view;
  }

 protected:
  // The exact tier's incremental repair: the repair over the policy's
  // exact arithmetic, bit-identical to a recompute.
  RepairOutcome repair_exact(const Spt& old_tree, const DeltaBatch& batch,
                             const FaultSet& faults,
                             double max_affected_fraction) const override {
    return repair_with(policy_, old_tree, batch, faults,
                       max_affected_fraction, 0);
  }

  // The scheme is stable: re-relax only the detached region.
  std::vector<FaultDelta> compute_fault_deltas(
      const Spt& base, std::span<const SsspRequest> requests) const override {
    std::vector<FaultDelta> out(requests.size());
    ReRelax<Policy> kernel(*g_, policy_, base,
                           thread_fault_delta_workspace<Policy>());
    for (size_t i = 0; i < requests.size(); ++i)
      kernel.fault_delta(requests[i].faults, out[i]);
    return out;
  }

 private:
  const Graph* g_;
  Policy policy_;
};

using IsolationRpts = Rpts<IsolationAtw>;
using RandomRealRpts = Rpts<RandomRealAtw>;
using DeterministicRpts = Rpts<DeterministicAtw>;

// Per-root lowest-id BFS tiebreaking: a natural scheme a routing table
// designer might pick, which is not restorable (Figure 1's bad case).
class ArbitraryRpts final : public IRpts {
 public:
  explicit ArbitraryRpts(const Graph& g) : g_(&g) {}

  const Graph& graph() const override { return *g_; }
  std::string name() const override { return "arbitrary-bfs"; }

  Spt spt(Vertex root, const FaultSet& faults = {},
          Direction dir = Direction::kOut) const override;

  // Lowest-id BFS is a pure function of the topology, so the rebound view is
  // bit-identical at the snapshot's epoch.
  std::unique_ptr<IRpts> snapshot_view(const Graph& frozen) const override {
    auto view = std::make_unique<ArbitraryRpts>(frozen);
    view->adopt_identity(*this);
    return view;
  }

 private:
  const Graph* g_;
};

// Convenience factory for the default (isolation-lemma) scheme.
inline std::unique_ptr<IsolationRpts> make_default_rpts(const Graph& g,
                                                        uint64_t seed) {
  // Scale the weight range down for very large graphs so path sums cannot
  // overflow: need (n - 1) * W < 2^62.
  int64_t w = int64_t{1} << 44;
  while (w > 1 &&
         static_cast<__int128>(g.num_vertices()) * w >= (__int128{1} << 62))
    w >>= 1;
  return std::make_unique<IsolationRpts>(g, IsolationAtw(seed, w));
}

}  // namespace restorable
