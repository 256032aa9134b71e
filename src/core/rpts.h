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

#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "core/perturbation.h"
#include "core/spt.h"
#include "engine/batch_sssp.h"
#include "engine/fault_delta.h"
#include "graph/graph.h"

namespace restorable {

// Wraps engine-computed trees into handles (one allocation per tree, no tree
// copies) -- the tail of every spt_batch implementation.
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
  // provably unaffected by the delta (batch_survives) are carried forward to
  // the new version by the serving cache.
  SchemeVersion version() const { return {scheme_id_, graph().epoch()}; }

  // Carry-forward predicate of the dynamic-update pipeline: true iff `tree`
  // -- computed by this scheme for `faults` at batch.old_epoch -- is still
  // what a recompute at batch.new_epoch may serve: bit-identical on the
  // exact tier (eps_q == 0), invariant F below on the approximate tier
  // (eps_q > 0). It asks one question: would repair_tree touch any label?
  // That is the re-relax kernel (engine/fault_delta.h) run with nothing
  // allowed to change: a removal survives iff its edge is the parent edge
  // of neither endpoint, O(1) (stability: only competing paths vanish); an
  // insert iff neither direction of it would be adopted, which climbs the
  // tree for path ties only on a hop tie. A delta on an edge of `faults` never
  // matters (the edge is excluded from G \ F either way), and a flap healed
  // within the batch has no net delta. On an exact policy the answer is
  // exact: `true` iff the recompute equals `tree`. A scheme without exact
  // arithmetic (ArbitraryRpts) keeps an exact-tier tree only through
  // removals it avoids. Throws as repair_tree does.
  bool batch_survives(const DeltaBatch& batch, const Spt& tree,
                      const FaultSet& faults, uint32_t eps_q = 0) const;

  // Advances `old_tree` -- computed by this scheme at batch.old_epoch for
  // `faults` -- to batch.new_epoch. On the exact tier the result is
  // bit-identical to a from-scratch recompute on the mutated graph; on the
  // approximate tier it satisfies invariant F below (NOT bit-identical to a
  // fresh relaxed compute, see SptKey::eps_q). The repair is the re-relax
  // kernel over `rerelax`'s policy. Past `max_affected_fraction` of the
  // vertex count the repair falls back to a full exact recompute (a
  // fraction >= 1 never falls back). Throws std::invalid_argument when
  // `old_tree`'s vertex count differs from the graph's or its root is out
  // of range, and std::out_of_range for a fault or removed edge id >= m or
  // an inserted endpoint >= n.
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
  // Survival and repair run one adoption rule, the re-relax kernel's
  // (engine/fault_delta.h). The exact tier runs it with the scheme's policy
  // at eps_q == 0; the approximate tier runs it with HopsOnly
  // (core/perturbation.h) at the key's eps_q. An approximate tree thereby
  // keeps a per-edge contract F rather than bit-identity: F1
  // (realizability), every finite hops[v] is witnessed by a parent chain
  // in G \ F with strictly descending hops, so hops[v] >= d_true(v); F2
  // (relaxed feasibility), for every present non-fault edge (x, y), in
  // both directions, a finite hops[x] implies a finite hops[y] <= (1+eps) *
  // (hops[x] + 1). By induction along a true shortest path, F gives
  // d_true(v) <= hops[v] <= (1+eps)^d_true(v) * d_true(v). F, not that
  // endpoint bound, is what survival and repair preserve: a new edge can
  // shorten d_true out from under a valid label, but a new edge that cannot
  // be adopted keeps F2.

  // The scheme restricted to `root` under fault set F. dir == kOut encodes
  // pi(root, v | F) for all v; dir == kIn encodes pi(v, root | F).
  virtual Spt spt(Vertex root, const FaultSet& faults = {},
                  Direction dir = Direction::kOut) const = 0;

  // Batched spt: results in request order, one shared tree handle per
  // request, computed over `engine` (nullptr = the shared hardware-sized
  // engine). The default fans the virtual spt() out over the engine's pool;
  // Rpts<Policy> overrides it with the workspace-reusing batch path. Every
  // per-root / per-fault loop downstream submits through this instead of
  // looping. See SptHandle for the ownership rules.
  virtual std::vector<SptHandle> spt_batch(
      std::span<const SsspRequest> requests,
      const BatchSsspEngine* engine = nullptr) const;

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

  // The re-relax kernel's repair (ReRelax::repair) of `tree`, the tree for
  // `faults`, over the net deltas it feels, after the argument checks of
  // repair_tree and batch_survives: the approximate tier over HopsOnly for
  // every scheme. Without exact arithmetic the exact tier repairs nothing:
  // any insert, or a removal the tree uses, returns nullopt (a recompute).
  // Rpts<Policy> runs its exact tier over the policy.
  virtual std::optional<size_t> rerelax(const Spt& tree,
                                        const FaultSet& faults,
                                        const FaultSet& removed,
                                        std::span<const GraphDelta> inserted,
                                        uint32_t eps_q, size_t limit,
                                        FaultDelta& labels) const;

 private:
  static uint64_t next_scheme_id();

  uint64_t scheme_id_;
};

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
    Spt out;
    tiebroken_sssp_into(*g_, policy_, root, faults, dir,
                        thread_workspace<Policy>(), out);
    return out;
  }

  std::vector<SptHandle> spt_batch(
      std::span<const SsspRequest> requests,
      const BatchSsspEngine* engine = nullptr) const override {
    return share_spts(
        BatchSsspEngine::or_shared(engine).run_batch(*g_, policy_, requests));
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
  // The exact tier over the policy's exact arithmetic: the repair is
  // bit-identical to a recompute, and an insert that is not adopted is a
  // non-tight edge -- every path through it is strictly longer than the old
  // (unique) selections, so the tree is still THE tree.
  std::optional<size_t> rerelax(const Spt& tree, const FaultSet& faults,
                                const FaultSet& removed,
                                std::span<const GraphDelta> inserted,
                                uint32_t eps_q, size_t limit,
                                FaultDelta& labels) const override {
    if (eps_q)
      return IRpts::rerelax(tree, faults, removed, inserted, eps_q, limit,
                            labels);
    ReRelax<Policy> kernel(*g_, policy_, tree,
                           thread_fault_delta_workspace<Policy>());
    return kernel.repair(faults, removed, inserted, 0, limit, labels);
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

// Throws std::invalid_argument unless 0 < W and (n - 1) * W < 2^62 for the
// weight range W: at W = 0 every tie collides (no path is unique, so repair,
// survival and subset-rp are inexact); past 2^62 a tie sum overflows.
template <>
Rpts<IsolationAtw>::Rpts(const Graph& g, IsolationAtw policy);

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
