// Shortest-path tree produced by the tiebroken Dijkstra over G* \ F.
//
// Because the selected paths are *unique* shortest paths of the reweighted
// directed graph, the union of the selected root-to-everywhere paths is a
// tree (consistency; see Section 2 of the paper), and a parent array
// represents the whole tiebreaking scheme restricted to one root and one
// fault set.
//
// Storage layout. One layout, truncated at the last reachable vertex:
// per-vertex hop counts and u32 parent_edge, plus a shared pointer to the
// endpoint table of the graph the tree was built on. parent(v) is derived in
// O(1) as the other endpoint of parent_edge(v), so no parent array is
// stored. Hops are u16 (0xFFFF = unreachable) -- 6 bytes/vertex -- unless
// the tree's own maximum hop reaches 0xFFFF, in which case they are stored
// as int32 (8 bytes/vertex); that wide variant is the only way a path of
// 65,535 hops or more is stored. Every tree producer computes plain int32
// hops and parent_edge label arrays and emits the tree with one
// Spt::encode call.
// The endpoint table stays valid for the life of the tree because Graph
// edge slots are append-only and keep their stored endpoint order across
// tombstone flaps (see Graph::shared_endpoints).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace restorable {

// Orientation of the selected paths relative to the root. kOut: the tree
// encodes pi(root, v) for every v (paths leave the root; arc weights are
// read in travel direction root -> v). kIn: the tree encodes pi(v, root),
// i.e. shortest paths *towards* the root in G*, equivalently an out-tree of
// the reversed reweighted graph. The two differ because r is antisymmetric.
enum class Direction : uint8_t { kOut, kIn };

// Fixed-point denominator of the quantized approximation parameter: a
// request's eps_q encodes epsilon = eps_q / kEpsilonDenom. Quantizing keys
// the approximate tier exactly -- two callers asking for "about 0.1" land on
// the same cache entry -- and keeps the relaxed improvement test in exact
// integer arithmetic (no float compare on the hot path).
inline constexpr uint32_t kEpsilonDenom = 1024;

// Floor-quantization: the effective epsilon never exceeds the requested one,
// so the user-facing (1+epsilon)^depth stretch bound stays valid verbatim.
// Clamped to epsilon <= 16 (beyond that every test degenerates anyway).
inline uint32_t quantize_epsilon(double epsilon) {
  if (!(epsilon > 0.0)) return 0;
  double scaled = epsilon * static_cast<double>(kEpsilonDenom);
  const double cap = 16.0 * static_cast<double>(kEpsilonDenom);
  if (scaled > cap) scaled = cap;
  return static_cast<uint32_t>(scaled);
}

inline double dequantize_epsilon(uint32_t eps_q) {
  return static_cast<double>(eps_q) / static_cast<double>(kEpsilonDenom);
}

// The relaxed improvement test of the serving tier's epsilon survival /
// repair predicates (and the tests): a candidate hop count improves the
// current label iff cur > (1 + epsilon) * cand, evaluated exactly over
// integers. eps_q == 0 degenerates to the strict test cur > cand. A fresh
// engine build never needs it: its labels are exact BFS hops, which no
// candidate improves (engine/dijkstra_workspace.h).
inline bool epsilon_improves(int32_t cur_hops, int32_t cand_hops,
                             uint32_t eps_q) {
  if (cur_hops == kUnreachable) return true;
  return static_cast<int64_t>(cur_hops) * kEpsilonDenom >
         static_cast<int64_t>(kEpsilonDenom + eps_q) *
             static_cast<int64_t>(cand_hops);
}

// One unit of SSSP work: the scheme restricted to `root` under `faults`,
// oriented by `dir`. Batches of these are what BatchSsspEngine (and the
// IRpts::spt_batch interface) consume; results always come back in request
// order, independent of scheduling.
//
// eps_q > 0 asks for the approximate tier, whose trees need only satisfy
// d_true <= d <= (1+eps)^d_true * d_true per vertex (survival and repair
// use that slack). A fresh engine build has exact hops and picks each
// parent by the in-neighbour's tie alone (engine/dijkstra_workspace.h).
// eps_q == 0 (the default) is the exact tier.
struct SsspRequest {
  Vertex root = kNoVertex;
  FaultSet faults{};
  Direction dir = Direction::kOut;
  uint32_t eps_q = 0;  // quantized epsilon (kEpsilonDenom fixed-point)
};

// Composite identity of a tree producer at a point in time: which scheme
// instance (graph + policy; see IRpts::scheme_id()) at which topology epoch
// (Graph::epoch()). Trees are deterministic functions of
// (version, root, faults, dir); a graph mutation bumps the epoch instead of
// abandoning the scheme, so unaffected trees can be carried forward across
// the bump (SptCache::advance_epoch) rather than recomputed.
struct SchemeVersion {
  uint64_t scheme_id = 0;
  uint64_t epoch = 0;

  friend bool operator==(const SchemeVersion&, const SchemeVersion&) = default;
};

class Spt {
 public:
  Vertex root = kNoVertex;
  Direction dir = Direction::kOut;

  // The one encoder. `hops` / `parent_edge` are the n-sized labels of the
  // tree (kUnreachable / kNoEdge for unreachable vertices and the root's
  // edge), and `endpoints` the endpoint table of the graph they were
  // computed on (Graph::shared_endpoints()). Storage is truncated at the
  // last reachable vertex and the hop width picked from the labels' maximum
  // hop. Throws std::logic_error on a parent edge the table cannot describe
  // (parent(v) would read out of bounds). Reuses `out`'s capacity, so a
  // pooled target stays allocation-free; a fresh target ends exactly sized.
  static void encode(Vertex root, Direction dir, std::span<const int32_t> hops,
                     std::span<const EdgeId> parent_edge,
                     std::shared_ptr<const std::vector<Edge>> endpoints,
                     Spt& out);

  Vertex num_vertices() const { return n_; }

  // Hop distance root->v (kUnreachable if disconnected from the root in
  // G \ F).
  int32_t hops(Vertex v) const {
    if (v >= parent_edge_.size()) return kUnreachable;
    if (!wide_hops_.empty()) return wide_hops_[v];
    const uint16_t h = narrow_hops_[v];
    return h == kNarrowUnreachable ? kUnreachable : static_cast<int32_t>(h);
  }

  // The neighbor of v on the selected path one step closer to the root;
  // kNoVertex for the root and unreachable vertices. Derived from the parent
  // edge's endpoints.
  Vertex parent(Vertex v) const {
    const EdgeId pe = parent_edge(v);
    if (pe == kNoEdge) return kNoVertex;
    const Edge& ed = (*endpoints_)[pe];
    return ed.u == v ? ed.v : ed.u;
  }

  // The (local) edge id connecting v to parent(v); kNoEdge for the root and
  // unreachable vertices.
  EdgeId parent_edge(Vertex v) const {
    return v < parent_edge_.size() ? parent_edge_[v] : kNoEdge;
  }

  bool reachable(Vertex v) const { return hops(v) != kUnreachable; }

  // The endpoint table parent(v) is derived from.
  const std::shared_ptr<const std::vector<Edge>>& endpoints() const {
    return endpoints_;
  }

  // The selected path between root and v, oriented root -> v for kOut trees
  // and v -> root for kIn trees. Empty if unreachable.
  Path path_to(Vertex v) const;

  // Whether the selected root~t path uses no edge of `faults`; true for the
  // root and an unreachable t. O(hops(t)). On an exact-tier tree this is the
  // fault-distance fast path: a path F misses survives in G \ F, so the
  // (root, F) tree has the same hops(t) under any scheme.
  bool path_avoids(Vertex t, const FaultSet& faults) const;

  // Whether any tree path uses edge e (in either orientation): one O(n)
  // scan of the parent edges. Carry-forward (IRpts::batch_survives) asks
  // the same in O(1): e is a tree edge iff it is the parent edge of one of
  // its endpoints.
  bool uses_edge(EdgeId e) const;

  // For every vertex v: whether the tree path root~v uses edge e (in either
  // orientation). One O(n) pass via parent propagation.
  std::vector<char> paths_using_edge(EdgeId e) const;

  // Same, for any edge in `faults`.
  std::vector<char> paths_using_any(const FaultSet& faults) const;

  // All tree edges (parent edges of reachable non-root vertices), deduped.
  std::vector<EdgeId> tree_edges() const;

  // Vertices in root-to-leaf topological order (increasing hops); includes
  // only reachable vertices.
  std::vector<Vertex> top_order() const;

  // Heap footprint of this tree: object header plus the *reserved* storage
  // (capacity, not size) of every owned array -- the exact bytes the
  // serving cache's budget must account: sizeof(Spt) + 6 bytes per stored
  // vertex (8 when wide) for an encoder-fresh tree. The shared endpoint
  // table is deliberately excluded: it is owned by the graph and shared by
  // every tree of the same topology, so charging it per tree would overcount
  // it thousands of times.
  size_t memory_bytes() const;

 private:
  // Narrow-hop sentinel: a tree whose maximum hop reaches it stores its hops
  // wide (int32).
  static constexpr uint16_t kNarrowUnreachable = 0xFFFF;

  Vertex n_ = 0;
  // Stored prefix [0, parent_edge_.size()): one past the last reachable
  // vertex. Exactly one hop array is non-empty when the prefix is.
  std::vector<uint16_t> narrow_hops_;  // kNarrowUnreachable = unreachable
  std::vector<int32_t> wide_hops_;     // kUnreachable = unreachable
  std::vector<EdgeId> parent_edge_;    // kNoEdge for root / unreachable
  // Endpoint table for deriving parent(v); shared with the graph and every
  // other tree of the same topology.
  std::shared_ptr<const std::vector<Edge>> endpoints_;
};

// The canonical tree currency of the library. Trees are deterministic
// functions of (scheme, root, faults, dir) and are therefore shared, never
// copied: IRpts::spt_batch hands them out as SptHandle, the serving cache
// (serve/spt_cache.h) retains the same pointers, and consumers that keep
// trees beyond construction (two-fault oracle, sourcewise-rp) hold handles.
// Ownership rules: the pointee is immutable -- never mutate through a
// handle, never const_cast; a handle stays valid across cache evictions
// (eviction only drops the cache's reference); equality of handles implies
// bit-identical trees, but distinct handles may also be bit-identical
// (e.g. computed before and after an eviction).
using SptHandle = std::shared_ptr<const Spt>;

// One vertex of a fault tree written against its base tree: its label in
// T(root, F) (kUnreachable / kNoEdge once F cuts it off).
struct Relabel {
  Vertex v = kNoVertex;
  int32_t hops = kUnreachable;
  EdgeId parent_edge = kNoEdge;

  friend bool operator==(const Relabel&, const Relabel&) = default;
};

// A fault tree T(root, F) as a delta of the base tree T(root, {}) it was
// computed from (IRpts::fault_deltas): every vertex not listed keeps its
// base label.
using FaultDelta = std::vector<Relabel>;

}  // namespace restorable
