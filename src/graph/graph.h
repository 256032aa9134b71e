// Core graph substrate: undirected, unweighted graphs in CSR form.
//
// The paper works with undirected unweighted graphs G = (V, E); the
// tiebreaking machinery views G as the symmetric directed graph obtained by
// replacing each undirected edge {u, v} with both arcs. This module provides
// the undirected representation; the direction of a traversal is carried
// alongside an edge id wherever it matters (see core/perturbation.h).
//
// Edges carry a *label*: the edge id they had in the graph they were
// originally created in. Subgraphs (shortest path trees, preservers,
// tree-union graphs in Algorithm 1) preserve labels so that tiebreaking
// weight functions -- which are defined per original edge -- stay meaningful
// on the subgraph.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace restorable {

using Vertex = uint32_t;
using EdgeId = uint32_t;

inline constexpr Vertex kNoVertex = static_cast<Vertex>(-1);
inline constexpr EdgeId kNoEdge = static_cast<EdgeId>(-1);
inline constexpr int32_t kUnreachable = -1;

// An undirected edge. Stored endpoint order is preserved: the "forward"
// orientation of edge e is endpoints(e).u -> endpoints(e).v, which is the
// orientation the antisymmetric weight r(u, v) is defined on.
struct Edge {
  Vertex u;
  Vertex v;
  friend bool operator==(const Edge&, const Edge&) = default;
};

// A directed arc in the CSR adjacency structure.
struct Arc {
  Vertex to;
  EdgeId edge;     // edge id in *this* graph
  bool forward;    // true iff the traversal follows the stored (u, v) order
};

// A path, as the sequence of visited vertices (size >= 1) plus the parallel
// sequence of traversed edge ids (size = vertices.size() - 1).
struct Path {
  std::vector<Vertex> vertices;
  std::vector<EdgeId> edges;

  bool empty() const { return vertices.empty(); }
  size_t length() const { return edges.size(); }
  Vertex source() const { return vertices.front(); }
  Vertex target() const { return vertices.back(); }
  bool uses_edge(EdgeId e) const;
  bool uses_vertex(Vertex v) const;

  // Appends `other` (which must start at this path's target) to this path.
  void concatenate(const Path& other);
  // Returns the reversed path (t ~> s becomes s ~> t).
  Path reversed() const;
  std::string to_string() const;

  friend bool operator==(const Path&, const Path&) = default;
};

// A small sorted set of failing edge ids; |F| <= f is tiny in all uses, so a
// sorted vector beats any tree/hash container.
class FaultSet {
 public:
  FaultSet() = default;
  FaultSet(std::initializer_list<EdgeId> ids);
  explicit FaultSet(std::vector<EdgeId> ids);

  bool contains(EdgeId e) const;
  bool empty() const { return ids_.empty(); }
  size_t size() const { return ids_.size(); }
  void insert(EdgeId e);
  void erase(EdgeId e);
  std::span<const EdgeId> ids() const { return ids_; }
  auto begin() const { return ids_.begin(); }
  auto end() const { return ids_.end(); }

  FaultSet with(EdgeId e) const;     // F u {e}
  FaultSet without(EdgeId e) const;  // F \ {e}
  std::string to_string() const;

  friend bool operator==(const FaultSet&, const FaultSet&) = default;
  friend auto operator<=>(const FaultSet& a, const FaultSet& b) {
    return a.ids_ <=> b.ids_;
  }

 private:
  std::vector<EdgeId> ids_;  // sorted, unique
};

// One topology mutation, the unit of the dynamic-update pipeline. A delta
// is *intent* when handed to Graph::apply (insert: endpoints; remove: edge
// id) and a complete record afterwards: apply fills every field, so the
// same value can then drive the carry-forward machinery downstream
// (IRpts::tree_survives / batch_survives, SptCache::advance_epoch).
struct GraphDelta {
  enum class Kind : uint8_t { kInsert, kRemove };

  Kind kind = Kind::kInsert;
  // The edge id affected. Removals name it up front; inserts get it filled
  // by apply (a resurrected tombstone's old id, or the appended slot).
  EdgeId edge = kNoEdge;
  // Stored endpoint order of the affected edge (filled/normalized by apply;
  // the antisymmetric weight r(u, v) is defined on this orientation).
  Vertex u = kNoVertex;
  Vertex v = kNoVertex;
  // Tiebreak label of the affected edge (filled by apply). A re-inserted
  // edge keeps its old label -- label stability -- so its perturbation, and
  // therefore every tree that never used it, is unchanged.
  EdgeId label = kNoEdge;

  static GraphDelta insert(Vertex u, Vertex v) {
    return {Kind::kInsert, kNoEdge, u, v, kNoEdge};
  }
  static GraphDelta remove(EdgeId e) {
    return {Kind::kRemove, e, kNoVertex, kNoVertex, kNoEdge};
  }
};

// Summary of one *batch* of mutations applied atomically by
// Graph::apply(std::span<const GraphDelta>): k deltas, ONE epoch bump, ONE
// CSR rebuild. `deltas` echoes the inputs with every field filled in (the
// per-delta record Graph::apply(GraphDelta&) would have produced, no-ops
// included); `net` is the batch collapsed to its net effect per edge slot --
// an edge removed and re-added (or added and re-removed) within the batch
// cancels out and contributes nothing. Carry-forward machinery
// (IRpts::batch_survives, SptCache::advance_epoch, Rpts::repair_tree)
// consumes `net` only: a flap healed inside one batch is a provable no-op
// for every cached tree.
struct DeltaBatch {
  std::vector<GraphDelta> deltas;  // inputs, filled in; no-ops included
  std::vector<GraphDelta> net;     // net effect, one entry per changed slot
  uint64_t old_epoch = 0;
  uint64_t new_epoch = 0;

  // True iff the epoch advanced (at least one delta changed the topology at
  // some point -- even if the batch's net effect collapsed to nothing).
  bool changed() const { return new_epoch != old_epoch; }
};

// Undirected unweighted multigraph-free graph with CSR adjacency.
//
// Dynamic updates: remove_edge tombstones the slot (the edge keeps its id
// and label but contributes no arcs), and add_edge resurrects a matching
// tombstone before appending a fresh slot -- so edge ids and labels are
// stable across any flap sequence, which is what keeps per-label tiebreak
// weights (core/perturbation.h) meaningful on the mutated graph. Every
// successful mutation bumps epoch(), the version the serving layer keys
// cached trees by.
class Graph;

// An immutable frozen copy of a Graph at one epoch, shared between every
// reader pinned to that epoch. The pointee never mutates -- concurrent reads
// need no synchronization -- and the snapshot keeps the CSR alive for as
// long as any reader (or pinned generation, see serve/generation.h) holds
// the handle, independent of what happens to the live graph it was taken
// from.
using GraphSnapshot = std::shared_ptr<const Graph>;

class Graph {
 public:
  Graph() = default;
  // Builds a graph on n vertices with the given edges. Self-loops are
  // disallowed; parallel edges are allowed structurally but never produced
  // by the generators. If `labels` is empty, labels default to edge ids.
  Graph(Vertex n, std::vector<Edge> edges, std::vector<EdgeId> labels = {});

  Vertex num_vertices() const { return n_; }
  // Edge *slots*, including tombstoned (removed) edges: edge ids stay dense
  // and stable, so per-id loops and FaultSets remain valid across updates.
  EdgeId num_edges() const { return static_cast<EdgeId>(edges_->size()); }
  // Slots currently present (contributing arcs).
  EdgeId num_present_edges() const {
    return static_cast<EdgeId>(edges_->size()) - absent_;
  }

  const Edge& endpoints(EdgeId e) const { return (*edges_)[e]; }
  const std::vector<Edge>& edges() const { return *edges_; }

  // The endpoint table as a shared, copy-on-write handle. Holders (compact
  // Spts derive parent(v) from it, see core/spt.h) keep a consistent table
  // for as long as they need: mutation clones the vector when it is shared,
  // and because edge slots are append-only with stored endpoint order
  // preserved across tombstone flaps, a holder's table remains a valid
  // description of every edge id that existed when it was taken -- even for
  // trees carried forward across epoch bumps. Copying a Graph (and
  // snapshot()) shares the table instead of duplicating it.
  std::shared_ptr<const std::vector<Edge>> shared_endpoints() const {
    return edges_;
  }

  // The original-graph edge id of local edge e (see file comment).
  EdgeId label(EdgeId e) const { return labels_[e]; }
  const std::vector<EdgeId>& labels() const { return labels_; }

  // False for a tombstoned (removed) slot.
  bool edge_present(EdgeId e) const {
    return present_.empty() || present_[e] != 0;
  }

  // Monotonically increasing topology version; bumped by every successful
  // mutation (and only those -- no-op mutations leave it unchanged). Freshly
  // built graphs start at 0.
  uint64_t epoch() const { return epoch_; }

  // Applies the mutation described by `delta`, filling in its edge / u / v /
  // label fields (see GraphDelta), and returns true if the topology changed.
  // No-ops -- inserting an edge that is already present, removing one that
  // is absent -- return false and do not bump the epoch. Inserts resurrect a
  // tombstoned {u, v} slot (same id, same label) when one exists; otherwise
  // a fresh slot is appended with a label one past the largest existing
  // label (= the slot index on identity-labeled graphs), so per-label
  // tiebreak weights stay distinct. Throws invalid_argument on self-loops /
  // out-of-range endpoints or ids.
  bool apply(GraphDelta& delta);

  // Batched form: applies the deltas in order as ONE atomic mutation -- a
  // single CSR rebuild and a single epoch bump for the whole batch (no bump
  // when no delta changed anything). Deltas interact exactly as k sequential
  // apply() calls would (a removal followed by an insert of the same
  // endpoints resurrects the tombstone), but intermediate topologies are
  // never observable. The returned summary carries the filled-in per-delta
  // records plus the batch's net effect per edge slot (see DeltaBatch).
  DeltaBatch apply(std::span<const GraphDelta> deltas);

  // Convenience forms of apply(). add_edge returns the edge id (existing id
  // for a no-op duplicate); remove_edge returns whether anything changed.
  EdgeId add_edge(Vertex u, Vertex v);
  bool remove_edge(EdgeId e);

  std::span<const Arc> arcs(Vertex v) const {
    return {arcs_.data() + offsets_[v], arcs_.data() + offsets_[v + 1]};
  }
  size_t degree(Vertex v) const { return offsets_[v + 1] - offsets_[v]; }

  // Linear scan over the (smaller-degree) endpoint; returns kNoEdge if the
  // vertices are not adjacent.
  EdgeId find_edge(Vertex u, Vertex v) const;

  // Other endpoint of edge e as seen from u.
  Vertex other_endpoint(EdgeId e, Vertex u) const {
    const Edge& ed = (*edges_)[e];
    assert(ed.u == u || ed.v == u);
    return ed.u == u ? ed.v : ed.u;
  }

  // Subgraph on the same vertex set containing exactly the given edges.
  // Labels carry through, i.e. the subgraph's label(e') equals this graph's
  // label of the originating edge.
  Graph edge_subgraph(std::span<const EdgeId> edge_ids) const;

  // In-place variant: rebuilds *this* as base.edge_subgraph(edge_ids),
  // reusing this object's edge/label/CSR storage. This is the pooling
  // primitive for stages that build thousands of transient subgraphs (the
  // per-pair stage of Algorithm 1 in rp/subset_rp.cc): after the first few
  // pairs a pooled Graph rebuilds with zero allocations.
  void assign_edge_subgraph(const Graph& base,
                            std::span<const EdgeId> edge_ids);

  // True if the path is a valid walk in this graph avoiding `faults`.
  bool is_valid_path(const Path& p, const FaultSet& faults = {}) const;

  // Frozen copy of this graph at its current epoch (epoch() carries over).
  // This is the read-side handle of the RCU serving path: the mutator takes
  // a snapshot after Graph::apply and hands it to the published generation,
  // so lock-free readers compute on CSR storage no later mutation touches.
  // One CSR-sized copy per epoch bump -- the price of never stalling a
  // reader.
  GraphSnapshot snapshot() const;

 private:
  // FrozenCsr::thaw fills a Graph's members directly from the packed file
  // image (no edge re-validation, no CSR counting sort) -- the zero-parse
  // load path for million-node graphs.
  friend class FrozenCsr;

  void build_csr();
  // Shared mutation core: applies one delta to the edge/label/tombstone
  // state WITHOUT rebuilding the CSR or bumping the epoch (the callers
  // decide how many mutations share one rebuild + bump). Returns whether
  // the topology changed.
  bool apply_one(GraphDelta& delta);

  // The endpoint table, mutable: clones when shared (snapshots, compact
  // trees) so holders of shared_endpoints() never observe a mutation.
  std::vector<Edge>& edges_mut() {
    if (edges_.use_count() > 1)
      edges_ = std::make_shared<std::vector<Edge>>(*edges_);
    return *edges_;
  }

  Vertex n_ = 0;
  std::shared_ptr<std::vector<Edge>> edges_ =
      std::make_shared<std::vector<Edge>>();
  std::vector<EdgeId> labels_;
  std::vector<uint32_t> offsets_;  // size n_ + 1
  std::vector<Arc> arcs_;          // size 2 * num_present_edges()
  // Tombstone map; empty means "every slot present" (the common static
  // case), so static graphs pay nothing. Materialized by the first removal.
  std::vector<char> present_;
  EdgeId absent_ = 0;  // tombstone count
  uint64_t epoch_ = 0;
};

}  // namespace restorable
