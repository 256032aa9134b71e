// Reusable per-thread state for tiebroken SSSP, plus the hop-layered sweep
// the batch engine (and every Rpts tree build) runs.
//
// The reference implementation (core/dijkstra.h) is a lazy-deletion heap
// Dijkstra with a separate parent pass, allocating its arrays per call. This
// variant needs no heap at all. Every perturbation sums to less than half a
// hop along any path (core/perturbation.h, paper Section 3), so a perturbed
// distance is the pair (hops, tie) compared lexicographically, and a vertex
// v at hop h+1 takes the minimum of tie(u) + r(u -> v) over its hop-h
// in-neighbours u. One breadth-first sweep therefore yields the exact
// labels:
//  * the queue holds the vertices in hop order (layer h is one contiguous
//    range of it), so when a hop-(h+1) vertex v is dequeued every hop-h
//    vertex already has its final tie;
//  * one scan of v's non-fault arcs both discovers v's unlabeled
//    neighbours (hop h+2, appended to the queue) and selects v's parent:
//    the FIRST arc in v's adjacency order, among those from a hop-h
//    vertex u, holding the strict minimum of the key.
//
// Exact mode (eps_q == 0): the key is tie(u) + r(u -> v). The minimum is
// the settled Dijkstra label, and the reference's parent pass
// (core/dijkstra.h) takes the first arc in adjacency order whose candidate
// equals that label -- the same arc, even when ties collide. The
// output is element-wise identical to tiebroken_sssp; tests/engine_test.cc
// asserts this.
//
// Epsilon mode (eps_q > 0): the key is tie(u) alone, and v's label is
// accumulated once along the chosen arc. Hops are exact BFS hops (so the
// (1+eps) stretch bound of SsspRequest holds trivially); the tree keeps, per
// vertex, the hop-h in-neighbour with the least tie, the first one in
// adjacency order when ties are equal. Under the (1+eps) improvement test
// of core/spt.h a heap search in (hops, tie) order never relabels a
// vertex, so this is the tree such a search settles whenever the
// in-neighbours' ties are distinct.
//
// Both modes cost O(n + m) policy operations per tree; the workspace's
// arrays are reset in O(touched) between runs. The output is the tree
// alone: the ties stay in the workspace.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/spt.h"
#include "graph/graph.h"

namespace restorable {

// Flat per-vertex scratch of the sweep, clean (every vertex unlabeled)
// between runs.
template <typename Policy>
struct DijkstraWorkspace {
  // Grows (never shrinks) the arrays to cover n vertices.
  void ensure(Vertex n) {
    if (hops_.size() >= n) return;
    hops_.resize(n, kUnreachable);
    parent_edge_.resize(n, kNoEdge);
    tie_.resize(n);
  }

  std::vector<int32_t> hops_;
  std::vector<EdgeId> parent_edge_;
  // Read only for vertices labeled in the same run, so never reset.
  std::vector<typename Policy::Tie> tie_;
  std::vector<Vertex> touched_;  // the BFS queue, in hop order
};

// Per-(thread, policy) workspace. Pool workers are long-lived, so this is
// what makes workspace reuse span whole batches (and successive batches).
template <typename Policy>
DijkstraWorkspace<Policy>& thread_workspace() {
  thread_local DijkstraWorkspace<Policy> ws;
  return ws;
}

// Workspace-based tiebroken SSSP (the sweep above); the tree of
// tiebroken_sssp (same graph/policy/root/faults/dir contract). Throws
// std::out_of_range for root >= n or a fault id >= m. One Spt::encode emits
// the tree into `out`, reusing its capacity.
template <typename Policy>
void tiebroken_sssp_into(const Graph& g, const Policy& policy, Vertex root,
                         const FaultSet& faults, Direction dir,
                         DijkstraWorkspace<Policy>& ws, Spt& out,
                         uint32_t eps_q = 0) {
  using Tie = typename Policy::Tie;
  const Vertex n = g.num_vertices();
  if (root >= n)
    throw std::out_of_range("tiebroken_sssp_into: root " +
                            std::to_string(root) + " out of range");
  check_fault_ids(g, faults, "tiebroken_sssp_into");
  ws.ensure(n);

  // Plain label arrays: every id the sweep touches is 32-bit, so
  // million-node graphs run the same loop with half the index traffic of
  // size_t code.
  auto& hops = ws.hops_;
  auto& parent_edge = ws.parent_edge_;
  auto& queue = ws.touched_;
  auto& tie = ws.tie_;
  // Restores the clean state in O(touched) when the run ends, also when it
  // throws.
  struct Reset {
    DijkstraWorkspace<Policy>& ws;
    ~Reset() {
      for (const Vertex v : ws.touched_) {
        ws.hops_[v] = kUnreachable;
        ws.parent_edge_[v] = kNoEdge;
      }
      ws.touched_.clear();
    }
  } reset{ws};
  // Extends t across arc a of v, travelling a.to -> v: against the arc for
  // kOut trees, along it for kIn trees (reversed search).
  const auto extend = [&](Tie& t, const Arc& a) {
    policy.accumulate(t, g.label(a.edge),
                      dir == Direction::kOut ? !a.forward : a.forward);
  };

  hops[root] = 0;
  tie[root] = policy.zero();
  queue.push_back(root);
  for (size_t head = 0; head < queue.size(); ++head) {
    const Vertex v = queue[head];
    const int32_t h = hops[v];
    const Arc* best = nullptr;
    Tie best_key{};  // exact mode: tie(best->to) + r(best->to -> v)
    for (const Arc& a : g.arcs(v)) {
      const int32_t hu = hops[a.to];
      if (hu == kUnreachable) {
        if (faults.contains(a.edge)) continue;
        hops[a.to] = h + 1;
        queue.push_back(a.to);
        continue;
      }
      if (hu + 1 != h || faults.contains(a.edge)) continue;
      if (eps_q) {
        if (!best || policy.compare(tie[a.to], tie[best->to]) < 0) best = &a;
        continue;
      }
      Tie t = tie[a.to];
      extend(t, a);
      if (!best || policy.compare(t, best_key) < 0) {
        best = &a;
        best_key = std::move(t);
      }
    }
    if (!best) continue;  // the root
    parent_edge[v] = best->edge;
    if (eps_q) {
      tie[v] = tie[best->to];
      extend(tie[v], *best);
    } else {
      tie[v] = std::move(best_key);
    }
  }

  Spt::encode(root, dir, std::span<const int32_t>(hops.data(), n),
              std::span<const EdgeId>(parent_edge.data(), n),
              g.shared_endpoints(), out);
}

}  // namespace restorable
