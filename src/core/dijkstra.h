// Tiebroken Dijkstra over the reweighted directed graph G* \ F.
//
// Weights are 1 + r(arc) with r an antisymmetric tiebreaking perturbation
// (see core/perturbation.h), so distances are (hops, tie) pairs compared
// lexicographically and all arithmetic is exact for the integer and
// deterministic policies.
//
// This is the "single call to any APSP/SSSP algorithm that can handle
// directed weighted input graphs" the paper mentions below Theorem 2 --
// specialized to one source, since every application in the paper consumes
// per-root shortest path trees.
#pragma once

#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/perturbation.h"
#include "core/spt.h"
#include "graph/graph.h"

namespace restorable {

// Full result of one tiebroken SSSP run: the Spt plus the exact perturbed
// distances (needed by the replacement-path algorithms, which compare
// candidate path lengths exactly).
template <typename Policy>
struct DijkstraResult {
  Spt spt;
  std::vector<typename Policy::Tie> tie;  // accumulated perturbation per vertex
};

// Establishes parent edges from settled labels: the parent edge of v is the
// arc from the in-neighbor u minimizing (dist(u) + w(u, v)), which --
// distances being exact and unique -- reproduces the unique shortest path
// tree. `done(v)` must report whether v was settled; `hops` / `tie` must
// hold the settled labels. Writes parent_edge[v] for every settled
// non-root v. This is the reference's parent pass only: the engine's sweep
// (engine/dijkstra_workspace.h) selects parents inline, and its "first
// strict minimum in adjacency order" rule picks the same arc as this
// "first arc matching the settled label" rule.
template <typename Policy, typename DoneFn>
void establish_sssp_parents(const Graph& g, const Policy& policy, Vertex root,
                            const FaultSet& faults, Direction dir,
                            DoneFn&& done, const std::vector<int32_t>& hops,
                            const std::vector<typename Policy::Tie>& tie,
                            std::vector<EdgeId>& parent_edge) {
  using Tie = typename Policy::Tie;
  const Vertex n = g.num_vertices();
  for (Vertex v = 0; v < n; ++v) {
    if (v == root || !done(v)) continue;
    bool found = false;
    Tie best{};
    for (const Arc& a : g.arcs(v)) {
      const Vertex u = a.to;
      if (!done(u) || faults.contains(a.edge)) continue;
      if (hops[u] + 1 != hops[v]) continue;
      const bool travel_forward =
          dir == Direction::kOut ? !a.forward : a.forward;  // u -> v travel
      Tie t = tie[u];
      policy.accumulate(t, g.label(a.edge), travel_forward);
      if (policy.compare(t, tie[v]) == 0) {
        // Exact match with the settled label: this arc is on the unique
        // shortest path. (There can be only one by uniqueness.)
        parent_edge[v] = a.edge;
        found = true;
        break;
      }
      if (!found || policy.compare(t, best) < 0) {
        // Fallback tracking in case exact match is never hit (should not
        // happen with exact policies; protects the long-double policy from
        // rounding).
        best = t;
        parent_edge[v] = a.edge;
        found = true;
      }
    }
  }
}

// Runs tiebroken Dijkstra from `root` on g \ faults.
//
// dir == kOut: computes pi(root, v) for all v; arcs are traversed in their
// natural direction, accumulating r(arc).
// dir == kIn: computes pi(v, root) for all v, by searching the reversed
// graph: an arc v->u in the search corresponds to travel u->v in G*, so the
// accumulated perturbation is r(u, v) = the arc value with the *flipped*
// orientation flag. Throws std::out_of_range for root >= n or a fault id
// >= m.
template <typename Policy>
DijkstraResult<Policy> tiebroken_sssp(const Graph& g, const Policy& policy,
                                      Vertex root, const FaultSet& faults,
                                      Direction dir) {
  const Vertex n = g.num_vertices();
  if (root >= n)
    throw std::out_of_range("tiebroken_sssp: root " + std::to_string(root) +
                            " out of range");
  check_fault_ids(g, faults, "tiebroken_sssp");
  DijkstraResult<Policy> res;
  res.tie.assign(n, policy.zero());
  std::vector<int32_t> hops(n, kUnreachable);
  std::vector<EdgeId> parent_edge(n, kNoEdge);

  using Tie = typename Policy::Tie;
  struct QItem {
    int32_t hops;
    Tie tie;
    Vertex v;
  };
  auto cmp = [&policy](const QItem& a, const QItem& b) {
    if (a.hops != b.hops) return a.hops > b.hops;
    return policy.compare(a.tie, b.tie) > 0;
  };
  std::priority_queue<QItem, std::vector<QItem>, decltype(cmp)> pq(cmp);
  std::vector<char> done(n, 0);

  hops[root] = 0;
  pq.push({0, policy.zero(), root});
  while (!pq.empty()) {
    QItem top = pq.top();
    pq.pop();
    const Vertex v = top.v;
    if (done[v]) continue;
    done[v] = 1;
    hops[v] = top.hops;
    res.tie[v] = top.tie;
    for (const Arc& a : g.arcs(v)) {
      if (done[a.to] || faults.contains(a.edge)) continue;
      // Orientation of the perturbation for this hop: travelling v -> a.to
      // for kOut trees, a.to -> v for kIn trees (reversed search).
      const bool travel_forward =
          dir == Direction::kOut ? a.forward : !a.forward;
      Tie t = top.tie;
      policy.accumulate(t, g.label(a.edge), travel_forward);
      const int32_t h = top.hops + 1;
      const int32_t old_h = hops[a.to];
      // Lazy-deletion heap: push improved tentative labels; stale entries
      // are skipped by the `done` check. We keep a cheap dominance filter on
      // hop count to bound heap growth.
      if (old_h != kUnreachable && old_h < h) continue;
      pq.push({h, std::move(t), a.to});
      if (old_h == kUnreachable || h < old_h) hops[a.to] = h;
    }
  }
  // Second pass establishes parents from the settled labels. We recompute
  // rather than track during relaxation so that `hops`/`tie` hold only
  // *settled* values (the relaxation loop above overwrites hops with
  // tentative labels; fix them first).
  for (Vertex v = 0; v < n; ++v)
    if (!done[v]) hops[v] = kUnreachable;
  establish_sssp_parents(g, policy, root, faults, dir,
                         [&done](Vertex v) { return done[v] != 0; }, hops,
                         res.tie, parent_edge);
  Spt::encode(root, dir, hops, parent_edge, g.shared_endpoints(), res.spt);
  return res;
}

}  // namespace restorable
