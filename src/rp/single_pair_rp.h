// Single-pair replacement paths in near-linear time (Theorem 28; the
// candidate-edge method of Hershberger-Suri / Malik-Mittal-Gupta, adapted to
// tiebroken unique shortest paths).
//
// Input: a graph G with a tiebreaking policy making shortest paths unique,
// and a pair (s, t). Output: for each edge e_i on the selected path
// P = pi(s, t), the replacement distance dist_{G \ e_i}(s, t).
//
// Method. Let P = p_0 .. p_d with edges e_1 .. e_d. Take the out-tree from s
// and the in-tree to t. By uniqueness + consistency:
//   * the selected s ~> u path uses exactly the prefix e_1 .. e_{l(u)} of P,
//     where p_{l(u)} is the last vertex of P on it;
//   * the selected v ~> t path uses exactly the suffix e_{r(v)+1} .. e_d,
//     where p_{r(v)} is the first vertex of P on it.
// Every arc (u, v) other than a P-edge defines the candidate walk
// pi(s, u) o (u, v) o pi(v, t), which avoids exactly the failures e_i with
// l(u) < i <= r(v). The weighted restoration lemma (Theorem 11, true for
// unique shortest paths) guarantees the optimal replacement path for each
// e_i is realized by some candidate, so
//   rp(e_i) = min over candidates covering i.
//
// Only hops are kept (no tie can change the hop part of that minimum), so a
// candidate is (hops, lo, hi). subset-rp (rp/subset_rp.h) feeds the same
// cover candidates of its own.
#pragma once

#include <limits>
#include <span>
#include <vector>

#include "core/rpts.h"
#include "engine/dijkstra_workspace.h"
#include "graph/graph.h"

namespace restorable {

struct ReplacementPathsResult {
  Path base_path;  // the selected path pi(s, t); empty if s, t disconnected
  // replacement[i] = dist_{G \ base_path.edges[i]}(s, t), kUnreachable if
  // the failure disconnects the pair.
  std::vector<int32_t> replacement;
};

// A walk of `hops` >= d hops avoiding the failures e_lo .. e_hi of P.
struct RpCandidate {
  int32_t hops, lo, hi;
};

// result[i - 1] = least hops of a candidate covering failure i, else
// kUnreachable. A counting sort by hops, then an ascending pass paints the
// unpainted failures of each [lo, hi], skipping painted runs by union-find:
// O(c + h + d alpha(d)) for c candidates over h hop values, no heap.
std::vector<int32_t> cover_failures(std::span<const RpCandidate> candidates,
                                    int32_t d);

// Sweeps the out-tree of s and the in-tree to t, then covers the arc
// candidates. P's edges are excluded by their id, read off the in-tree, so
// a parallel copy of e_i stays a candidate.
template <typename Policy>
ReplacementPathsResult single_pair_replacement_paths(const Graph& g,
                                                     const Policy& policy,
                                                     Vertex s, Vertex t) {
  ReplacementPathsResult res;
  Spt from_s, to_t;
  tiebroken_sssp_into(g, policy, s, {}, Direction::kOut,
                      thread_workspace<Policy>(), from_s);
  if (!from_s.reachable(t)) return res;
  res.base_path = from_s.path_to(t);
  const int32_t d = static_cast<int32_t>(res.base_path.length());
  if (d == 0) return res;
  tiebroken_sssp_into(g, policy, t, {}, Direction::kIn,
                      thread_workspace<Policy>(), to_t);

  // pos[p_j] = j, -1 off P; l and r filled top-down over each tree.
  const Vertex n = g.num_vertices();
  std::vector<int32_t> pos(n, -1), l(n), r(n);
  for (int32_t j = 0; j <= d; ++j) pos[res.base_path.vertices[j]] = j;
  for (Vertex x : from_s.top_order())
    l[x] = pos[x] >= 0 ? pos[x] : l[from_s.parent(x)];
  for (Vertex x : to_t.top_order())
    r[x] = pos[x] >= 0 ? pos[x] : r[to_t.parent(x)];

  // Candidates: every arc u -> v with u reached from s, v reaching t and a
  // non-empty failure interval, except e_i run forward from p_{i-1} (the
  // in-tree's parent edge of p_{i-1}).
  std::vector<RpCandidate> candidates;
  // Least hops of a candidate covering all of 1..d: no candidate with as
  // many hops can lower any failure's minimum.
  int32_t full = std::numeric_limits<int32_t>::max();
  for (Vertex u = 0; u < n; ++u) {
    // Every arc out of u makes a walk of at least hops(s, u) + hops(u, t).
    const int32_t hops_su = from_s.hops(u);
    if (hops_su == kUnreachable || hops_su + to_t.hops(u) >= full) continue;
    const int32_t lo = l[u] + 1;
    const EdgeId p_edge = pos[u] >= 0 ? to_t.parent_edge(u) : kNoEdge;
    for (const Arc& a : g.arcs(u)) {
      const int32_t hops_vt = to_t.hops(a.to);
      if (hops_vt == kUnreachable || a.edge == p_edge) continue;
      const int32_t hops = hops_su + 1 + hops_vt;
      if (hops >= full) continue;
      const int32_t hi = r[a.to];
      if (lo > hi) continue;
      if (lo == 1 && hi == d) full = hops;
      candidates.push_back(RpCandidate{hops, lo, hi});
    }
  }
  res.replacement = cover_failures(candidates, d);
  return res;
}

}  // namespace restorable
