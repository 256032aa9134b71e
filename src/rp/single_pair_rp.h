// Single-pair replacement paths in near-linear time (Theorem 28; the
// candidate-edge method of Hershberger-Suri / Malik-Mittal-Gupta, adapted to
// tiebroken unique shortest paths).
//
// Input: a graph H with a tiebreaking policy making shortest paths unique,
// and a pair (s, t). Output: for each edge e_i on the selected path
// P = pi(s, t), the replacement distance dist_{H \ e_i}(s, t).
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
// Only hops are kept: the output is the hop part of that minimum, which no
// tie can change, so a candidate is (hops, lo, hi) and no tie is summed or
// compared. Hops lie in [d, 2n): a counting sort orders the c candidates,
// and an ascending pass paints the unpainted failures of each [lo, hi],
// skipping painted runs by union-find. O(c + n + d alpha(d)), no heap; a
// candidate covering all of 1..d drops every one with as many hops or more.
#pragma once

#include <limits>
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

// Pooled per-thread state for single_pair_replacement_paths. Under the
// subset-rp fan-out the solve runs once per source pair on long-lived pool
// workers; pooling its arrays (like DijkstraWorkspace pools the SSSP state)
// makes the per-pair solve allocation-free after warmup.
template <typename Policy>
struct PairRpWorkspace {
  struct Candidate {
    int32_t hops;
    int32_t lo, hi;  // covers the failures e_lo .. e_hi
  };
  Spt from_s, to_t;
  std::vector<int32_t> pos, l, r;
  std::vector<Candidate> candidates, sorted;
  std::vector<int32_t> bucket;  // counting sort by hops - d
  std::vector<int32_t> next;    // next[i]: an unpainted failure >= i, or d+1
};

template <typename Policy>
PairRpWorkspace<Policy>& pair_rp_workspace() {
  thread_local PairRpWorkspace<Policy> ws;
  return ws;
}

// The core: `from_s` is the out-tree of s over h under `policy`, possibly
// in the edge ids of a supergraph whose selected paths from s all lie in h
// (subset-rp passes T(s1) of G). Only the in-tree to t is swept; base_path
// comes back in from_s's edge ids. P's edges are excluded by their id in h,
// read off the in-tree, so a parallel copy of e_i stays a candidate.
template <typename Policy>
ReplacementPathsResult single_pair_replacement_paths(const Graph& h,
                                                     const Policy& policy,
                                                     const Spt& from_s,
                                                     Vertex t) {
  ReplacementPathsResult res;
  if (!from_s.reachable(t)) return res;
  res.base_path = from_s.path_to(t);
  const int32_t d = static_cast<int32_t>(res.base_path.length());
  if (d == 0) return res;
  res.replacement.assign(d, kUnreachable);

  PairRpWorkspace<Policy>& ws = pair_rp_workspace<Policy>();
  tiebroken_sssp_into(h, policy, t, {}, Direction::kIn,
                      thread_workspace<Policy>(), ws.to_t);
  const Spt& to_t = ws.to_t;

  // pos[p_j] = j, -1 off P. l and r start out as pos and are filled in on
  // first use: climb the tree to the first labeled vertex, then write its
  // label down the climbed path, so each vertex is labeled at most once.
  const Vertex n = h.num_vertices();
  std::vector<int32_t>& pos = ws.pos;
  pos.assign(n, -1);
  for (int32_t j = 0; j <= d; ++j) pos[res.base_path.vertices[j]] = j;
  ws.l = pos;
  ws.r = pos;
  const auto label = [](std::vector<int32_t>& lab, const Spt& tree, Vertex v) {
    Vertex w = v;
    while (lab[w] < 0) w = tree.parent(w);
    for (Vertex x = v; x != w; x = tree.parent(x)) lab[x] = lab[w];
    return lab[w];
  };

  // Candidates: every arc u -> v with u reached from s, v reaching t and a
  // non-empty failure interval, except e_i run forward from p_{i-1} (the
  // in-tree's parent edge of p_{i-1}).
  using Candidate = typename PairRpWorkspace<Policy>::Candidate;
  std::vector<Candidate>& candidates = ws.candidates;
  std::vector<int32_t>& bucket = ws.bucket;
  candidates.clear();
  bucket.assign(2 * static_cast<size_t>(n) + 1 - d, 0);
  // Least hops of a candidate covering all of 1..d: no candidate with as
  // many hops can lower any failure's minimum.
  int32_t full = std::numeric_limits<int32_t>::max();
  for (Vertex u = 0; u < n; ++u) {
    // Every arc out of u makes a walk of at least hops(s, u) + hops(u, t).
    const int32_t hops_su = from_s.hops(u);
    if (hops_su == kUnreachable || hops_su + to_t.hops(u) >= full) continue;
    const int32_t lo = label(ws.l, from_s, u) + 1;
    const EdgeId p_edge = pos[u] >= 0 ? to_t.parent_edge(u) : kNoEdge;
    for (const Arc& a : h.arcs(u)) {
      const int32_t hops_vt = to_t.hops(a.to);
      if (hops_vt == kUnreachable || a.edge == p_edge) continue;
      const int32_t hops = hops_su + 1 + hops_vt;
      if (hops >= full) continue;
      const int32_t hi = label(ws.r, to_t, a.to);
      if (lo > hi) continue;
      if (lo == 1 && hi == d) full = hops;
      candidates.push_back(Candidate{hops, lo, hi});
      ++bucket[hops - d + 1];
    }
  }
  std::vector<Candidate>& sorted = ws.sorted;
  sorted.resize(candidates.size());
  for (size_t k = 1; k < bucket.size(); ++k) bucket[k] += bucket[k - 1];
  for (const Candidate& c : candidates) sorted[bucket[c.hops - d]++] = c;

  // Cover: ascending hops, each candidate paints the unpainted failures of
  // [lo, hi]; next[] skips painted runs (path halving).
  std::vector<int32_t>& next = ws.next;
  next.resize(d + 2);
  for (int32_t i = 0; i <= d + 1; ++i) next[i] = i;
  const auto find = [&next](int32_t i) {
    while (next[i] != i) i = next[i] = next[next[i]];
    return i;
  };
  for (const Candidate& c : sorted) {
    for (int32_t i = find(c.lo); i <= c.hi; i = find(i)) {
      res.replacement[i - 1] = c.hops;
      next[i] = i + 1;
    }
  }
  return res;
}

// The (g, policy, s, t) entry: sweeps the out-tree of s, then runs the core.
template <typename Policy>
ReplacementPathsResult single_pair_replacement_paths(const Graph& g,
                                                     const Policy& policy,
                                                     Vertex s, Vertex t) {
  Spt& from_s = pair_rp_workspace<Policy>().from_s;
  tiebroken_sssp_into(g, policy, s, {}, Direction::kOut,
                      thread_workspace<Policy>(), from_s);
  return single_pair_replacement_paths(g, policy, from_s, t);
}

}  // namespace restorable
