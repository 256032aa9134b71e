// Single-pair replacement paths in near-linear time (Theorem 28; the
// candidate-edge method of Hershberger-Suri / Malik-Mittal-Gupta, adapted to
// tiebroken unique shortest paths).
//
// Input: a graph H with a tiebreaking policy making shortest paths unique,
// and a pair (s, t). Output: for each edge e_i on the selected path
// P = pi(s, t), the replacement distance dist_{H \ e_i}(s, t).
//
// Method. Let P = p_0 .. p_d with edges e_1 .. e_d. Compute the out-tree
// from s (dist*(s, .)) and the in-tree to t (dist*(., t)). By uniqueness +
// consistency:
//   * the selected s ~> u path uses exactly the prefix e_1 .. e_{l(u)} of P,
//   * the selected v ~> t path uses exactly the suffix e_{r(v)+1} .. e_d.
// Every arc (u, v) not lying on P defines the candidate walk
// pi(s, u) o (u, v) o pi(v, t) of exact perturbed length
// dist*(s, u) + w*(u, v) + dist*(v, t), which avoids exactly the failures
// e_i with l(u) < i <= r(v). The weighted restoration lemma (Theorem 11, true
// for unique shortest paths) guarantees the optimal replacement path for each
// e_i is realized by some candidate, so
//   rp(e_i) = min over candidates covering i.
// A left-to-right sweep with a lazy-deletion min-heap answers all d stabbing
// queries in O((m + d) log m).
#pragma once

#include <algorithm>
#include <vector>

#include "core/dijkstra.h"
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

// Pooled per-thread state for single_pair_replacement_paths: the two SSSP
// results, the path-indexing arrays (pos / l / r / on_p), the candidate
// activation buckets, and the sweep heap. Under the subset-rp fan-out this
// function runs once per source pair on long-lived pool workers; pooling
// these arrays (like DijkstraWorkspace pools the SSSP state) makes the
// whole per-pair solve allocation-free after warmup.
template <typename Policy>
struct PairRpWorkspace {
  struct Candidate {
    int32_t hops;
    typename Policy::Tie tie;
    int32_t deadline;  // covers failures up to r(v)
  };
  DijkstraResult<Policy> from_s, to_t;
  std::vector<int32_t> pos, l, r;
  std::vector<char> on_p;
  std::vector<std::vector<Candidate>> activate;
  std::vector<Candidate> heap;
};

template <typename Policy>
PairRpWorkspace<Policy>& pair_rp_workspace() {
  thread_local PairRpWorkspace<Policy> ws;
  return ws;
}

template <typename Policy>
ReplacementPathsResult single_pair_replacement_paths(const Graph& g,
                                                     const Policy& policy,
                                                     Vertex s, Vertex t) {
  ReplacementPathsResult res;
  // Workspace-based SSSP (engine/dijkstra_workspace.h): same results as
  // tiebroken_sssp, but the label arrays are reused across calls on this
  // thread -- this is the innermost loop of the batched subset-rp fan-out.
  // The per-pair arrays live in the pooled workspace for the same reason;
  // assign() below reuses their capacity run over run.
  PairRpWorkspace<Policy>& ws = pair_rp_workspace<Policy>();
  DijkstraResult<Policy>& from_s = ws.from_s;
  DijkstraResult<Policy>& to_t = ws.to_t;
  tiebroken_sssp_into(g, policy, s, {}, Direction::kOut,
                      thread_workspace<Policy>(), from_s);
  if (!from_s.spt.reachable(t)) return res;
  tiebroken_sssp_into(g, policy, t, {}, Direction::kIn,
                      thread_workspace<Policy>(), to_t);

  res.base_path = from_s.spt.path_to(t);
  const size_t d = res.base_path.length();
  res.replacement.assign(d, kUnreachable);
  if (d == 0) return res;

  // Index P's vertices and edges.
  const Vertex n = g.num_vertices();
  std::vector<int32_t>& pos = ws.pos;  // pos[p_j] = j
  pos.assign(n, -1);
  for (size_t j = 0; j < res.base_path.vertices.size(); ++j)
    pos[res.base_path.vertices[j]] = static_cast<int32_t>(j);
  std::vector<char>& on_p = ws.on_p;
  on_p.assign(g.num_edges(), 0);
  for (EdgeId e : res.base_path.edges) on_p[e] = 1;

  // l(u): number of P-edges on the selected s ~> u path (a prefix, by
  // consistency). Computed by propagating down the out-tree.
  std::vector<int32_t>& l = ws.l;
  l.assign(n, 0);
  for (Vertex v : from_s.spt.top_order()) {
    if (v == s) continue;
    const Vertex par = from_s.spt.parent(v);
    const EdgeId pe = from_s.spt.parent_edge(v);
    l[v] = l[par] + (on_p[pe] ? 1 : 0);
  }
  // r(v): d minus the number of P-edges on the selected v ~> t path (a
  // suffix), i.e. the selected v ~> t path uses e_{r(v)+1} .. e_d.
  std::vector<int32_t>& r = ws.r;
  r.assign(n, 0);
  for (Vertex v : to_t.spt.top_order()) {
    if (v == t) {
      r[v] = static_cast<int32_t>(d);
      continue;
    }
    const Vertex par = to_t.spt.parent(v);  // next vertex toward t
    const EdgeId pe = to_t.spt.parent_edge(v);
    r[v] = r[par] - (on_p[pe] ? 1 : 0);
  }

  // Candidates: every arc (u, v) with both trees reaching u resp. v and
  // (u, v) not a P-edge. Candidate value is exact perturbed length; bucketed
  // by activation index l(u) + 1. Buckets are cleared, not reallocated.
  using Candidate = typename PairRpWorkspace<Policy>::Candidate;
  std::vector<std::vector<Candidate>>& activate = ws.activate;
  if (activate.size() < d + 2) activate.resize(d + 2);
  for (size_t i = 0; i <= d + 1; ++i) activate[i].clear();
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (on_p[e]) continue;
    const Edge& ed = g.endpoints(e);
    // Both orientations: u -> v and v -> u.
    for (int orient = 0; orient < 2; ++orient) {
      const Vertex u = orient == 0 ? ed.u : ed.v;
      const Vertex v = orient == 0 ? ed.v : ed.u;
      const bool forward = orient == 0;  // travel direction vs stored order
      if (!from_s.spt.reachable(u) || !to_t.spt.reachable(v)) continue;
      const int32_t lo = l[u] + 1, hi = r[v];
      if (lo > hi) continue;
      typename Policy::Tie tie = from_s.tie[u];
      policy.accumulate(tie, g.label(e), forward);
      // to_t.tie[v] accumulated along v ~> t in travel orientation already.
      if constexpr (std::is_arithmetic_v<typename Policy::Tie>) {
        tie += to_t.tie[v];
      } else {
        for (const auto& term : to_t.tie[v]) tie.push_back(term);
        std::sort(tie.begin(), tie.end(), [](int32_t a, int32_t b) {
          const int32_t aa = a < 0 ? -a : a, ab = b < 0 ? -b : b;
          return aa != ab ? aa < ab : a < b;
        });
      }
      activate[lo].push_back(Candidate{
          from_s.spt.hops(u) + 1 + to_t.spt.hops(v), std::move(tie), hi});
    }
  }

  // Sweep failures i = 1..d with a lazy-deletion min-heap ordered by exact
  // perturbed length. The heap storage is pooled; std::push_heap/pop_heap
  // on it are exactly priority_queue's operations without the allocation.
  auto cmp = [&policy](const Candidate& a, const Candidate& b) {
    if (a.hops != b.hops) return a.hops > b.hops;
    return policy.compare(a.tie, b.tie) > 0;
  };
  std::vector<Candidate>& heap = ws.heap;
  heap.clear();
  for (size_t i = 1; i <= d; ++i) {
    for (auto& c : activate[i]) {
      heap.push_back(std::move(c));
      std::push_heap(heap.begin(), heap.end(), cmp);
    }
    while (!heap.empty() &&
           heap.front().deadline < static_cast<int32_t>(i)) {
      std::pop_heap(heap.begin(), heap.end(), cmp);
      heap.pop_back();
    }
    if (!heap.empty())
      res.replacement[i - 1] = heap.front().hops;
  }
  return res;
}

}  // namespace restorable
