// Fault trees as deltas of their base tree: the local re-relax behind
// IRpts::fault_deltas on the exact tier (Rpts<Policy>).
//
// Stability (paper Section 2): removing F keeps every selected path that
// avoids F selected, so T(s, F) agrees with T(s, {}) -- in hops, parent
// edge and tie -- on every vertex whose base path avoids F. Only the
// detached region, the base subtrees below F's tree edges, needs new
// labels. It is re-relaxed in hop order against the surviving labels with
// the sweep's rule (engine/dijkstra_workspace.h): a region vertex at hop h
// takes the FIRST arc in its adjacency order, among non-fault arcs from
// hop-(h-1) vertices, holding the strict minimum of tie(u) + r(u -> v). A
// survivor keeps its base parent under that rule too (its candidate set
// only shrinks and keeps the winning arc), so the base tree overlaid with
// the delta is bit-identical to the sweep run on G \ F.
//
// Hops come from a multi-source BFS over the region: each region vertex is
// seeded one hop past its nearest surviving in-neighbour, and the seeds,
// sorted by hop, merge with the BFS queue so that vertices leave in hop
// order. Survivor ties are memoized climbs down the base tree, accumulated
// root first as the sweep built them, and shared by every fault set of one
// call. A fault set costs O(region x degree) policy operations plus the
// climbs it has not already paid for; the workspace resets in O(touched).
#pragma once

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "core/spt.h"
#include "graph/graph.h"

namespace restorable {

template <typename Policy>
class FaultDeltaWorkspace {
 public:
  using Tie = typename Policy::Tie;

  // Grows (never shrinks) the flat arrays to cover n vertices and restores
  // the clean-state invariant if a previous run died mid-way.
  void ensure(Vertex n) {
    if (dirty_) {
      std::fill(known_.begin(), known_.end(), 0);
      std::fill(state_.begin(), state_.end(), 0);
      std::fill(hops_.begin(), hops_.end(), kUnreachable);
      known_list_.clear();
      region_.clear();
      seeds_.clear();
      queue_.clear();
      dirty_ = false;
    }
    if (state_.size() < n) {
      base_tie_.resize(n);
      known_.resize(n, 0);
      state_.resize(n, 0);
      hops_.resize(n, kUnreachable);
      tie_.resize(n);
    }
  }

  // Per base tree: memoized survivor ties.
  std::vector<Tie> base_tie_;
  std::vector<char> known_;
  std::vector<Vertex> known_list_, climb_;
  // Per fault set: 0 = survivor, 1 = detached, 2 = detached and labeled.
  std::vector<char> state_;
  std::vector<int32_t> hops_;  // a region vertex's new hops
  std::vector<Tie> tie_;       // a labeled region vertex's new tie
  std::vector<Vertex> region_;  // detach order
  std::vector<std::pair<int32_t, Vertex>> seeds_;
  std::vector<Vertex> queue_;
  bool dirty_ = false;
};

// Per-(thread, policy) workspace, as thread_workspace<Policy>() is for the
// sweep.
template <typename Policy>
FaultDeltaWorkspace<Policy>& thread_fault_delta_workspace() {
  thread_local FaultDeltaWorkspace<Policy> ws;
  return ws;
}

// out[i] = the delta of T(base.root, requests[i].faults, base.dir) against
// `base`, the scheme's fault-free tree on g: the region vertices in the
// order they were labeled (increasing new hops), then those F cut off.
// Requests are validated by the caller (IRpts::fault_deltas): same root and
// direction as `base`, exact tier, fault ids < m.
template <typename Policy>
void fault_deltas_into(const Graph& g, const Policy& policy, const Spt& base,
                       std::span<const SsspRequest> requests,
                       FaultDeltaWorkspace<Policy>& ws,
                       std::vector<FaultDelta>& out) {
  using Tie = typename Policy::Tie;
  ws.ensure(g.num_vertices());
  ws.dirty_ = true;
  out.assign(requests.size(), {});

  auto& state = ws.state_;
  auto& hops = ws.hops_;
  auto& tie = ws.tie_;
  auto& region = ws.region_;
  auto& seeds = ws.seeds_;
  auto& queue = ws.queue_;
  const bool out_dir = base.dir == Direction::kOut;
  // Extends t across arc a of v, travelling a.to -> v (the sweep's extend).
  const auto extend = [&](Tie& t, const Arc& a) {
    policy.accumulate(t, g.label(a.edge), out_dir ? !a.forward : a.forward);
  };
  // A reachable survivor's tie: climb to the nearest memoized ancestor, then
  // accumulate back down, parent first.
  ws.base_tie_[base.root] = policy.zero();
  ws.known_[base.root] = 1;
  ws.known_list_.push_back(base.root);
  const auto survivor_tie = [&](Vertex u) -> const Tie& {
    if (ws.known_[u]) return ws.base_tie_[u];
    auto& climb = ws.climb_;
    climb.clear();
    for (Vertex x = u; !ws.known_[x]; x = base.parent(x)) climb.push_back(x);
    for (size_t i = climb.size(); i-- > 0;) {
      const Vertex x = climb[i];
      const Vertex p = base.parent(x);
      const EdgeId pe = base.parent_edge(x);
      Tie t = ws.base_tie_[p];
      policy.accumulate(t, g.label(pe), out_dir == (g.endpoints(pe).u == p));
      ws.base_tie_[x] = std::move(t);
      ws.known_[x] = 1;
      ws.known_list_.push_back(x);
    }
    return ws.base_tie_[u];
  };

  for (size_t r = 0; r < requests.size(); ++r) {
    const FaultSet& faults = requests[r].faults;
    FaultDelta& delta = out[r];

    // Detach: each fault on the base tree cuts the subtree below its lower
    // endpoint; w is a tree child of x iff w's parent edge is the arc's edge.
    for (const EdgeId e : faults) {
      const Edge& ed = g.endpoints(e);
      const Vertex top = base.parent_edge(ed.u) == e   ? ed.u
                         : base.parent_edge(ed.v) == e ? ed.v
                                                       : kNoVertex;
      if (top == kNoVertex || state[top]) continue;
      state[top] = 1;
      region.push_back(top);
      for (size_t i = region.size() - 1; i < region.size(); ++i)
        for (const Arc& a : g.arcs(region[i]))
          if (!state[a.to] && base.parent_edge(a.to) == a.edge) {
            state[a.to] = 1;
            region.push_back(a.to);
          }
    }

    // Seeds: one hop past the nearest surviving in-neighbour.
    for (const Vertex v : region) {
      int32_t best = kUnreachable;
      for (const Arc& a : g.arcs(v)) {
        const int32_t hu = state[a.to] ? kUnreachable : base.hops(a.to);
        if (hu == kUnreachable || (best != kUnreachable && hu + 1 >= best) ||
            faults.contains(a.edge))
          continue;
        best = hu + 1;
      }
      if (best == kUnreachable) continue;
      hops[v] = best;
      seeds.emplace_back(best, v);
    }
    std::sort(seeds.begin(), seeds.end());

    delta.reserve(region.size());

    // Hop-ordered re-relax: the seeds merged with the BFS queue (both in
    // non-decreasing hops), so every hop-(h-1) label is final before a
    // hop-h vertex picks its parent.
    size_t next_seed = 0;
    for (size_t head = 0;;) {
      Vertex v;
      if (head < queue.size() && (next_seed == seeds.size() ||
                                  hops[queue[head]] <= seeds[next_seed].first)) {
        v = queue[head++];
      } else if (next_seed < seeds.size()) {
        const auto [h, s] = seeds[next_seed++];
        if (h != hops[s]) continue;  // lowered by the BFS since
        v = s;
      } else {
        break;
      }
      if (state[v] == 2) continue;
      state[v] = 2;
      const int32_t h = hops[v];
      const Arc* best = nullptr;
      Tie best_key{};
      for (const Arc& a : g.arcs(v)) {
        const Vertex u = a.to;
        const Tie* tu;
        if (state[u]) {
          if (state[u] == 1 && (hops[u] == kUnreachable || hops[u] > h + 1)) {
            if (faults.contains(a.edge)) continue;
            hops[u] = h + 1;
            queue.push_back(u);
            continue;
          }
          if (hops[u] + 1 != h || faults.contains(a.edge)) continue;
          tu = &tie[u];
        } else {
          if (base.hops(u) + 1 != h || faults.contains(a.edge)) continue;
          tu = &survivor_tie(u);
        }
        Tie t = *tu;
        extend(t, a);
        if (!best || policy.compare(t, best_key) < 0) {
          best = &a;
          best_key = std::move(t);
        }
      }
      tie[v] = std::move(best_key);
      delta.push_back({v, h, best->edge});
    }
    for (const Vertex v : region) {
      if (state[v] == 1) delta.push_back({v, kUnreachable, kNoEdge});
      state[v] = 0;
      hops[v] = kUnreachable;
    }
    region.clear();
    seeds.clear();
    queue.clear();
  }

  for (const Vertex x : ws.known_list_) ws.known_[x] = 0;
  ws.known_list_.clear();
  ws.dirty_ = false;
}

}  // namespace restorable
