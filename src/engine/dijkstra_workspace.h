// Reusable per-thread state for tiebroken SSSP, plus the workspace-based
// Dijkstra variant the batch engine runs.
//
// The reference implementation (core/dijkstra.h) allocates a lazy-deletion
// std::priority_queue and a `done` array per call. Under batch fan-out --
// thousands of SSSP runs over the same graph -- those allocations and the
// duplicate heap entries dominate. This variant keeps the sparse state
// (done/open marks, heap positions, heap storage) in a workspace that is
// reset in O(touched) between runs, and replaces the lazy heap with an
// indexed 4-ary heap with decrease-key, so each vertex is in the heap at
// most once.
//
// Output equivalence: settled (hops, tie) labels are the unique shortest
// perturbed distances, identical to the reference implementation's, and the
// parent pass is the *shared* establish_sssp_parents helper, so results are
// element-wise identical for the exact policies (and tie-compare-equal for
// the long-double policy). tests/engine_test.cc asserts this.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dijkstra.h"
#include "graph/graph.h"

namespace restorable {

template <typename Policy>
class DijkstraWorkspace {
 public:
  // Vertex states during a run.
  static constexpr uint8_t kUnseen = 0;
  static constexpr uint8_t kOpen = 1;   // in the heap with a tentative label
  static constexpr uint8_t kDone = 2;   // settled

  static constexpr uint32_t kNoPos = static_cast<uint32_t>(-1);

  // Grows (never shrinks) the flat arrays to cover n vertices and restores
  // the clean-state invariant (every vertex unseen and unlabeled) if a
  // previous run died mid-way.
  void ensure(Vertex n) {
    if (dirty_) {
      state_.assign(state_.size(), kUnseen);
      heap_pos_.assign(heap_pos_.size(), kNoPos);
      hops_.assign(hops_.size(), kUnreachable);
      parent_edge_.assign(parent_edge_.size(), kNoEdge);
      heap_.clear();
      touched_.clear();
      dirty_ = false;
    }
    if (state_.size() < n) {
      state_.resize(n, kUnseen);
      heap_pos_.resize(n, kNoPos);
      hops_.resize(n, kUnreachable);
      parent_edge_.resize(n, kNoEdge);
    }
  }

  std::vector<uint8_t> state_;
  std::vector<uint32_t> heap_pos_;
  std::vector<int32_t> hops_;
  std::vector<EdgeId> parent_edge_;
  std::vector<Vertex> heap_;
  std::vector<Vertex> touched_;
  bool dirty_ = false;
};

// Per-(thread, policy) workspace. Pool workers are long-lived, so this is
// what makes workspace reuse span whole batches (and successive batches).
template <typename Policy>
DijkstraWorkspace<Policy>& thread_workspace() {
  thread_local DijkstraWorkspace<Policy> ws;
  return ws;
}

// Workspace-based tiebroken Dijkstra; drop-in equivalent of tiebroken_sssp
// (same graph/policy/root/faults/dir contract, same result layout).
// Throws std::out_of_range for root >= n. The relaxation runs on the
// workspace's label arrays and one Spt::encode emits the tree into res.spt,
// reusing its capacity.
//
// eps_q > 0 switches the improvement test to the relaxed (1+eps) form
// (epsilon_improves in core/spt.h): an open vertex is only re-labeled when
// the candidate beats its current label by more than the (1+eps) slack, so
// the settled labels satisfy d_true <= d <= (1+eps)^d_true * d_true while
// the search touches (and re-heaps) far fewer vertices. Heap machinery,
// reset, and tie accumulation (which keeps the pop order deterministic) are
// shared with the exact mode. Two differences in the epsilon mode:
//  * parent edges are assigned inline at relaxation time (from the
//    just-popped, hence settled, source), because establish_sssp_parents
//    assumes exact-tight labels that relaxed labels deliberately are not;
//  * a settled label may exceed the length of its own parent chain (the
//    chain only certifies SOME path of length <= hops[v]); parent chains
//    still strictly descend in hops, so path_to / top_order stay valid.
// eps_q == 0 runs the unmodified exact branch -- bit-identical output.
template <typename Policy>
void tiebroken_sssp_into(const Graph& g, const Policy& policy, Vertex root,
                         const FaultSet& faults, Direction dir,
                         DijkstraWorkspace<Policy>& ws,
                         DijkstraResult<Policy>& res, uint32_t eps_q = 0) {
  using Tie = typename Policy::Tie;
  const Vertex n = g.num_vertices();
  if (root >= n)
    throw std::out_of_range("tiebroken_sssp_into: root " +
                            std::to_string(root) + " out of range");
  ws.ensure(n);
  ws.dirty_ = true;

  res.tie.assign(n, policy.zero());

  auto& state = ws.state_;
  auto& heap_pos = ws.heap_pos_;
  auto& heap = ws.heap_;
  // Plain label arrays: every id the relaxation sweep touches is 32-bit
  // (Vertex/EdgeId/heap positions), so million-node graphs run the same
  // loop with half the index traffic of size_t code.
  auto& hops = ws.hops_;
  auto& parent_edge = ws.parent_edge_;
  auto& tie = res.tie;

  // (hops, tie) lexicographic order on tentative labels.
  auto less = [&](Vertex a, Vertex b) {
    if (hops[a] != hops[b]) return hops[a] < hops[b];
    return policy.compare(tie[a], tie[b]) < 0;
  };
  auto place = [&](Vertex v, uint32_t pos) {
    heap[pos] = v;
    heap_pos[v] = pos;
  };
  auto sift_up = [&](uint32_t pos) {
    const Vertex v = heap[pos];
    while (pos > 0) {
      const uint32_t par = (pos - 1) / 4;
      if (!less(v, heap[par])) break;
      place(heap[par], pos);
      pos = par;
    }
    place(v, pos);
  };
  auto sift_down = [&](uint32_t pos) {
    const Vertex v = heap[pos];
    const uint32_t size = static_cast<uint32_t>(heap.size());
    for (;;) {
      uint32_t best = pos;
      Vertex best_v = v;
      const uint32_t first = 4 * pos + 1;
      const uint32_t last = first + 4 < size ? first + 4 : size;
      for (uint32_t c = first; c < last; ++c)
        if (less(heap[c], best_v)) {
          best = c;
          best_v = heap[c];
        }
      if (best == pos) break;
      place(best_v, pos);
      pos = best;
    }
    place(v, pos);
  };
  auto push = [&](Vertex v) {
    heap.push_back(v);
    heap_pos[v] = static_cast<uint32_t>(heap.size() - 1);
    sift_up(heap_pos[v]);
  };
  auto pop_min = [&] {
    const Vertex top = heap[0];
    heap_pos[top] = DijkstraWorkspace<Policy>::kNoPos;
    const Vertex last = heap.back();
    heap.pop_back();
    if (!heap.empty()) {
      place(last, 0);
      sift_down(0);
    }
    return top;
  };

  hops[root] = 0;
  state[root] = DijkstraWorkspace<Policy>::kOpen;
  ws.touched_.push_back(root);
  push(root);

  while (!heap.empty()) {
    const Vertex v = pop_min();
    state[v] = DijkstraWorkspace<Policy>::kDone;
    for (const Arc& a : g.arcs(v)) {
      const Vertex to = a.to;
      if (state[to] == DijkstraWorkspace<Policy>::kDone ||
          faults.contains(a.edge))
        continue;
      // Orientation of the perturbation for this hop: travelling v -> to for
      // kOut trees, to -> v for kIn trees (reversed search).
      const bool travel_forward =
          dir == Direction::kOut ? a.forward : !a.forward;
      const int32_t h = hops[v] + 1;
      if (state[to] == DijkstraWorkspace<Policy>::kUnseen) {
        hops[to] = h;
        tie[to] = tie[v];
        policy.accumulate(tie[to], g.label(a.edge), travel_forward);
        if (eps_q) parent_edge[to] = a.edge;
        state[to] = DijkstraWorkspace<Policy>::kOpen;
        ws.touched_.push_back(to);
        push(to);
        continue;
      }
      if (eps_q) {
        // Relaxed test: only a better-than-(1+eps) candidate re-labels an
        // open vertex. v was just popped, so its label is final and the
        // inline parent-edge assignment is sound (hops[to] = hops[v] + 1
        // with v settled; no later relaxation can touch v).
        if (!epsilon_improves(hops[to], h, eps_q)) continue;
        hops[to] = h;
        tie[to] = tie[v];
        policy.accumulate(tie[to], g.label(a.edge), travel_forward);
        parent_edge[to] = a.edge;
        sift_up(heap_pos[to]);
        continue;
      }
      if (h > hops[to]) continue;
      Tie t = tie[v];
      policy.accumulate(t, g.label(a.edge), travel_forward);
      if (h < hops[to] || policy.compare(t, tie[to]) < 0) {
        hops[to] = h;
        tie[to] = std::move(t);
        sift_up(heap_pos[to]);
      }
    }
  }

  // Every touched vertex was settled (the heap drains completely), so hops
  // and tie now hold exactly the settled labels; untouched vertices kept
  // the clean kUnreachable. Exact parent edges come from the shared
  // tightness pass; epsilon-mode ones were assigned inline above (the
  // tightness pass would reject relaxed labels).
  if (eps_q == 0)
    establish_sssp_parents(
        g, policy, root, faults, dir,
        [&state](Vertex v) {
          return state[v] == DijkstraWorkspace<Policy>::kDone;
        },
        hops, tie, parent_edge);
  Spt::encode(root, dir, std::span<const int32_t>(hops.data(), n),
              std::span<const EdgeId>(parent_edge.data(), n),
              g.shared_endpoints(), res.spt);

  // O(touched) reset, restoring the clean-state invariant for the next run.
  for (const Vertex v : ws.touched_) {
    state[v] = DijkstraWorkspace<Policy>::kUnseen;
    heap_pos[v] = DijkstraWorkspace<Policy>::kNoPos;
    hops[v] = kUnreachable;
    parent_edge[v] = kNoEdge;
  }
  ws.touched_.clear();
  ws.dirty_ = false;
}

}  // namespace restorable
