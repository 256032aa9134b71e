// The re-relax kernel: a tree that loses edges or gains some, rebuilt from
// its old labels by relabeling only what changed. It computes fault trees
// as deltas of their base tree (IRpts::fault_deltas, exact tier), runs the
// incremental repair of both tiers (IRpts::repair_tree), and decides cache
// carry-forward as a repair allowed to change nothing
// (IRpts::batch_survives).
//
// Stability (paper Section 2): removing F keeps every selected path that
// avoids F selected, so T(s, F) agrees with T(s, {}) -- in hops, parent
// edge and tie -- on every vertex whose base path avoids F. Only the
// detached region, the base subtrees below F's tree edges, needs new
// labels. It is re-relaxed in hop order against the surviving labels with
// the sweep's rule (engine/dijkstra_workspace.h): a region vertex at hop h
// takes the FIRST arc in its adjacency order, among kept arcs from hop-(h-1)
// labels, holding the strict minimum of tie(u) + r(u -> v). A survivor
// keeps its base parent under that rule too (its candidate set only shrinks
// and keeps the winning arc), so the base tree overlaid with the delta is
// bit-identical to the sweep run on G \ F.
//
// Hops come from a multi-source BFS over the region: each region vertex is
// seeded one hop past its nearest surviving in-neighbour, and the seeds,
// sorted by hop, merge with the BFS queue so that vertices leave in hop
// order. Survivor ties are memoized climbs down the base tree, accumulated
// root first as the sweep built them, and shared by every fault set of one
// call. A fault set costs O(region x degree) policy operations plus the
// climbs it has not already paid for; the workspace resets in O(touched).
//
// Repair runs the same loop twice. Phase R is a fault set: the batch's net
// removals detach, and its net inserts are skipped. The cascade then opens
// each label that an insert, or a region label that came back lower,
// improves under the adoption rule (`offer` below): a candidate (h, tie)
// replaces a label (cur, cur_tie) iff epsilon_improves(cur, h, eps_q), or,
// at eps_q == 0 only, h == cur and the candidate's tie compares strictly
// lower. The push that improves a vertex opens it, and it is relabeled by
// the sweep's rule when it leaves the queue in hop order, then offers its
// new label over all its arcs. On the exact tier every changed label is
// opened at its final hop, so the result is the sweep's tree on the new
// graph, bit for bit.
#pragma once

#include <algorithm>
#include <limits>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/perturbation.h"
#include "core/spt.h"
#include "graph/graph.h"

namespace restorable {

// Flat per-vertex scratch of the kernel, clean (every vertex kept, no
// survivor tie known) between calls.
template <typename Policy>
struct FaultDeltaWorkspace {
  using Tie = typename Policy::Tie;

  // Grows (never shrinks) the arrays to cover n vertices.
  void ensure(Vertex n) {
    if (state_.size() >= n) return;
    base_tie_.resize(n);
    known_.resize(n, 0);
    state_.resize(n, 0);
    hops_.resize(n, kUnreachable);
    tie_.resize(n);
  }

  // Per base tree: memoized survivor ties.
  std::vector<Tie> base_tie_;
  std::vector<char> known_;
  std::vector<Vertex> known_list_, climb_;
  // 0 = keeps its base label, 1 = open (detached or improved; hops_ is its
  // pending hop, kUnreachable while none), 2 = labeled (hops_, tie_).
  std::vector<char> state_;
  std::vector<int32_t> hops_;
  std::vector<Tie> tie_;
  std::vector<Vertex> region_;  // every vertex whose state left 0
  std::vector<std::pair<int32_t, Vertex>> seeds_;
  std::vector<Vertex> queue_;
};

// Per-(thread, policy) workspace, as thread_workspace<Policy>() is for the
// sweep.
template <typename Policy>
FaultDeltaWorkspace<Policy>& thread_fault_delta_workspace() {
  thread_local FaultDeltaWorkspace<Policy> ws;
  return ws;
}

// The kernel over one base tree on g. The callers (IRpts::fault_deltas,
// IRpts::repair_tree, IRpts::batch_survives) validate the arguments: `base`
// has g's vertex count, every fault or removed edge id is < m, and every
// inserted endpoint is < n.
template <typename Policy>
class ReRelax {
 public:
  using Tie = typename Policy::Tie;

  ReRelax(const Graph& g, const Policy& policy, const Spt& base,
          FaultDeltaWorkspace<Policy>& ws)
      : g_(g), policy_(policy), base_(base), ws_(ws),
        out_dir_(base.dir == Direction::kOut) {
    ws_.ensure(g.num_vertices());
    ws_.base_tie_[base.root] = policy.zero();
    ws_.known_[base.root] = 1;
    ws_.known_list_.push_back(base.root);
  }
  // Restores the clean workspace in O(touched), also when a run threw.
  ~ReRelax();
  ReRelax(const ReRelax&) = delete;
  ReRelax& operator=(const ReRelax&) = delete;

  // The delta of T(base.root, faults, base.dir) against `base`, the
  // scheme's fault-free tree: the region vertices in the order they were
  // labeled (increasing new hops), then those F cut off.
  void fault_delta(const FaultSet& faults, FaultDelta& delta);

  // Advances `base` -- the tree for `faults` before a batch -- past the
  // batch's net removals `removed` and net inserts `inserted` (none in
  // `faults`) under the adoption rule at eps_q. An insert is read from its
  // record (endpoints, label), not from g, until the cascade scans arcs.
  // Writes the changed labels to `labels` (those derived, in hop order,
  // then those cut off) and returns the number derived, or nullopt once
  // the region or the cascade exceeds `limit` vertices or an inserted label
  // is one the policy cannot evaluate. At limit 0 it is the carry-forward
  // test, 0 iff no label changes: a removal stops at the first vertex it
  // detaches, and an insert at the first label it opens.
  std::optional<size_t> repair(const FaultSet& faults,
                               const FaultSet& removed,
                               std::span<const GraphDelta> inserted,
                               uint32_t eps_q, size_t limit,
                               FaultDelta& labels);

 private:
  // Opens the base subtrees below `cut`'s tree edges: each cut edge on the
  // base tree detaches the subtree below its lower endpoint; w is a tree
  // child of x iff w's parent edge is the arc's edge. Returns false, as
  // soon as it knows, when the region exceeds `limit` vertices.
  bool detach(const FaultSet& cut,
              size_t limit = std::numeric_limits<size_t>::max()) {
    auto& state = ws_.state_;
    auto& region = ws_.region_;
    for (const EdgeId e : cut) {
      const Edge& ed = g_.endpoints(e);
      const Vertex top = base_.parent_edge(ed.u) == e   ? ed.u
                         : base_.parent_edge(ed.v) == e ? ed.v
                                                        : kNoVertex;
      if (top == kNoVertex || state[top]) continue;
      state[top] = 1;
      region.push_back(top);
      for (size_t i = region.size() - 1; i < region.size(); ++i) {
        if (region.size() > limit) return false;
        for (const Arc& a : g_.arcs(region[i]))
          if (!state[a.to] && base_.parent_edge(a.to) == a.edge) {
            state[a.to] = 1;
            region.push_back(a.to);
          }
      }
    }
    return region.size() <= limit;
  }

  // Seeds each region vertex one hop past its nearest kept in-neighbour
  // over an arc outside `skip`.
  void seed(const FaultSet& skip) {
    for (const Vertex v : ws_.region_) {
      int32_t best = kUnreachable;
      for (const Arc& a : g_.arcs(v)) {
        const int32_t hu = ws_.state_[a.to] ? kUnreachable : base_.hops(a.to);
        if (hu == kUnreachable || (best != kUnreachable && hu + 1 >= best) ||
            skip.contains(a.edge))
          continue;
        best = hu + 1;
      }
      if (best == kUnreachable) continue;
      ws_.hops_[v] = best;
      ws_.seeds_.emplace_back(best, v);
    }
  }

  // Labels the open vertices into `out` in non-decreasing hops: the sorted
  // seeds merged with the queue, which labeling extends one hop further
  // out, so every hop-(h-1) label is final before a hop-h vertex takes its
  // parent. With `offer_eps` (the cascade) each label is then offered over
  // every arc outside `skip`. Returns false, stopping, before the label
  // past `budget`.
  bool drain(const FaultSet& skip, FaultDelta& out,
             std::optional<uint32_t> offer_eps = std::nullopt,
             size_t budget = std::numeric_limits<size_t>::max()) {
    auto& hops = ws_.hops_;
    auto& seeds = ws_.seeds_;
    auto& queue = ws_.queue_;
    std::sort(seeds.begin(), seeds.end());
    size_t next_seed = 0;
    for (size_t head = 0;;) {
      Vertex v;
      if (head < queue.size() &&
          (next_seed == seeds.size() ||
           hops[queue[head]] <= seeds[next_seed].first)) {
        v = queue[head++];
      } else if (next_seed < seeds.size()) {
        const auto [h, s] = seeds[next_seed++];
        if (h != hops[s]) continue;  // lowered since
        v = s;
      } else {
        break;
      }
      if (ws_.state_[v] == 2) continue;
      if (budget-- == 0) return false;
      out.push_back(label(v, skip));
      if (!offer_eps) continue;
      for (const Arc& a : g_.arcs(v))
        if (ws_.state_[a.to] != 1 && !skip.contains(a.edge))
          offer(v, a.to, g_.label(a.edge), a.forward, *offer_eps,
                /*as_seed=*/false);
    }
    seeds.clear();
    queue.clear();
    return true;
  }

  // Labels open vertex v at its pending hop h by the sweep's rule, and
  // queues each open neighbour over an arc outside `skip` at hop h + 1
  // unless it already has a hop that low.
  Relabel label(Vertex v, const FaultSet& skip) {
    auto& state = ws_.state_;
    auto& hops = ws_.hops_;
    const int32_t h = hops[v];
    const Arc* best = nullptr;
    Tie best_key{};
    for (const Arc& a : g_.arcs(v)) {
      const Vertex u = a.to;
      if (state[u] == 1) {
        if ((hops[u] == kUnreachable || hops[u] > h + 1) &&
            !skip.contains(a.edge)) {
          hops[u] = h + 1;
          ws_.queue_.push_back(u);
        }
        continue;
      }
      if (hops_of(u) + 1 != h || skip.contains(a.edge)) continue;
      Tie t = tie(u);  // travels a.to -> v, as the sweep extends
      policy_.accumulate(t, g_.label(a.edge),
                         out_dir_ ? !a.forward : a.forward);
      if (!best || policy_.compare(t, best_key) < 0) {
        best = &a;
        best_key = std::move(t);
      }
    }
    state[v] = 2;
    ws_.tie_[v] = std::move(best_key);
    return {v, h, best->edge};
  }

  // The adoption rule for the label s offers w across an edge labeled
  // `label`, stored from s to w iff `from_s`: an open w takes a lower
  // pending hop; a labeled or kept w opens iff the candidate
  // epsilon_improves its label under eps_q, or, at eps_q == 0, the hops tie
  // and the candidate's tie compares lower. Hops decide first, so most
  // rejected candidates skip the tie arithmetic.
  void offer(Vertex s, Vertex w, EdgeId label, bool from_s, uint32_t eps_q,
             bool as_seed) {
    auto& state = ws_.state_;
    const int32_t h = hops_of(s) + 1;
    if (state[w] == 1) {
      if (ws_.hops_[w] != kUnreachable && ws_.hops_[w] <= h) return;
    } else {
      const int32_t cur = hops_of(w);
      if (!epsilon_improves(cur, h, eps_q)) {
        if (eps_q != 0 || cur != h) return;
        Tie t = tie(s);  // travels s -> w
        policy_.accumulate(t, label, out_dir_ == from_s);
        if (policy_.compare(t, tie(w)) >= 0) return;
      }
      if (state[w] == 0) ws_.region_.push_back(w);
      state[w] = 1;
    }
    ws_.hops_[w] = h;
    if (as_seed)
      ws_.seeds_.emplace_back(h, w);
    else
      ws_.queue_.push_back(w);
  }

  // Ends a fault set or a repair: appends every region vertex still open
  // (cut off from the root) to `out` as unreachable, unless it is null,
  // then resets the region.
  void close(FaultDelta* out) {
    for (const Vertex v : ws_.region_) {
      if (out && ws_.state_[v] == 1) out->push_back({v, kUnreachable, kNoEdge});
      ws_.state_[v] = 0;
      ws_.hops_[v] = kUnreachable;
    }
    ws_.region_.clear();
    ws_.seeds_.clear();
    ws_.queue_.clear();
  }

  int32_t hops_of(Vertex u) const {
    return ws_.state_[u] ? ws_.hops_[u] : base_.hops(u);
  }

  // A labeled vertex's tie, or a kept reachable vertex's base tie.
  const Tie& tie(Vertex u) {
    if (ws_.state_[u]) return ws_.tie_[u];
    if constexpr (std::is_empty_v<Tie>) return ws_.base_tie_[base_.root];
    return ws_.known_[u] ? ws_.base_tie_[u] : climb(u);
  }

  // Memoizes u's base tie: climbs to the nearest memoized ancestor, then
  // accumulates back down, parent first.
  const Tie& climb(Vertex u) {
    auto& path = ws_.climb_;
    path.clear();
    for (Vertex x = u; !ws_.known_[x]; x = base_.parent(x)) path.push_back(x);
    for (size_t i = path.size(); i-- > 0;) {
      const Vertex x = path[i];
      const Vertex p = base_.parent(x);
      const EdgeId pe = base_.parent_edge(x);
      Tie t = ws_.base_tie_[p];
      policy_.accumulate(t, g_.label(pe),
                         out_dir_ == (g_.endpoints(pe).u == p));
      ws_.base_tie_[x] = std::move(t);
      ws_.known_[x] = 1;
      ws_.known_list_.push_back(x);
    }
    return ws_.base_tie_[u];
  }

  const Graph& g_;
  const Policy& policy_;
  const Spt& base_;
  FaultDeltaWorkspace<Policy>& ws_;
  const bool out_dir_;
};

template <typename Policy>
ReRelax<Policy>::~ReRelax() {
  close(nullptr);
  for (const Vertex x : ws_.known_list_) ws_.known_[x] = 0;
  ws_.known_list_.clear();
}

template <typename Policy>
void ReRelax<Policy>::fault_delta(const FaultSet& faults, FaultDelta& delta) {
  detach(faults);
  seed(faults);
  delta.reserve(ws_.region_.size());
  drain(faults, delta);
  close(&delta);
}

template <typename Policy>
std::optional<size_t> ReRelax<Policy>::repair(
    const FaultSet& faults, const FaultSet& removed,
    std::span<const GraphDelta> inserted, uint32_t eps_q, size_t limit,
    FaultDelta& labels) {
  if constexpr (requires { policy_.can_accumulate(EdgeId{}); }) {
    // A label the policy cannot price (a fresh slot appended after it
    // tabulated its weights) defeats the exact arithmetic.
    for (const GraphDelta& d : inserted)
      if (!policy_.can_accumulate(d.label)) return std::nullopt;
  }
  labels.clear();
  if (!detach(removed, limit)) return std::nullopt;

  // Phase R: the removals as a fault set of the graph before the inserts.
  if (!ws_.region_.empty()) {
    FaultSet before = faults;
    for (const GraphDelta& d : inserted) before.insert(d.edge);
    seed(before);
    drain(before, labels);
  }

  // Cascade seeds: region labels that came back lower (only approximate
  // old labels can), then both directions of every inserted edge.
  auto& state = ws_.state_;
  for (const Vertex v : ws_.region_)
    if (state[v] == 2 && ws_.hops_[v] < base_.hops(v)) {
      state[v] = 1;
      ws_.seeds_.emplace_back(ws_.hops_[v], v);
    }
  for (const GraphDelta& d : inserted)
    for (const auto& [s, w] : {std::pair{d.u, d.v}, std::pair{d.v, d.u}})
      if (state[s] != 1 && hops_of(s) != kUnreachable)
        offer(s, w, d.label, s == d.u, eps_q, /*as_seed=*/true);
  if (!drain(faults, labels, eps_q, limit)) return std::nullopt;
  const size_t touched = labels.size();
  close(&labels);
  return touched;
}

// The library's policies compile the kernel once, in engine/fault_delta.cc,
// so an includer's inlining budget stays its own and the kernel's code
// does not depend on which includer's copy the linker keeps.
extern template class ReRelax<IsolationAtw>;
extern template class ReRelax<RandomRealAtw>;
extern template class ReRelax<DeterministicAtw>;
extern template class ReRelax<HopsOnly>;

}  // namespace restorable
