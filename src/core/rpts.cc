#include "core/rpts.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "engine/batch_sssp.h"

namespace restorable {

namespace {

// Throws std::invalid_argument unless `tree` fits g: g's vertex count and a
// root inside it. Every kernel array is indexed by the tree's vertices.
void check_tree_fits(const Graph& g, const Spt& tree, const char* who) {
  if (tree.num_vertices() != g.num_vertices() ||
      tree.root >= g.num_vertices())
    throw std::invalid_argument(
        std::string(who) + ": tree (root " + std::to_string(tree.root) +
        ", " + std::to_string(tree.num_vertices()) +
        " vertices) does not fit a graph of " +
        std::to_string(g.num_vertices()) + " vertices");
}

// The batch's net deltas as the tree for `faults` feels them: removed edge
// ids and insert records. A delta on a faulted edge never matters (the edge
// is excluded from G \ F either way), and a flap healed inside the batch
// has no net entry at all. First the checks the kernel relies on: the tree
// fits g, fault and removed ids are < m, inserted endpoints are < n.
std::pair<FaultSet, std::vector<GraphDelta>> net_deltas(
    const Graph& g, const Spt& tree, const DeltaBatch& batch,
    const FaultSet& faults, const char* who) {
  check_tree_fits(g, tree, who);
  check_fault_ids(g, faults, who);
  FaultSet removed;
  std::vector<GraphDelta> inserted;
  for (const GraphDelta& d : batch.net) {
    const bool remove = d.kind == GraphDelta::Kind::kRemove;
    if (remove ? d.edge >= g.num_edges()
               : d.u >= g.num_vertices() || d.v >= g.num_vertices())
      throw std::out_of_range(std::string(who) + ": delta on edge " +
                              std::to_string(d.edge) + " out of range");
    if (faults.contains(d.edge)) continue;
    if (remove)
      removed.insert(d.edge);
    else
      inserted.push_back(d);
  }
  return {std::move(removed), std::move(inserted)};
}

}  // namespace

template <>
Rpts<IsolationAtw>::Rpts(const Graph& g, IsolationAtw policy)
    : g_(&g), policy_(std::move(policy)) {
  // n - 1 is taken as >= 1, so that 2W + 1 (IsolationAtw) fits as well.
  const int64_t n = g.num_vertices(), w = policy_.weight_range();
  if (w <= 0 || w > ((int64_t{1} << 62) - 1) / (std::max<int64_t>(n, 2) - 1))
    throw std::invalid_argument(
        "Rpts<IsolationAtw>: weight range " + std::to_string(w) +
        " needs 0 < W and (n - 1) * W < 2^62 for n = " + std::to_string(n));
}

uint64_t IRpts::next_scheme_id() {
  // Process-unique instance ids; never reused, so a stale cache entry can
  // only miss, never alias a different scheme's trees.
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

IRpts::IRpts() : scheme_id_(next_scheme_id()) {}

std::vector<SptHandle> IRpts::spt_batch(std::span<const SsspRequest> requests,
                                        const BatchSsspEngine* engine) const {
  // Generic fan-out for schemes without a batch fast path (ArbitraryRpts):
  // each request still runs on the engine's pool, results in request order.
  std::vector<Spt> out(requests.size());
  BatchSsspEngine::or_shared(engine).parallel_for(
      requests.size(), [&](size_t i) {
        out[i] = spt(requests[i].root, requests[i].faults, requests[i].dir);
      });
  return share_spts(std::move(out));
}

std::vector<FaultDelta> IRpts::fault_deltas(
    const Spt& base, std::span<const SsspRequest> requests) const {
  const Graph& g = graph();
  check_tree_fits(g, base, "IRpts::fault_deltas");
  for (const SsspRequest& req : requests) {
    if (req.root != base.root || req.dir != base.dir)
      throw std::invalid_argument(
          "IRpts::fault_deltas: request root " + std::to_string(req.root) +
          " or direction differs from the base tree's (root " +
          std::to_string(base.root) + ")");
    if (req.eps_q)
      throw std::invalid_argument(
          "IRpts::fault_deltas: approximate-tier request (eps_q " +
          std::to_string(req.eps_q) + ")");
    check_fault_ids(g, req.faults, "IRpts::fault_deltas");
  }
  return compute_fault_deltas(base, requests);
}

std::vector<FaultDelta> IRpts::compute_fault_deltas(
    const Spt& base, std::span<const SsspRequest> requests) const {
  std::vector<FaultDelta> out(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const Spt tree = spt(base.root, requests[i].faults, base.dir);
    for (Vertex v = 0; v < base.num_vertices(); ++v)
      if (tree.hops(v) != base.hops(v) ||
          tree.parent_edge(v) != base.parent_edge(v))
        out[i].push_back({v, tree.hops(v), tree.parent_edge(v)});
  }
  return out;
}

bool IRpts::batch_survives(const DeltaBatch& batch, const Spt& tree,
                           const FaultSet& faults, uint32_t eps_q) const {
  const auto [removed, inserted] =
      net_deltas(graph(), tree, batch, faults, "IRpts::batch_survives");
  FaultDelta none;
  return rerelax(tree, faults, removed, inserted, eps_q, /*limit=*/0,
                 none) == size_t{0};
}

RepairOutcome IRpts::repair_tree(const Spt& old_tree, const DeltaBatch& batch,
                                 const FaultSet& faults,
                                 double max_affected_fraction,
                                 uint32_t eps_q) const {
  const Graph& g = graph();
  const auto [removed, inserted] =
      net_deltas(g, old_tree, batch, faults, "IRpts::repair_tree");
  const Vertex n = g.num_vertices();
  // Affected-region ceiling: a fraction >= 1 never falls back; a NaN or
  // negative one gets the minimum allowance (and no UB float cast).
  const size_t limit =
      max_affected_fraction >= 1.0
          ? std::numeric_limits<size_t>::max()
          : std::max<size_t>(8, max_affected_fraction > 0.0
                                    ? static_cast<size_t>(
                                          max_affected_fraction *
                                          static_cast<double>(n))
                                    : 0);
  FaultDelta labels;
  const std::optional<size_t> touched =
      rerelax(old_tree, faults, removed, inserted, eps_q, limit, labels);
  RepairOutcome out;
  if (!touched) {
    // A from-scratch exact recompute: the tree itself on the exact tier, and
    // a valid approximate tree too (exact labels satisfy F at any eps).
    out.tree = spt(old_tree.root, faults, old_tree.dir);
    out.touched = n;
    return out;
  }
  out.repaired = true;
  out.touched = *touched;
  if (labels.empty()) {
    out.tree = old_tree;
    return out;
  }
  // The old labels overwritten by the new ones, encoded against THIS
  // graph's endpoint table: the cached tree may hold the table from before
  // a fresh-slot append (Graph::edges_mut clones when shared), and the
  // cascade writes the new slot ids into parent_edge. Slots are append-only
  // with preserved endpoint order, so the current table is valid for every
  // old id too.
  thread_local std::vector<int32_t> hops;
  thread_local std::vector<EdgeId> parent_edge;
  hops.resize(n);
  parent_edge.resize(n);
  for (Vertex v = 0; v < n; ++v) {
    hops[v] = old_tree.hops(v);
    parent_edge[v] = old_tree.parent_edge(v);
  }
  for (const Relabel& r : labels) {
    hops[r.v] = r.hops;
    parent_edge[r.v] = r.parent_edge;
  }
  Spt::encode(old_tree.root, old_tree.dir, hops, parent_edge,
              g.shared_endpoints(), out.tree);
  return out;
}

std::optional<size_t> IRpts::rerelax(const Spt& tree, const FaultSet& faults,
                                     const FaultSet& removed,
                                     std::span<const GraphDelta> inserted,
                                     uint32_t eps_q, size_t limit,
                                     FaultDelta& labels) const {
  if (!eps_q) {
    if (!inserted.empty()) return std::nullopt;
    limit = 0;
  }
  static constexpr HopsOnly kHopsOnly{};
  ReRelax<HopsOnly> kernel(graph(), kHopsOnly, tree,
                           thread_fault_delta_workspace<HopsOnly>());
  return kernel.repair(faults, removed, inserted, eps_q, limit, labels);
}

Spt ArbitraryRpts::spt(Vertex root, const FaultSet& faults,
                       Direction dir) const {
  // The tree itself is direction-independent (the scheme selects the same
  // undirected path for both orientations); `dir` only controls which way
  // extracted paths are oriented.
  const Graph& g = *g_;
  const Vertex n = g.num_vertices();
  if (root >= n)
    throw std::out_of_range("ArbitraryRpts::spt: root " +
                            std::to_string(root) + " out of range");
  check_fault_ids(g, faults, "ArbitraryRpts::spt");
  std::vector<int32_t> hops(n, kUnreachable);
  std::vector<Vertex> parent(n, kNoVertex);
  std::vector<EdgeId> parent_edge(n, kNoEdge);
  hops[root] = 0;

  // Layered BFS; each newly discovered vertex picks the smallest-id parent
  // in the previous layer (and smallest edge id among parallel options),
  // making the scheme deterministic.
  std::vector<Vertex> frontier{root}, next;
  int32_t level = 0;
  while (!frontier.empty()) {
    ++level;
    next.clear();
    for (Vertex v : frontier) {
      for (const Arc& a : g.arcs(v)) {
        if (faults.contains(a.edge)) continue;
        if (hops[a.to] == kUnreachable) {
          hops[a.to] = level;
          parent[a.to] = v;
          parent_edge[a.to] = a.edge;
          next.push_back(a.to);
        } else if (hops[a.to] == level &&
                   (v < parent[a.to] ||
                    (v == parent[a.to] && a.edge < parent_edge[a.to]))) {
          parent[a.to] = v;
          parent_edge[a.to] = a.edge;
        }
      }
    }
    frontier.swap(next);
  }
  Spt t;
  Spt::encode(root, dir, hops, parent_edge, g.shared_endpoints(), t);
  return t;
}

}  // namespace restorable
