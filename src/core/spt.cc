#include "core/spt.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace restorable {

Path Spt::path_to(Vertex v) const {
  if (!reachable(v)) return {};
  Path p;
  for (Vertex x = v; x != root; x = parent(x)) {
    p.vertices.push_back(x);
    p.edges.push_back(parent_edge(x));
  }
  p.vertices.push_back(root);
  if (dir == Direction::kOut) {
    std::reverse(p.vertices.begin(), p.vertices.end());
    std::reverse(p.edges.begin(), p.edges.end());
  }
  // kIn trees already list v first (path travels v -> root).
  return p;
}

bool Spt::path_avoids(Vertex t, const FaultSet& faults) const {
  if (!reachable(t)) return true;
  // A fault on the path is the parent edge of an ancestor c of t, so c is
  // one of its endpoints and hops(c) <= hops(t). The walk need not climb
  // above the shallowest such candidate; with none it does not start. (A
  // fault newer than the endpoint table is no edge of this tree.)
  int32_t top = hops(t) + 1;
  for (const EdgeId f : faults) {
    if (f >= endpoints_->size()) continue;
    for (const Vertex c : {(*endpoints_)[f].u, (*endpoints_)[f].v})
      if (parent_edge(c) == f) top = std::min(top, hops(c));
  }
  for (Vertex x = t; hops(x) >= top; x = parent(x))
    if (faults.contains(parent_edge(x))) return false;
  return true;
}

bool Spt::uses_edge(EdgeId e) const {
  // Unreachable vertices hold kNoEdge, which never equals a real edge id.
  return std::find(parent_edge_.begin(), parent_edge_.end(), e) !=
         parent_edge_.end();
}

std::vector<char> Spt::paths_using_edge(EdgeId e) const {
  std::vector<char> uses(num_vertices(), 0);
  for (Vertex v : top_order()) {
    if (v == root) continue;
    uses[v] = uses[parent(v)] || parent_edge(v) == e;
  }
  return uses;
}

std::vector<char> Spt::paths_using_any(const FaultSet& faults) const {
  std::vector<char> uses(num_vertices(), 0);
  for (Vertex v : top_order()) {
    if (v == root) continue;
    uses[v] = uses[parent(v)] || faults.contains(parent_edge(v));
  }
  return uses;
}

std::vector<EdgeId> Spt::tree_edges() const {
  // kNoEdge marks exactly the root and the unreachable vertices.
  std::vector<EdgeId> out;
  out.reserve(parent_edge_.size());
  for (const EdgeId pe : parent_edge_)
    if (pe != kNoEdge) out.push_back(pe);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<Vertex> Spt::top_order() const {
  // Counting sort by hops, ties by id: O(stored). A parent has strictly
  // fewer hops than its child, so it always comes first.
  const Vertex stored = static_cast<Vertex>(parent_edge_.size());
  std::vector<Vertex> start;  // start[h + 1] counts, then prefix-sums
  for (Vertex v = 0; v < stored; ++v) {
    const int32_t h = hops(v);
    if (h == kUnreachable) continue;
    if (static_cast<size_t>(h) + 2 > start.size()) start.resize(h + 2, 0);
    ++start[h + 1];
  }
  for (size_t h = 1; h < start.size(); ++h) start[h] += start[h - 1];
  std::vector<Vertex> order(start.empty() ? 0 : start.back());
  for (Vertex v = 0; v < stored; ++v) {
    const int32_t h = hops(v);
    if (h != kUnreachable) order[start[h]++] = v;
  }
  return order;
}

size_t Spt::memory_bytes() const {
  // The inactive hop array is swap-released to capacity 0 by encode(), so
  // the sum is exact whichever width is live. The shared endpoint table is
  // excluded (owned by the graph, shared across trees).
  return sizeof(Spt) + narrow_hops_.capacity() * sizeof(uint16_t) +
         wide_hops_.capacity() * sizeof(int32_t) +
         parent_edge_.capacity() * sizeof(EdgeId);
}

void Spt::encode(Vertex root, Direction dir, std::span<const int32_t> hops,
                 std::span<const EdgeId> parent_edge,
                 std::shared_ptr<const std::vector<Edge>> endpoints,
                 Spt& out) {
  if (hops.size() != parent_edge.size())
    throw std::logic_error("Spt::encode: label arrays differ in length");
  size_t stored = hops.size();  // one past the last reachable vertex
  while (stored > 0 && hops[stored - 1] == kUnreachable) --stored;
  // One branch-free pass for both checks. pe + 1 wraps kNoEdge to 0, so
  // every parent edge is describable iff max(pe + 1) <= the table size.
  const size_t table = endpoints ? endpoints->size() : 0;
  int32_t max_hop = 0;
  EdgeId max_pe_end = 0;
  for (size_t v = 0; v < stored; ++v) {
    max_hop = std::max(max_hop, hops[v]);
    max_pe_end = std::max(max_pe_end, static_cast<EdgeId>(parent_edge[v] + 1));
  }
  if (max_pe_end > table)
    throw std::logic_error(
        "Spt::encode: parent edge beyond the endpoint table");
  out.root = root;
  out.dir = dir;
  out.n_ = static_cast<Vertex>(hops.size());
  out.endpoints_ = std::move(endpoints);
  // assign() / resize() from empty allocate exactly `stored` when the
  // capacity falls short, and reuse it otherwise.
  out.parent_edge_.assign(parent_edge.begin(), parent_edge.begin() + stored);
  if (max_hop < kNarrowUnreachable) {
    std::vector<int32_t>().swap(out.wide_hops_);
    out.narrow_hops_.clear();
    out.narrow_hops_.resize(stored);
    // kUnreachable (-1) narrows to the sentinel 0xFFFF.
    for (size_t v = 0; v < stored; ++v)
      out.narrow_hops_[v] = static_cast<uint16_t>(hops[v]);
  } else {
    std::vector<uint16_t>().swap(out.narrow_hops_);
    out.wide_hops_.assign(hops.begin(), hops.begin() + stored);
  }
}

}  // namespace restorable
