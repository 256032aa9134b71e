#include "labeling/labels.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

#include "graph/bfs.h"
#include "preserver/ft_preserver.h"

namespace restorable {

namespace {

size_t bits_for(Vertex n) {
  size_t b = 1;
  while ((Vertex{1} << b) < n) ++b;
  return b;
}

}  // namespace

size_t DistanceLabel::bits() const {
  return edges.size() * 2 * bits_for(std::max<Vertex>(n, 2));
}

FtDistanceLabeling::FtDistanceLabeling(const IRpts& pi, int f,
                                       const BatchSsspEngine* engine)
    : f_(f) {
  const Graph& g = pi.graph();
  labels_.resize(g.num_vertices());
  // One {v} x V preserver per vertex; the builds are independent, so the
  // outer loop is the unit of parallelism (the nested base-tree batch inside
  // build_sv_preserver then runs inline on the owning thread, and its fault
  // deltas on that thread's workspace).
  const BatchSsspEngine& eng = BatchSsspEngine::or_shared(engine);
  eng.parallel_for(g.num_vertices(), [&](size_t vi) {
    const Vertex v = static_cast<Vertex>(vi);
    const Vertex sources[1] = {v};
    const EdgeSubset pres = build_sv_preserver(pi, sources, f, nullptr, &eng);
    DistanceLabel& lab = labels_[v];
    lab.owner = v;
    lab.n = g.num_vertices();
    for (EdgeId e : pres.edge_ids()) lab.edges.push_back(g.endpoints(e));
  });
}

size_t FtDistanceLabeling::max_label_bits() const {
  size_t best = 0;
  for (const auto& l : labels_) best = std::max(best, l.bits());
  return best;
}

double FtDistanceLabeling::avg_label_bits() const {
  if (labels_.empty()) return 0;
  double total = 0;
  for (const auto& l : labels_) total += static_cast<double>(l.bits());
  return total / static_cast<double>(labels_.size());
}

int32_t FtDistanceLabeling::query(const DistanceLabel& ls,
                                  const DistanceLabel& lt,
                                  std::span<const Edge> faults) {
  // Decode: union of the two edge lists, minus F, then BFS. Everything is
  // reconstructed from label contents only.
  auto norm = [](Edge e) {
    if (e.u > e.v) std::swap(e.u, e.v);
    return std::pair<Vertex, Vertex>{e.u, e.v};
  };
  std::vector<std::pair<Vertex, Vertex>> banned;
  banned.reserve(faults.size());
  for (const Edge& e : faults) banned.push_back(norm(e));
  std::sort(banned.begin(), banned.end());

  std::vector<std::pair<Vertex, Vertex>> keys;
  std::vector<Edge> union_edges;
  keys.reserve(ls.edges.size() + lt.edges.size());
  for (const auto* lab : {&ls, &lt}) {
    for (const Edge& e : lab->edges) {
      const auto k = norm(e);
      if (std::binary_search(banned.begin(), banned.end(), k)) continue;
      keys.push_back(k);
    }
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  union_edges.reserve(keys.size());
  for (const auto& [u, v] : keys) union_edges.push_back({u, v});

  const Graph h(std::max(ls.n, lt.n), std::move(union_edges));
  return bfs_distance(h, ls.owner, lt.owner);
}

std::string encode_label(const DistanceLabel& label) {
  std::string out = "RSPL1 ";
  out.append(std::to_string(label.owner)).append(" ");
  out.append(std::to_string(label.n)).append(" ");
  out.append(std::to_string(label.edges.size()));
  for (const Edge& e : label.edges)
    out.append("\n").append(std::to_string(e.u)).append(" ").append(
        std::to_string(e.v));
  return out;
}

DistanceLabel decode_label(const std::string& wire) {
  std::istringstream ss(wire);
  std::string magic;
  DistanceLabel label;
  size_t k = 0;
  if (!(ss >> magic >> label.owner >> label.n >> k) || magic != "RSPL1")
    throw std::runtime_error("decode_label: bad header");
  label.edges.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    Edge e;
    if (!(ss >> e.u >> e.v))
      throw std::runtime_error("decode_label: truncated edge list");
    label.edges.push_back(e);
  }
  return label;
}

}  // namespace restorable
