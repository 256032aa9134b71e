#include "graph/graph.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace restorable {

bool Path::uses_edge(EdgeId e) const {
  return std::find(edges.begin(), edges.end(), e) != edges.end();
}

bool Path::uses_vertex(Vertex v) const {
  return std::find(vertices.begin(), vertices.end(), v) != vertices.end();
}

void Path::concatenate(const Path& other) {
  if (other.empty()) return;
  if (empty()) {
    *this = other;
    return;
  }
  assert(target() == other.source());
  vertices.insert(vertices.end(), other.vertices.begin() + 1,
                  other.vertices.end());
  edges.insert(edges.end(), other.edges.begin(), other.edges.end());
}

Path Path::reversed() const {
  Path r;
  r.vertices.assign(vertices.rbegin(), vertices.rend());
  r.edges.assign(edges.rbegin(), edges.rend());
  return r;
}

std::string Path::to_string() const {
  std::ostringstream ss;
  for (size_t i = 0; i < vertices.size(); ++i) {
    if (i) ss << " -> ";
    ss << vertices[i];
  }
  return ss.str();
}

FaultSet::FaultSet(std::initializer_list<EdgeId> ids)
    : FaultSet(std::vector<EdgeId>(ids)) {}

FaultSet::FaultSet(std::vector<EdgeId> ids) : ids_(std::move(ids)) {
  std::sort(ids_.begin(), ids_.end());
  ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
}

void FaultSet::insert(EdgeId e) {
  auto it = std::lower_bound(ids_.begin(), ids_.end(), e);
  if (it == ids_.end() || *it != e) ids_.insert(it, e);
}

void FaultSet::erase(EdgeId e) {
  auto it = std::lower_bound(ids_.begin(), ids_.end(), e);
  if (it != ids_.end() && *it == e) ids_.erase(it);
}

FaultSet FaultSet::with(EdgeId e) const {
  FaultSet f = *this;
  f.insert(e);
  return f;
}

FaultSet FaultSet::without(EdgeId e) const {
  FaultSet f = *this;
  f.erase(e);
  return f;
}

std::string FaultSet::to_string() const {
  std::ostringstream ss;
  ss << '{';
  for (size_t i = 0; i < ids_.size(); ++i) {
    if (i) ss << ',';
    ss << ids_[i];
  }
  ss << '}';
  return ss.str();
}

Graph::Graph(Vertex n, std::vector<Edge> edges, std::vector<EdgeId> labels)
    : n_(n),
      edges_(std::make_shared<std::vector<Edge>>(std::move(edges))),
      labels_(std::move(labels)) {
  for (const Edge& e : *edges_) {
    if (e.u == e.v) throw std::invalid_argument("self-loops are not allowed");
    if (e.u >= n_ || e.v >= n_)
      throw std::invalid_argument("edge endpoint out of range");
  }
  if (labels_.empty()) {
    labels_.resize(edges_->size());
    for (EdgeId e = 0; e < edges_->size(); ++e) labels_[e] = e;
  }
  if (labels_.size() != edges_->size())
    throw std::invalid_argument("labels/edges size mismatch");
  build_csr();
}

void Graph::build_csr() {
  const std::vector<Edge>& edges = *edges_;
  offsets_.assign(n_ + 1, 0);
  for (EdgeId e = 0; e < edges.size(); ++e) {
    if (!edge_present(e)) continue;
    ++offsets_[edges[e].u + 1];
    ++offsets_[edges[e].v + 1];
  }
  for (Vertex v = 0; v < n_; ++v) offsets_[v + 1] += offsets_[v];
  arcs_.resize(2 * (edges.size() - absent_));
  // Fill using offsets_ itself as the cursor (no scratch allocation -- this
  // runs once per pooled-subgraph rebuild and once per mutation), then shift
  // the ends back down one slot to restore the start offsets.
  for (EdgeId e = 0; e < edges.size(); ++e) {
    if (!edge_present(e)) continue;
    const Edge& ed = edges[e];
    arcs_[offsets_[ed.u]++] = Arc{ed.v, e, /*forward=*/true};
    arcs_[offsets_[ed.v]++] = Arc{ed.u, e, /*forward=*/false};
  }
  for (Vertex v = n_; v > 0; --v) offsets_[v] = offsets_[v - 1];
  offsets_[0] = 0;
}

bool Graph::apply_one(GraphDelta& delta) {
  if (delta.kind == GraphDelta::Kind::kRemove) {
    const EdgeId e = delta.edge;
    if (e >= num_edges()) throw std::invalid_argument("remove: edge id out of range");
    // Record the slot whether or not this is a no-op, so the caller's delta
    // is always a complete description of the edge it names.
    delta.u = endpoints(e).u;
    delta.v = endpoints(e).v;
    delta.label = labels_[e];
    if (!edge_present(e)) return false;  // already absent: no-op
    if (present_.empty()) present_.assign(edges_->size(), 1);
    present_[e] = 0;
    ++absent_;
    return true;
  }

  // Insert.
  const Vertex u = delta.u, v = delta.v;
  if (u == v) throw std::invalid_argument("insert: self-loops are not allowed");
  if (u >= n_ || v >= n_)
    throw std::invalid_argument("insert: endpoint out of range");
  // A present {u, v} edge makes this a no-op; a tombstoned one is
  // resurrected in place, keeping its id, label and stored endpoint order
  // (the orientation the antisymmetric weight is defined on).
  EdgeId tomb = kNoEdge;
  for (EdgeId e = 0; e < edges_->size(); ++e) {
    const Edge& ed = (*edges_)[e];
    if (!((ed.u == u && ed.v == v) || (ed.u == v && ed.v == u))) continue;
    if (edge_present(e)) {
      delta.edge = e;
      delta.u = ed.u;
      delta.v = ed.v;
      delta.label = labels_[e];
      return false;
    }
    tomb = e;
    break;
  }
  if (tomb != kNoEdge) {
    present_[tomb] = 1;
    --absent_;
    delta.edge = tomb;
    delta.u = endpoints(tomb).u;
    delta.v = endpoints(tomb).v;
    delta.label = labels_[tomb];
  } else {
    const EdgeId e = static_cast<EdgeId>(edges_->size());
    // A fresh slot needs a label no existing edge holds -- per-label
    // tiebreak weights must stay distinct -- so take one past the largest.
    // On identity-labeled graphs (the default) that is exactly the slot
    // index.
    EdgeId fresh_label = 0;
    for (EdgeId l : labels_) fresh_label = std::max(fresh_label, l + 1);
    edges_mut().push_back(Edge{u, v});
    labels_.push_back(fresh_label);
    if (!present_.empty()) present_.push_back(1);
    delta.edge = e;
    delta.label = fresh_label;
  }
  return true;
}

bool Graph::apply(GraphDelta& delta) {
  if (!apply_one(delta)) return false;
  build_csr();
  ++epoch_;
  return true;
}

DeltaBatch Graph::apply(std::span<const GraphDelta> deltas) {
  DeltaBatch batch;
  batch.old_epoch = epoch_;
  batch.deltas.reserve(deltas.size());

  // Presence of every touched slot *before* the batch, keyed by edge id in
  // first-touch order. The first *effective* delta on a slot tells its
  // prior presence exactly: a removal that changed something removed a
  // present edge, an insert that changed something filled an absent slot
  // (tombstone or fresh append alike).
  std::vector<std::pair<EdgeId, bool>> before;
  auto record_touch = [&](const GraphDelta& d) {
    for (const auto& [id, was] : before)
      if (id == d.edge) return;
    before.emplace_back(d.edge, d.kind == GraphDelta::Kind::kRemove);
  };

  // All-or-nothing: a throwing delta rolls the batch back to the state
  // below. Deltas only append slots and flip presence, and the CSR and
  // epoch are untouched until every delta has landed, so restoring the
  // sizes, the absent count and the presence of each touched slot is exact.
  const size_t m0 = edges_->size();
  const bool had_presence = !present_.empty();
  const EdgeId absent0 = absent_;

  bool any_changed = false;
  for (const GraphDelta& in : deltas) {
    GraphDelta d = in;
    try {
      const bool changed = apply_one(d);
      if (changed) record_touch(d);
      any_changed |= changed;
    } catch (...) {
      if (edges_->size() != m0) edges_mut().resize(m0);
      labels_.resize(m0);
      if (had_presence) {
        present_.resize(m0);
        for (const auto& [e, was_present] : before)
          if (e < m0) present_[e] = was_present;
      } else {
        present_.clear();
      }
      absent_ = absent0;
      throw;
    }
    batch.deltas.push_back(d);
  }
  batch.new_epoch = batch.old_epoch;
  if (any_changed) {
    build_csr();
    batch.new_epoch = ++epoch_;
  }

  // Net-effect collapse: a slot whose presence is unchanged end-to-end
  // (removed then re-added, or appended then re-removed) contributes no net
  // delta -- downstream survival tests never see it.
  for (const auto& [e, was_present] : before) {
    const bool is_present = edge_present(e);
    if (was_present == is_present) continue;
    GraphDelta net;
    net.kind = is_present ? GraphDelta::Kind::kInsert : GraphDelta::Kind::kRemove;
    net.edge = e;
    net.u = endpoints(e).u;
    net.v = endpoints(e).v;
    net.label = labels_[e];
    batch.net.push_back(net);
  }
  return batch;
}

EdgeId Graph::add_edge(Vertex u, Vertex v) {
  GraphDelta d = GraphDelta::insert(u, v);
  apply(d);
  return d.edge;
}

bool Graph::remove_edge(EdgeId e) {
  GraphDelta d = GraphDelta::remove(e);
  return apply(d);
}

EdgeId Graph::find_edge(Vertex u, Vertex v) const {
  if (degree(u) > degree(v)) std::swap(u, v);
  for (const Arc& a : arcs(u))
    if (a.to == v) return a.edge;
  return kNoEdge;
}

Graph Graph::edge_subgraph(std::span<const EdgeId> edge_ids) const {
  std::vector<Edge> edges;
  std::vector<EdgeId> labels;
  for (EdgeId e : edge_ids) {
    edges.push_back(endpoints(e));
    labels.push_back(labels_[e]);
  }
  return Graph(n_, std::move(edges), std::move(labels));
}

GraphSnapshot Graph::snapshot() const {
  return std::make_shared<const Graph>(*this);
}

bool Graph::is_valid_path(const Path& p, const FaultSet& faults) const {
  if (p.empty()) return false;
  if (p.edges.size() + 1 != p.vertices.size()) return false;
  for (size_t i = 0; i < p.edges.size(); ++i) {
    const EdgeId e = p.edges[i];
    if (e >= num_edges() || !edge_present(e)) return false;
    if (faults.contains(e)) return false;
    const Edge& ed = endpoints(e);
    const Vertex a = p.vertices[i], b = p.vertices[i + 1];
    if (!((ed.u == a && ed.v == b) || (ed.u == b && ed.v == a))) return false;
  }
  return true;
}

}  // namespace restorable
