#include "graph/bfs.h"

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <string>

namespace restorable {

namespace {

void check_vertex(const Graph& g, Vertex v, const char* who) {
  if (v >= g.num_vertices())
    throw std::out_of_range(std::string(who) + ": vertex " +
                            std::to_string(v) + " out of range");
}

}  // namespace

std::vector<int32_t> bfs_distances(const Graph& g, Vertex s,
                                   const FaultSet& faults) {
  check_vertex(g, s, "bfs_distances");
  std::vector<int32_t> dist(g.num_vertices(), kUnreachable);
  std::vector<Vertex> frontier{s}, next;
  dist[s] = 0;
  int32_t level = 0;
  while (!frontier.empty()) {
    ++level;
    next.clear();
    for (Vertex v : frontier)
      for (const Arc& a : g.arcs(v)) {
        if (faults.contains(a.edge)) continue;
        if (dist[a.to] == kUnreachable) {
          dist[a.to] = level;
          next.push_back(a.to);
        }
      }
    frontier.swap(next);
  }
  return dist;
}

int32_t bfs_distance(const Graph& g, Vertex s, Vertex t,
                     const FaultSet& faults) {
  check_vertex(g, s, "bfs_distance");
  check_vertex(g, t, "bfs_distance");
  if (s == t) return 0;
  std::vector<int32_t> dist(g.num_vertices(), kUnreachable);
  std::vector<Vertex> frontier{s}, next;
  dist[s] = 0;
  int32_t level = 0;
  while (!frontier.empty()) {
    ++level;
    next.clear();
    for (Vertex v : frontier)
      for (const Arc& a : g.arcs(v)) {
        if (faults.contains(a.edge)) continue;
        if (dist[a.to] == kUnreachable) {
          if (a.to == t) return level;
          dist[a.to] = level;
          next.push_back(a.to);
        }
      }
    frontier.swap(next);
  }
  return kUnreachable;
}

Path bfs_path(const Graph& g, Vertex s, Vertex t, const FaultSet& faults) {
  check_vertex(g, s, "bfs_path");
  check_vertex(g, t, "bfs_path");
  std::vector<Vertex> parent(g.num_vertices(), kNoVertex);
  std::vector<EdgeId> parent_edge(g.num_vertices(), kNoEdge);
  std::vector<char> seen(g.num_vertices(), 0);
  std::queue<Vertex> q;
  q.push(s);
  seen[s] = 1;
  while (!q.empty() && !seen[t]) {
    const Vertex v = q.front();
    q.pop();
    for (const Arc& a : g.arcs(v)) {
      if (faults.contains(a.edge) || seen[a.to]) continue;
      seen[a.to] = 1;
      parent[a.to] = v;
      parent_edge[a.to] = a.edge;
      q.push(a.to);
    }
  }
  if (!seen[t]) return {};
  Path p;
  for (Vertex v = t; v != s; v = parent[v]) {
    p.vertices.push_back(v);
    p.edges.push_back(parent_edge[v]);
  }
  p.vertices.push_back(s);
  std::reverse(p.vertices.begin(), p.vertices.end());
  std::reverse(p.edges.begin(), p.edges.end());
  return p;
}

bool is_connected(const Graph& g, const FaultSet& faults) {
  if (g.num_vertices() == 0) return true;
  const auto dist = bfs_distances(g, 0, faults);
  return std::none_of(dist.begin(), dist.end(),
                      [](int32_t d) { return d == kUnreachable; });
}

int32_t eccentricity(const Graph& g, Vertex s) {
  const auto dist = bfs_distances(g, s);
  int32_t ecc = 0;
  for (int32_t d : dist) {
    if (d == kUnreachable) return kUnreachable;
    ecc = std::max(ecc, d);
  }
  return ecc;
}

int32_t diameter(const Graph& g) {
  int32_t diam = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const int32_t ecc = eccentricity(g, v);
    if (ecc == kUnreachable) return kUnreachable;
    diam = std::max(diam, ecc);
  }
  return diam;
}

}  // namespace restorable
