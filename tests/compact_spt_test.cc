// The one stored tree layout: Spt::encode must read back every label it was
// given (parent(v) derived from the endpoint table), truncate at the last
// reachable vertex, store hops narrow (u16, 6 bytes/vertex) unless the
// tree's maximum hop needs the wide int32 variant (8 bytes/vertex), reject
// a parent edge its table cannot describe, and let a fixed cache budget
// hold about twice the trees the retired 12 bytes/vertex layout did.
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/rpts.h"
#include "engine/batch_sssp.h"
#include "graph/generators.h"
#include "serve/spt_cache.h"

namespace restorable {
namespace {

// Plain BFS labels (lowest arc first) over g: the raw hops / parent_edge
// arrays a tree producer hands to Spt::encode.
struct Labels {
  std::vector<int32_t> hops;
  std::vector<EdgeId> parent_edge;
};

Labels bfs_labels(const Graph& g, Vertex root) {
  Labels l{std::vector<int32_t>(g.num_vertices(), kUnreachable),
           std::vector<EdgeId>(g.num_vertices(), kNoEdge)};
  l.hops[root] = 0;
  std::vector<Vertex> queue{root};
  for (size_t i = 0; i < queue.size(); ++i) {
    const Vertex v = queue[i];
    for (const Arc& a : g.arcs(v)) {
      if (l.hops[a.to] != kUnreachable) continue;
      l.hops[a.to] = l.hops[v] + 1;
      l.parent_edge[a.to] = a.edge;
      queue.push_back(a.to);
    }
  }
  return l;
}

Vertex other_end(const Graph& g, EdgeId e, Vertex v) {
  const Edge& ed = g.endpoints(e);
  return ed.u == v ? ed.v : ed.u;
}

TEST(SptLayout, EncodeReadsBackRawLabels) {
  // gnp at this density leaves some vertices (interior ids and the tail)
  // outside the root's component.
  const Graph g = gnp(80, 0.03, 5);
  for (Vertex root : {Vertex{0}, Vertex{41}}) {
    for (Direction dir : {Direction::kOut, Direction::kIn}) {
      const Labels l = bfs_labels(g, root);
      Spt t;
      Spt::encode(root, dir, l.hops, l.parent_edge, g.shared_endpoints(), t);
      EXPECT_EQ(t.root, root);
      EXPECT_EQ(t.dir, dir);
      ASSERT_EQ(t.num_vertices(), g.num_vertices());
      size_t unreachable = 0;
      std::vector<EdgeId> want_edges;
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        EXPECT_EQ(t.hops(v), l.hops[v]) << "v=" << v;
        EXPECT_EQ(t.parent_edge(v), l.parent_edge[v]) << "v=" << v;
        EXPECT_EQ(t.reachable(v), l.hops[v] != kUnreachable) << "v=" << v;
        const Vertex want_parent =
            l.parent_edge[v] == kNoEdge
                ? kNoVertex
                : other_end(g, l.parent_edge[v], v);
        EXPECT_EQ(t.parent(v), want_parent) << "v=" << v;
        if (l.hops[v] == kUnreachable) ++unreachable;
        if (l.parent_edge[v] != kNoEdge) want_edges.push_back(l.parent_edge[v]);
        // The derived path walks the raw parent edges.
        const Path p = t.path_to(v);
        if (l.hops[v] == kUnreachable) {
          EXPECT_TRUE(p.vertices.empty());
          continue;
        }
        ASSERT_EQ(p.length(), static_cast<size_t>(l.hops[v]));
        EXPECT_TRUE(g.is_valid_path(p, {}));
        EXPECT_EQ(dir == Direction::kOut ? p.source() : p.target(), root);
      }
      ASSERT_GT(unreachable, 0u);  // the truncation and sentinel are live
      std::sort(want_edges.begin(), want_edges.end());
      EXPECT_EQ(t.tree_edges(), want_edges);
      const auto order = t.top_order();
      EXPECT_EQ(order.size(), g.num_vertices() - unreachable);
      for (size_t i = 1; i < order.size(); ++i)
        EXPECT_LE(t.hops(order[i - 1]), t.hops(order[i]));
      for (EdgeId e = 0; e < g.num_edges(); ++e)
        EXPECT_EQ(t.uses_edge(e),
                  std::find(want_edges.begin(), want_edges.end(), e) !=
                      want_edges.end());
    }
  }
}

TEST(SptLayout, TruncatesAtLastReachableVertex) {
  // Root 2 of a 10-vertex graph whose only edges join 1-2-3: vertices 4..9
  // are unreachable and not stored; 0 is unreachable but inside the prefix.
  const Graph g(10, {{1, 2}, {2, 3}});
  const Labels l = bfs_labels(g, 2);
  Spt t;
  Spt::encode(2, Direction::kOut, l.hops, l.parent_edge, g.shared_endpoints(),
              t);
  EXPECT_EQ(t.num_vertices(), 10u);
  EXPECT_EQ(t.memory_bytes(), sizeof(Spt) + 4 * 6);
  EXPECT_EQ(t.hops(0), kUnreachable);
  EXPECT_EQ(t.hops(3), 1);
  EXPECT_EQ(t.parent(3), 2u);
  for (Vertex v = 4; v < 10; ++v) {
    EXPECT_EQ(t.hops(v), kUnreachable);
    EXPECT_EQ(t.parent(v), kNoVertex);
    EXPECT_EQ(t.parent_edge(v), kNoEdge);
  }
  // The engine stores the same prefix.
  const IsolationRpts pi(g, IsolationAtw(1));
  EXPECT_EQ(pi.spt(2).memory_bytes(), t.memory_bytes());
}

TEST(SptLayout, MemoryBytesNarrowAndWide) {
  // Narrow: a connected graph stores all n vertices at 6 bytes each, for
  // fresh engine, reference and encoder-built trees alike.
  const Graph g = gnp_connected(128, 0.05, 9);
  const IsolationRpts pi(g, IsolationAtw(2));
  const size_t n = g.num_vertices();
  EXPECT_EQ(pi.spt(0).memory_bytes(), sizeof(Spt) + n * 6);
  const auto batch = pi.spt_batch(std::vector<SsspRequest>{
      {0, {}, Direction::kOut}, {5, {}, Direction::kIn, 64}});
  for (const auto& t : batch) EXPECT_EQ(t->memory_bytes(), sizeof(Spt) + n * 6);

  // Wide: a 70,000-hop path cannot use u16 hops; it is stored at 8 bytes
  // per vertex and answered exactly.
  const Graph line = path_graph(70000);
  const IsolationRpts deep_pi(line, IsolationAtw(1));
  for (const Spt& deep :
       {deep_pi.spt(0), *deep_pi.spt_batch(std::vector<SsspRequest>{
                            {0, {}, Direction::kOut}})[0]}) {
    EXPECT_EQ(deep.memory_bytes(), sizeof(Spt) + 70000 * 8);
    EXPECT_EQ(deep.hops(69999), 69999);
    EXPECT_EQ(deep.hops(65535), 65535);
    EXPECT_EQ(deep.parent(69999), 69998u);
    EXPECT_EQ(deep.path_to(69999).length(), 69999u);
    EXPECT_EQ(deep.top_order().size(), 70000u);
  }
  // A root in the middle keeps every hop below 0xFFFF: narrow again.
  EXPECT_EQ(deep_pi.spt(35000).memory_bytes(), sizeof(Spt) + 70000 * 6);
}

TEST(SptLayout, EncodeReusesTargetCapacity) {
  // A pooled target keeps its storage across encodes (no reallocation on a
  // same-size tree), and switching width releases the other hop array.
  const Graph g = gnp_connected(64, 0.1, 3);
  const Labels a = bfs_labels(g, 0), b = bfs_labels(g, 9);
  Spt t;
  Spt::encode(0, Direction::kOut, a.hops, a.parent_edge, g.shared_endpoints(),
              t);
  const size_t bytes = t.memory_bytes();
  Spt::encode(9, Direction::kIn, b.hops, b.parent_edge, g.shared_endpoints(),
              t);
  EXPECT_EQ(t.memory_bytes(), bytes);
  EXPECT_EQ(t.root, 9u);
  EXPECT_EQ(t.hops(0), b.hops[0]);

  std::vector<int32_t> wide_hops{0, 70000};
  std::vector<EdgeId> wide_pe{kNoEdge, 0};
  Spt::encode(0, Direction::kOut, wide_hops, wide_pe, g.shared_endpoints(), t);
  // The narrow array is released; parent_edge keeps its larger capacity.
  EXPECT_EQ(t.memory_bytes(), sizeof(Spt) + 2 * sizeof(int32_t) +
                                  g.num_vertices() * sizeof(EdgeId));
  EXPECT_EQ(t.hops(1), 70000);
}

TEST(SptLayout, EncodeRejectsParentEdgeBeyondTable) {
  // A parent edge the endpoint table cannot describe (a stale table from
  // before a fresh-slot append) would make parent(v) read out of bounds.
  const std::vector<int32_t> hops{0, 1};
  const auto table =
      std::make_shared<const std::vector<Edge>>(std::vector<Edge>{{0, 1}});
  Spt t;
  EXPECT_THROW(Spt::encode(0, Direction::kOut, hops,
                           std::vector<EdgeId>{kNoEdge, 3}, table, t),
               std::logic_error);
  EXPECT_THROW(Spt::encode(0, Direction::kOut, hops,
                           std::vector<EdgeId>{kNoEdge, 0}, nullptr, t),
               std::logic_error);
  // With an id the table covers, encoding proceeds normally.
  Spt::encode(0, Direction::kOut, hops, std::vector<EdgeId>{kNoEdge, 0}, table,
              t);
  EXPECT_EQ(t.parent(1), 0u);
  EXPECT_EQ(t.parent(0), kNoVertex);
}

TEST(SptLayout, CacheHoldsTwiceTheTwelveByteTrees) {
  // At a fixed budget the cache must hold >= 1.9x the trees the retired
  // 12 bytes/vertex layout would have: that layout's entry is the measured
  // entry plus 6 more bytes per vertex.
  const Graph g = sparse_connected(2048, 3.0, 17);
  const IsolationRpts pi(g, IsolationAtw(8));
  std::vector<SsspRequest> reqs;
  for (Vertex r = 0; r < 64; ++r) reqs.push_back({r, {}, Direction::kOut});
  const BatchSsspEngine eng(2);
  const size_t budget = 512 * 1024;
  SptCache cache({.shards = 1, .byte_budget = budget,
                  .protected_fraction = 1.0});
  const std::vector<SptHandle> trees = pi.spt_batch(reqs, &eng);
  for (size_t i = 0; i < reqs.size(); ++i)
    cache.insert(SptKey(pi.scheme_id(), reqs[i]), trees[i]);
  const auto stats = cache.stats();
  ASSERT_GT(stats.entries, 0u);
  ASSERT_LT(stats.entries, reqs.size());  // the budget binds
  const size_t entry = stats.bytes / stats.entries;
  const size_t twelve_byte_entry = entry + 6 * g.num_vertices();
  const double twelve_byte_capacity =
      static_cast<double>(budget / twelve_byte_entry);
  EXPECT_GE(static_cast<double>(stats.entries), 1.9 * twelve_byte_capacity);
}

}  // namespace
}  // namespace restorable
