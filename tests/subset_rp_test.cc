// Tests for Algorithm 1 (subset-rp, Theorems 3/29): outputs must match the
// naive per-fault BFS oracle pair-for-pair, edge-for-edge.
#include "rp/subset_rp.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "engine/batch_sssp.h"
#include "graph/bfs.h"
#include "graph/generators.h"
#include "rp/naive_rp.h"
#include "serve/spt_cache.h"

namespace restorable {
namespace {

void expect_matches_naive(const Graph& g, uint64_t seed,
                          std::span<const Vertex> sources) {
  IsolationRpts pi(g, IsolationAtw(seed));
  const auto fast = subset_replacement_paths(pi, sources);
  const auto naive = naive_subset_replacement_paths(pi, sources);
  ASSERT_EQ(fast.pairs.size(), naive.pairs.size());
  for (size_t i = 0; i < fast.pairs.size(); ++i) {
    const auto& fp = fast.pairs[i];
    const auto& np = naive.pairs[i];
    EXPECT_EQ(fp.s1, np.s1);
    EXPECT_EQ(fp.s2, np.s2);
    ASSERT_EQ(fp.base_path, np.base_path)
        << "pair " << fp.s1 << "," << fp.s2
        << ": Algorithm 1 must select the same canonical path";
    ASSERT_EQ(fp.replacement.size(), np.replacement.size());
    for (size_t k = 0; k < fp.replacement.size(); ++k)
      EXPECT_EQ(fp.replacement[k], np.replacement[k])
          << "pair " << fp.s1 << "," << fp.s2 << " edge idx " << k;
  }
}

TEST(SubsetRp, TwoSourcesEqualsSinglePair) {
  Graph g = gnp_connected(20, 0.2, 1);
  const Vertex sources[] = {0, 19};
  expect_matches_naive(g, 11, sources);
}

TEST(SubsetRp, FourSourcesGnp) {
  Graph g = gnp_connected(24, 0.18, 2);
  const Vertex sources[] = {0, 7, 15, 23};
  expect_matches_naive(g, 12, sources);
}

TEST(SubsetRp, AllVerticesAsSourcesSmall) {
  Graph g = gnp_connected(10, 0.3, 3);
  std::vector<Vertex> sources(g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) sources[v] = v;
  expect_matches_naive(g, 13, sources);
}

TEST(SubsetRp, StructuredFamilies) {
  {
    const Vertex sources[] = {0, 11, 19};
    expect_matches_naive(grid(4, 5), 14, sources);
  }
  {
    const Vertex sources[] = {0, 1, 5};
    expect_matches_naive(theta_graph(3, 4), 15, sources);
  }
  {
    const Vertex sources[] = {0, 6, 12};
    expect_matches_naive(torus(4, 4), 16, sources);
  }
  {
    const Vertex sources[] = {0, 5, 9};
    expect_matches_naive(dumbbell(4, 3), 17, sources);
  }
}

TEST(SubsetRp, TreeInputAllFaultsDisconnect) {
  Graph g = random_tree(16, 5);
  IsolationRpts pi(g, IsolationAtw(18));
  const Vertex sources[] = {0, 8, 15};
  const auto res = subset_replacement_paths(pi, sources);
  for (const auto& pr : res.pairs)
    for (int32_t r : pr.replacement) EXPECT_EQ(r, kUnreachable);
}

TEST(SubsetRp, DisconnectedSourcesYieldEmptyPaths) {
  Graph g(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}});
  IsolationRpts pi(g, IsolationAtw(19));
  const Vertex sources[] = {0, 5};
  const auto res = subset_replacement_paths(pi, sources);
  ASSERT_EQ(res.pairs.size(), 1u);
  EXPECT_TRUE(res.pairs[0].base_path.empty());
  EXPECT_TRUE(res.pairs[0].replacement.empty());
}

TEST(SubsetRp, UnionGraphsAreSparse) {
  // The point of Algorithm 1: each pair's instance has O(n) edges, however
  // dense G is.
  Graph g = gnp_connected(30, 0.5, 6);
  IsolationRpts pi(g, IsolationAtw(20));
  const Vertex sources[] = {0, 10, 20, 29};
  const auto res = subset_replacement_paths(pi, sources);
  const size_t pairs = res.pairs.size();
  EXPECT_LE(res.union_graph_edges_total,
            pairs * 2 * (g.num_vertices() - 1));
  EXPECT_LT(res.union_graph_edges_total, pairs * g.num_edges());
}

TEST(SubsetRp, BasePathEdgesAreGlobalIds) {
  Graph g = gnp_connected(15, 0.25, 7);
  IsolationRpts pi(g, IsolationAtw(21));
  const Vertex sources[] = {0, 14};
  const auto res = subset_replacement_paths(pi, sources);
  for (const auto& pr : res.pairs)
    EXPECT_TRUE(g.is_valid_path(pr.base_path));
}

void expect_same_result(const SubsetRpResult& a, const SubsetRpResult& b) {
  ASSERT_EQ(a.pairs.size(), b.pairs.size());
  for (size_t i = 0; i < a.pairs.size(); ++i) {
    EXPECT_EQ(a.pairs[i].s1, b.pairs[i].s1);
    EXPECT_EQ(a.pairs[i].s2, b.pairs[i].s2);
    EXPECT_EQ(a.pairs[i].base_path, b.pairs[i].base_path);
    EXPECT_EQ(a.pairs[i].replacement, b.pairs[i].replacement);
  }
  EXPECT_EQ(a.tree_edges_total, b.tree_edges_total);
  EXPECT_EQ(a.union_graph_edges_total, b.union_graph_edges_total);
}

// Base paths of about 2k hops through dense cliques: the cover paints many
// failures per pair, with candidates of many distinct intervals.
TEST(SubsetRp, LongPathsOnCliqueChains) {
  for (const Vertex k : {4u, 8u}) {
    const Graph g = clique_chain(k, 20);
    const Vertex n = g.num_vertices();
    const Vertex sources[] = {0, n / 3, 2 * n / 3, n - 1};
    expect_matches_naive(g, 30 + k, sources);
    IsolationRpts pi(g, IsolationAtw(30 + k));
    const auto res = subset_replacement_paths(pi, sources);
    ASSERT_EQ(res.pairs[2].s2, n - 1);  // pair (0, n - 1) crosses the chain
    EXPECT_GE(res.pairs[2].base_path.length(), static_cast<size_t>(k));
  }
}

// Trees resolved through the shared store, first as misses and then as
// hits, give the uncached result bit for bit.
TEST(SubsetRp, CachedRunEqualsUncached) {
  const Graph g = gnp_connected(40, 0.12, 8);
  IsolationRpts pi(g, IsolationAtw(22));
  const Vertex sources[] = {0, 9, 21, 39};
  const auto plain = subset_replacement_paths(pi, sources);
  SptCache cache;
  expect_same_result(subset_replacement_paths(pi, sources, nullptr, &cache),
                     plain);
  const uint64_t hits = cache.stats().hits;
  expect_same_result(subset_replacement_paths(pi, sources, nullptr, &cache),
                     plain);
  EXPECT_GT(cache.stats().hits, hits);
}

// A repeated source pairs with itself: base path of length 0, no failures.
TEST(SubsetRp, DuplicateSourcesMatchNaive) {
  const Graph g = gnp_connected(16, 0.25, 9);
  const Vertex sources[] = {3, 3, 7};
  expect_matches_naive(g, 23, sources);
  IsolationRpts pi(g, IsolationAtw(23));
  const auto res = subset_replacement_paths(pi, sources);
  ASSERT_EQ(res.pairs.size(), 3u);
  EXPECT_EQ(res.pairs[0].base_path.length(), 0u);
  EXPECT_TRUE(res.pairs[0].replacement.empty());
}

// Sources are checked against n before any tree is built, and the error
// names this function.
TEST(SubsetRp, RejectsOutOfRangeSources) {
  const Graph g = gnp_connected(12, 0.3, 10);
  IsolationRpts pi(g, IsolationAtw(24));
  const BatchSsspEngine engine(1);
  for (const Vertex bad : {kNoVertex, g.num_vertices()}) {
    const Vertex sources[] = {0, 5, bad};
    try {
      subset_replacement_paths(pi, sources, &engine);
      ADD_FAILURE() << "source " << bad << " accepted";
    } catch (const std::out_of_range& e) {
      EXPECT_NE(std::string(e.what()).find("subset_replacement_paths"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(engine.stats().batches, 0u);
}

// Stress sweep across seeds: the correctness theorem leans on
// 1-restorability of the union graph, so hammer it.
class SubsetRpSweep : public ::testing::TestWithParam<int> {};

TEST_P(SubsetRpSweep, RandomInstances) {
  const int seed = GetParam();
  Graph g = gnp_connected(14 + (seed % 3) * 4, 0.22, 100 + seed);
  std::vector<Vertex> sources;
  for (Vertex v = 0; v < g.num_vertices(); v += 4) sources.push_back(v);
  expect_matches_naive(g, 200 + seed, sources);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubsetRpSweep, ::testing::Range(0, 12));

}  // namespace
}  // namespace restorable
