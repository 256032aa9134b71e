// Tests for Algorithm 1 (subset-rp, Theorems 3/29): outputs must match the
// naive per-fault BFS oracle pair-for-pair, edge-for-edge.
#include "rp/subset_rp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "engine/batch_sssp.h"
#include "graph/bfs.h"
#include "graph/generators.h"
#include "rp/naive_rp.h"

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

// Edges 1 and 2 both join vertices 1 and 2. Whichever copy P takes, the
// antisymmetric ties send T(3) over the other, so the midpoint 1 covers
// failing P's copy: P-edges are told apart by id, not endpoints.
TEST(SubsetRp, ParallelCopyOfPathEdgeIsADetour) {
  const Graph g(4, {{0, 1}, {1, 2}, {1, 2}, {2, 3}});
  const Vertex sources[] = {0, 3};
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    expect_matches_naive(g, seed, sources);
    IsolationRpts pi(g, IsolationAtw(seed));
    const auto res = subset_replacement_paths(pi, sources);
    ASSERT_EQ(res.pairs[0].base_path.length(), 3u);
    EXPECT_EQ(res.pairs[0].replacement,
              (std::vector<int32_t>{kUnreachable, 3, kUnreachable}));
  }
}

// A removed edge keeps its slot and endpoints but has no arcs: cycle(8)
// without 6-7 is a path, on which every failure disconnects.
TEST(SubsetRp, RemovedEdgeIsNoDetour) {
  Graph g = cycle(8);
  EdgeId e67 = kNoEdge;
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    if (g.endpoints(e) == Edge{6, 7} || g.endpoints(e) == Edge{7, 6}) e67 = e;
  ASSERT_TRUE(g.remove_edge(e67));
  const Vertex sources[] = {0, 4, 6, 7};
  expect_matches_naive(g, 25, sources);
  IsolationRpts pi(g, IsolationAtw(25));
  const auto res = subset_replacement_paths(pi, sources);
  ASSERT_EQ(res.pairs[0].base_path.length(), 4u);  // pair (0, 4)
  for (const auto& pr : res.pairs)
    for (int32_t r : pr.replacement) EXPECT_EQ(r, kUnreachable);
}

// Long base paths: a grid's pairs have many equal-length detours, a path
// graph's have none.
TEST(SubsetRp, LongPathsOnGridAndPathGraph) {
  {
    const Vertex sources[] = {0, 11, 66, 77, 132, 143};
    expect_matches_naive(grid(12, 12), 26, sources);
  }
  {
    const Graph g = path_graph(60);
    const Vertex sources[] = {0, 17, 42, 59};
    expect_matches_naive(g, 27, sources);
    IsolationRpts pi(g, IsolationAtw(27));
    const auto res = subset_replacement_paths(pi, sources);
    ASSERT_EQ(res.pairs[2].base_path.length(), 59u);  // pair (0, 59)
    for (const auto& pr : res.pairs)
      for (int32_t r : pr.replacement) EXPECT_EQ(r, kUnreachable);
  }
}

// Sources in different components: pairs across them have no base path,
// and each tree spans only its source's component.
TEST(SubsetRp, DisconnectedGnpMatchesNaive) {
  const Graph g = gnp(60, 0.04, 11);
  std::vector<Vertex> sources;
  for (Vertex v = 0; v < g.num_vertices(); v += 6) sources.push_back(v);
  expect_matches_naive(g, 28, sources);
  IsolationRpts pi(g, IsolationAtw(28));
  const auto res = subset_replacement_paths(pi, sources);
  size_t cross = 0, tree_edges = 0;
  for (const auto& pr : res.pairs)
    if (bfs_distance(g, pr.s1, pr.s2) == kUnreachable) {
      ++cross;
      EXPECT_TRUE(pr.base_path.empty());
      EXPECT_TRUE(pr.replacement.empty());
    }
  EXPECT_GT(cross, 0u) << "the instance should be disconnected";
  for (const Vertex s : sources) {
    const auto dist = bfs_distances(g, s);
    tree_edges += std::count_if(dist.begin(), dist.end(), [](int32_t h) {
                    return h != kUnreachable;
                  }) - 1;
  }
  EXPECT_EQ(res.tree_edges_total, tree_edges);
}

TEST(SubsetRp, BasePathEdgesAreGlobalIds) {
  Graph g = gnp_connected(15, 0.25, 7);
  IsolationRpts pi(g, IsolationAtw(21));
  const Vertex sources[] = {0, 14};
  const auto res = subset_replacement_paths(pi, sources);
  for (const auto& pr : res.pairs)
    EXPECT_TRUE(g.is_valid_path(pr.base_path));
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

// Stress sweep across seeds: the midpoint solve leans on the restoration
// lemma of the 1-restorable scheme, so hammer it.
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
