// Tests for the near-linear single-pair replacement path algorithm
// (Theorem 28), validated against per-fault BFS on many families, plus the
// structural prefix/suffix facts the candidate-interval argument rests on.
#include "rp/single_pair_rp.h"

#include <gtest/gtest.h>

#include "core/dijkstra.h"
#include "graph/bfs.h"
#include "graph/generators.h"
#include "rp/naive_rp.h"

namespace restorable {
namespace {

void expect_matches_naive(const Graph& g, uint64_t seed, Vertex s, Vertex t) {
  const IsolationAtw atw(seed);
  const auto fast = single_pair_replacement_paths(g, atw, s, t);
  if (fast.base_path.empty()) {
    EXPECT_EQ(bfs_distance(g, s, t), kUnreachable);
    return;
  }
  const auto naive =
      naive_replacement_distances(g, s, t, fast.base_path);
  ASSERT_EQ(fast.replacement.size(), naive.size());
  for (size_t i = 0; i < naive.size(); ++i)
    EXPECT_EQ(fast.replacement[i], naive[i])
        << "edge index " << i << " (edge " << fast.base_path.edges[i]
        << ") on path " << fast.base_path.to_string();
}

TEST(SinglePairRp, CycleAllFaultsForceLongWay) {
  Graph g = cycle(8);
  const IsolationAtw atw(1);
  const auto res = single_pair_replacement_paths(g, atw, 0, 4);
  ASSERT_EQ(res.base_path.length(), 4u);
  for (int32_t r : res.replacement) EXPECT_EQ(r, 4);
}

TEST(SinglePairRp, PathGraphDisconnects) {
  Graph g = path_graph(6);
  const IsolationAtw atw(2);
  const auto res = single_pair_replacement_paths(g, atw, 0, 5);
  ASSERT_EQ(res.base_path.length(), 5u);
  for (int32_t r : res.replacement) EXPECT_EQ(r, kUnreachable);
}

TEST(SinglePairRp, DisconnectedPairReturnsEmpty) {
  Graph g(5, {{0, 1}, {2, 3}});
  const IsolationAtw atw(3);
  const auto res = single_pair_replacement_paths(g, atw, 0, 3);
  EXPECT_TRUE(res.base_path.empty());
  EXPECT_TRUE(res.replacement.empty());
}

TEST(SinglePairRp, AdjacentPair) {
  Graph g = complete(5);
  const IsolationAtw atw(4);
  const auto res = single_pair_replacement_paths(g, atw, 1, 3);
  ASSERT_EQ(res.base_path.length(), 1u);
  EXPECT_EQ(res.replacement[0], 2);
}

TEST(SinglePairRp, DumbbellBridgeMix) {
  Graph g = dumbbell(4, 3);
  // Pair spanning the bridge: bridge failures disconnect, clique failures
  // route around.
  expect_matches_naive(g, 5, 1, 5);
}

class SinglePairSweep
    : public ::testing::TestWithParam<std::tuple<int, double, int>> {};

TEST_P(SinglePairSweep, MatchesNaiveOnGnp) {
  const auto [n, p, seed] = GetParam();
  Graph g = gnp_connected(n, p, seed);
  // A few representative pairs per graph.
  expect_matches_naive(g, seed * 7 + 1, 0, static_cast<Vertex>(n - 1));
  expect_matches_naive(g, seed * 7 + 1, static_cast<Vertex>(n / 2), 0);
  expect_matches_naive(g, seed * 7 + 2, 1, static_cast<Vertex>(n / 3 + 1));
}

INSTANTIATE_TEST_SUITE_P(
    Gnp, SinglePairSweep,
    ::testing::Combine(::testing::Values(12, 20, 32),
                       ::testing::Values(0.1, 0.2, 0.35),
                       ::testing::Values(1, 2, 3)));

TEST(SinglePairRp, MatchesNaiveOnStructuredFamilies) {
  expect_matches_naive(grid(4, 5), 11, 0, 19);
  expect_matches_naive(torus(4, 4), 12, 0, 10);
  expect_matches_naive(hypercube(4), 13, 0, 15);
  expect_matches_naive(theta_graph(4, 4), 14, 0, 1);
  expect_matches_naive(random_tree(25, 15), 15, 0, 24);
}

TEST(SinglePairRp, WorksWithDeterministicPolicy) {
  Graph g = gnp_connected(14, 0.25, 21);
  DeterministicAtw atw(g);
  const auto fast = single_pair_replacement_paths(g, atw, 0, 13);
  ASSERT_FALSE(fast.base_path.empty());
  const auto naive = naive_replacement_distances(g, 0, 13, fast.base_path);
  for (size_t i = 0; i < naive.size(); ++i)
    EXPECT_EQ(fast.replacement[i], naive[i]);
}

// The entry against per-fault BFS under every shipped policy.
template <typename Policy>
void expect_policy_matches(const Graph& g, const Policy& policy, Vertex s,
                           Vertex t) {
  const auto res = single_pair_replacement_paths(g, policy, s, t);
  if (res.base_path.empty()) {
    EXPECT_EQ(bfs_distance(g, s, t), kUnreachable);
    return;
  }
  EXPECT_EQ(res.replacement,
            naive_replacement_distances(g, s, t, res.base_path))
      << s << " -> " << t << " on " << res.base_path.to_string();
}

template <typename Policy>
void expect_policy_matches_on_pairs(const Graph& g, const Policy& policy) {
  const Vertex n = g.num_vertices();
  expect_policy_matches(g, policy, 0, n - 1);
  expect_policy_matches(g, policy, n / 2, 1);
  expect_policy_matches(g, policy, n / 3, 2 * n / 3);
}

TEST(SinglePairRp, MatchesNaiveUnderEveryPolicy) {
  const Graph graphs[] = {gnp_connected(30, 0.15, 41), grid(5, 6),
                          theta_graph(4, 5), dumbbell(5, 4),
                          clique_chain(6, 5)};
  for (const Graph& g : graphs) {
    expect_policy_matches_on_pairs(g, IsolationAtw(42));
    expect_policy_matches_on_pairs(g, RandomRealAtw(43, g.num_vertices()));
    expect_policy_matches_on_pairs(g, DeterministicAtw(g));
  }
}

// Edges 1 and 2 both join vertices 1 and 2. Whichever the policy puts on P,
// failing it leaves the other: P-edges are excluded by id, not endpoints.
TEST(SinglePairRp, ParallelCopyOfPathEdgeIsADetour) {
  const Graph g(4, {{0, 1}, {1, 2}, {1, 2}, {2, 3}});
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const auto res = single_pair_replacement_paths(g, IsolationAtw(seed), 0, 3);
    ASSERT_EQ(res.base_path.length(), 3u);
    EXPECT_EQ(res.replacement,
              (std::vector<int32_t>{kUnreachable, 3, kUnreachable}));
  }
}

// A removed edge keeps its slot and endpoints but has no arcs: it is no
// detour.
TEST(SinglePairRp, RemovedEdgeIsNoDetour) {
  Graph g = cycle(8);
  EdgeId e67 = kNoEdge;
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    if (g.endpoints(e) == Edge{6, 7} || g.endpoints(e) == Edge{7, 6}) e67 = e;
  ASSERT_TRUE(g.remove_edge(e67));
  const auto res = single_pair_replacement_paths(g, IsolationAtw(1), 0, 4);
  ASSERT_EQ(res.base_path.length(), 4u);
  for (int32_t r : res.replacement) EXPECT_EQ(r, kUnreachable);
}

// Structural facts behind the algorithm: the selected s~u path uses a
// *prefix* of P's edges and the selected v~t path uses a *suffix* (by
// consistency + uniqueness).
TEST(SinglePairRp, PrefixSuffixStructure) {
  Graph g = gnp_connected(18, 0.2, 31);
  const IsolationAtw atw(9);
  const Vertex s = 0, t = 17;
  const auto from_s = tiebroken_sssp(g, atw, s, {}, Direction::kOut);
  const auto to_t = tiebroken_sssp(g, atw, t, {}, Direction::kIn);
  ASSERT_TRUE(from_s.spt.reachable(t));
  const Path p = from_s.spt.path_to(t);
  std::vector<char> on_p(g.num_edges(), 0);
  for (EdgeId e : p.edges) on_p[e] = 1;
  std::vector<int32_t> edge_index(g.num_edges(), -1);
  for (size_t i = 0; i < p.edges.size(); ++i)
    edge_index[p.edges[i]] = static_cast<int32_t>(i);

  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    if (!from_s.spt.reachable(u)) continue;
    const Path su = from_s.spt.path_to(u);
    // P-edges on pi(s, u) must be exactly {0, 1, ..., k-1} for some k.
    std::vector<int32_t> used;
    for (EdgeId e : su.edges)
      if (on_p[e]) used.push_back(edge_index[e]);
    std::sort(used.begin(), used.end());
    for (size_t i = 0; i < used.size(); ++i)
      EXPECT_EQ(used[i], static_cast<int32_t>(i)) << "u=" << u;

    if (!to_t.spt.reachable(u)) continue;
    const Path ut = to_t.spt.path_to(u);
    // P-edges on pi(u, t) must be a suffix {d-k, ..., d-1}.
    used.clear();
    for (EdgeId e : ut.edges)
      if (on_p[e]) used.push_back(edge_index[e]);
    std::sort(used.begin(), used.end());
    const int32_t d = static_cast<int32_t>(p.length());
    for (size_t i = 0; i < used.size(); ++i)
      EXPECT_EQ(used[i], d - static_cast<int32_t>(used.size() - i))
          << "u=" << u;
  }
}

}  // namespace
}  // namespace restorable
