// Tests for fault-tolerant preservers (Theorems 26 and 31), verified
// exhaustively against per-fault BFS on small instances.
#include "preserver/ft_preserver.h"

#include <gtest/gtest.h>

#include "core/bounds.h"
#include "graph/bfs.h"
#include "graph/generators.h"
#include "preserver/verify.h"

namespace restorable {
namespace {

std::vector<Vertex> all_vertices(const Graph& g) {
  std::vector<Vertex> v(g.num_vertices());
  for (Vertex i = 0; i < g.num_vertices(); ++i) v[i] = i;
  return v;
}

TEST(EdgeSubset, InsertAndMaterialize) {
  Graph g = cycle(5);
  EdgeSubset s(g);
  s.insert(0);
  s.insert(0);
  s.insert(3);
  EXPECT_EQ(s.count(), 2u);
  EXPECT_TRUE(s.contains(0));
  EXPECT_FALSE(s.contains(1));
  Graph h = s.to_graph();
  EXPECT_EQ(h.num_edges(), 2u);
  EXPECT_EQ(h.label(1), 3u);
}

TEST(SvPreserver, ZeroFaultIsUnionOfTrees) {
  Graph g = gnp_connected(20, 0.2, 1);
  IsolationRpts pi(g, IsolationAtw(1));
  const Vertex sources[] = {0, 5};
  const EdgeSubset p = build_sv_preserver(pi, sources, 0);
  // Union of two spanning trees: between n-1 and 2(n-1) edges.
  EXPECT_GE(p.count(), g.num_vertices() - 1u);
  EXPECT_LE(p.count(), 2u * (g.num_vertices() - 1));
  auto v = verify_distances_exhaustive(g, p.to_graph(), sources,
                                       all_vertices(g), 0);
  EXPECT_EQ(v, std::nullopt) << (v ? v->to_string() : "");
}

TEST(SvPreserver, OneFaultExhaustive) {
  Graph g = gnp_connected(12, 0.3, 2);
  IsolationRpts pi(g, IsolationAtw(2));
  const Vertex sources[] = {0, 7};
  const EdgeSubset p = build_sv_preserver(pi, sources, 1);
  auto v = verify_distances_exhaustive(g, p.to_graph(), sources,
                                       all_vertices(g), 1);
  EXPECT_EQ(v, std::nullopt) << (v ? v->to_string() : "");
}

TEST(SvPreserver, TwoFaultExhaustiveSmall) {
  Graph g = gnp_connected(9, 0.35, 3);
  IsolationRpts pi(g, IsolationAtw(3));
  const Vertex sources[] = {0};
  const EdgeSubset p = build_sv_preserver(pi, sources, 2);
  auto v = verify_distances_exhaustive(g, p.to_graph(), sources,
                                       all_vertices(g), 2);
  EXPECT_EQ(v, std::nullopt) << (v ? v->to_string() : "");
}

TEST(SvPreserver, WorksOnDisconnectedGraphs) {
  Graph g(7, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}});
  IsolationRpts pi(g, IsolationAtw(4));
  const Vertex sources[] = {0, 3};
  const EdgeSubset p = build_sv_preserver(pi, sources, 1);
  auto v = verify_distances_exhaustive(g, p.to_graph(), sources,
                                       all_vertices(g), 1);
  EXPECT_EQ(v, std::nullopt) << (v ? v->to_string() : "");
}

// Theorem 31's flagship case: the union of tiebroken SPTs (a 0-fault
// overlay!) is a 1-FT S x S preserver -- exhaustively on several families.
class UnionOfTreesSweep : public ::testing::TestWithParam<int> {};

TEST_P(UnionOfTreesSweep, OneFaultSubsetPreserver) {
  const int variant = GetParam();
  Graph g = [&] {
    switch (variant % 4) {
      case 0: return gnp_connected(14, 0.25, variant);
      case 1: return theta_graph(3, 3);
      case 2: return grid(3, 5);
      default: return hypercube(3);
    }
  }();
  IsolationRpts pi(g, IsolationAtw(variant * 13 + 5));
  std::vector<Vertex> sources;
  for (Vertex v = 0; v < g.num_vertices(); v += 3) sources.push_back(v);
  const EdgeSubset p = build_ss_preserver(pi, sources, /*f_plus_1=*/1);
  EXPECT_LE(p.count(), sources.size() * (g.num_vertices() - 1));
  auto viol = verify_distances_exhaustive(g, p.to_graph(), sources, sources,
                                          /*f=*/1);
  EXPECT_EQ(viol, std::nullopt) << (viol ? viol->to_string() : "");
}

INSTANTIATE_TEST_SUITE_P(Variants, UnionOfTreesSweep, ::testing::Range(0, 8));

// 2-FT S x S preserver from a 1-fault overlay (Theorem 31 with f = 1),
// exhaustively over all fault pairs.
TEST(SsPreserver, TwoFaultFromOneFaultOverlay) {
  Graph g = gnp_connected(10, 0.35, 9);
  IsolationRpts pi(g, IsolationAtw(9));
  const Vertex sources[] = {0, 4, 9};
  const EdgeSubset p = build_ss_preserver(pi, sources, /*f_plus_1=*/2);
  auto v = verify_distances_exhaustive(g, p.to_graph(), sources, sources, 2);
  EXPECT_EQ(v, std::nullopt) << (v ? v->to_string() : "");
}

TEST(SsPreserver, ThreeFaultSmall) {
  Graph g = complete(7);
  IsolationRpts pi(g, IsolationAtw(10));
  const Vertex sources[] = {0, 3};
  const EdgeSubset p = build_ss_preserver(pi, sources, /*f_plus_1=*/3);
  auto v = verify_distances_exhaustive(g, p.to_graph(), sources, sources, 3);
  EXPECT_EQ(v, std::nullopt) << (v ? v->to_string() : "");
}

TEST(PairwisePreserver, PreservesPairDistancesNoFaults) {
  Graph g = gnp_connected(20, 0.2, 11);
  IsolationRpts pi(g, IsolationAtw(11));
  const Vertex sources[] = {0, 6, 13, 19};
  const EdgeSubset p = build_pairwise_preserver(pi, sources);
  auto v = verify_distances_exhaustive(g, p.to_graph(), sources, sources, 0);
  EXPECT_EQ(v, std::nullopt) << (v ? v->to_string() : "");
  // And it is not the whole graph on dense instances.
  EXPECT_LT(p.count(), g.num_edges());
}

TEST(SvPreserver, SizeWithinTheoremBound) {
  // Theorem 26 is asymptotic; we check measured size <= c * bound with a
  // generous constant on mid-size random instances.
  Graph g = gnp_connected(60, 0.15, 12);
  IsolationRpts pi(g, IsolationAtw(12));
  std::vector<Vertex> sources{0, 10, 20, 30};
  for (int f = 0; f <= 1; ++f) {
    const EdgeSubset p = build_sv_preserver(pi, sources, f);
    const double bound =
        sv_preserver_bound(g.num_vertices(), sources.size(), f);
    EXPECT_LE(static_cast<double>(p.count()), 4.0 * bound) << "f=" << f;
  }
}

TEST(SvPreserver, StatsAreReported) {
  Graph g = gnp_connected(12, 0.3, 13);
  IsolationRpts pi(g, IsolationAtw(13));
  const Vertex sources[] = {0};
  PreserverStats stats;
  build_sv_preserver(pi, sources, 1, &stats);
  // One full sweep for the root tree, then one delta per tree edge (the
  // graph is connected, so n - 1 of them).
  EXPECT_EQ(stats.spt_computations, 1u);
  EXPECT_EQ(stats.fault_deltas, g.num_vertices() - 1u);
  EXPECT_EQ(stats.fault_sets_explored,
            stats.spt_computations + stats.fault_deltas);
}

TEST(Verifier, CatchesLossySubgraph) {
  Graph g = cycle(6);
  // Drop one edge: distances under the fault of another edge break.
  const EdgeId keep[] = {0, 1, 2, 3, 4};
  Graph h = g.edge_subgraph(keep);
  const auto all = all_vertices(g);
  auto v = verify_distances_exhaustive(g, h, all, all, 1);
  EXPECT_NE(v, std::nullopt);
}

}  // namespace
}  // namespace restorable
