// Tests for the dual-failure subset oracle: exhaustive cross-validation
// against per-fault-pair BFS (the 2-restorability guarantee, Definition 17,
// exercised through a data structure).
#include "rp/two_fault_oracle.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "graph/bfs.h"
#include "graph/generators.h"

namespace restorable {
namespace {

void exhaustive_check(const Graph& g, uint64_t seed,
                      std::span<const Vertex> sources) {
  IsolationRpts pi(g, IsolationAtw(seed));
  const TwoFaultSubsetOracle oracle(pi, sources);
  for (Vertex s1 : sources) {
    for (Vertex s2 : sources) {
      if (s1 >= s2) continue;
      // |F| = 0 and 1.
      EXPECT_EQ(oracle.query(s1, s2, FaultSet{}), bfs_distance(g, s1, s2));
      for (EdgeId e = 0; e < g.num_edges(); ++e)
        EXPECT_EQ(oracle.query(s1, s2, FaultSet{e}),
                  bfs_distance(g, s1, s2, FaultSet{e}))
            << s1 << "," << s2 << " e=" << e;
      // |F| = 2, all pairs.
      for (EdgeId e1 = 0; e1 < g.num_edges(); ++e1)
        for (EdgeId e2 = e1 + 1; e2 < g.num_edges(); ++e2) {
          const FaultSet f{e1, e2};
          EXPECT_EQ(oracle.query(s1, s2, f), bfs_distance(g, s1, s2, f))
              << s1 << "," << s2 << " F=" << f.to_string();
        }
    }
  }
}

TEST(TwoFaultOracle, ExhaustiveOnGnp) {
  Graph g = gnp_connected(10, 0.35, 1);
  const Vertex sources[] = {0, 4, 9};
  exhaustive_check(g, 11, sources);
}

TEST(TwoFaultOracle, ExhaustiveOnTheta) {
  Graph g = theta_graph(3, 3);
  const Vertex sources[] = {0, 1};
  exhaustive_check(g, 12, sources);
}

TEST(TwoFaultOracle, ExhaustiveOnGrid) {
  Graph g = grid(3, 3);
  const Vertex sources[] = {0, 8};
  exhaustive_check(g, 13, sources);
}

TEST(TwoFaultOracle, ExhaustiveOnClique) {
  Graph g = complete(6);
  const Vertex sources[] = {0, 3, 5};
  exhaustive_check(g, 14, sources);
}

TEST(TwoFaultOracle, DisconnectionCases) {
  Graph g = path_graph(5);
  IsolationRpts pi(g, IsolationAtw(15));
  const Vertex sources[] = {0, 4};
  const TwoFaultSubsetOracle oracle(pi, sources);
  EXPECT_EQ(oracle.query(0, 4, FaultSet{2}), kUnreachable);
  EXPECT_EQ(oracle.query(0, 4, FaultSet{0, 3}), kUnreachable);
  EXPECT_EQ(oracle.query(0, 4, FaultSet{}), 4);
}

TEST(TwoFaultOracle, UnknownSourceRejected) {
  Graph g = cycle(5);
  IsolationRpts pi(g, IsolationAtw(16));
  const Vertex sources[] = {0, 2};
  const TwoFaultSubsetOracle oracle(pi, sources);
  EXPECT_EQ(oracle.query(0, 3, FaultSet{}), kUnreachable);  // 3 not in S
  EXPECT_EQ(oracle.query(2, 2, FaultSet{0, 1}), 0);
}

TEST(TwoFaultOracle, RejectsBadFaultSets) {
  // cycle(6) has edges 0..5. Three faults are more than the two proper
  // subsets the oracle indexes cover, and an id >= m names no edge.
  Graph g = cycle(6);
  IsolationRpts pi(g, IsolationAtw(19));
  const Vertex sources[] = {0, 3};
  const TwoFaultSubsetOracle oracle(pi, sources);
  EXPECT_THROW(oracle.query(0, 3, FaultSet{0, 1, 2}), std::invalid_argument);
  EXPECT_THROW(oracle.query(0, 3, FaultSet{0, 4, 5}), std::invalid_argument);
  EXPECT_THROW(oracle.query(0, 3, FaultSet{6}), std::out_of_range);
  EXPECT_THROW(oracle.query(0, 3, FaultSet{1, 100}), std::out_of_range);
  EXPECT_THROW(oracle.query(0, 1, FaultSet{6}), std::out_of_range);
  // The bounds themselves still answer.
  for (const FaultSet& f : {FaultSet{0, 5}, FaultSet{5}, FaultSet{2, 4}})
    EXPECT_EQ(oracle.query(0, 3, f), bfs_distance(g, 0, 3, f));
}

TEST(TwoFaultOracle, TreeAccounting) {
  Graph g = gnp_connected(12, 0.3, 17);
  IsolationRpts pi(g, IsolationAtw(18));
  const Vertex sources[] = {0, 6};
  const TwoFaultSubsetOracle oracle(pi, sources);
  // Per source: 1 base + (n-1) single-fault trees.
  EXPECT_EQ(oracle.trees_stored(), 2u * (1 + (g.num_vertices() - 1)));
}

}  // namespace
}  // namespace restorable
