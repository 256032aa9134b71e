// Tests for the preserver-backed centralized FT distance oracle, including
// label wire-format round trips.
#include "labeling/ft_oracle.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "graph/bfs.h"
#include "graph/generators.h"
#include "labeling/labels.h"

namespace restorable {
namespace {

TEST(FtOracle, SingleFaultSourcewiseExhaustive) {
  Graph g = gnp_connected(14, 0.3, 1);
  IsolationRpts pi(g, IsolationAtw(1));
  const Vertex sources[] = {0, 7};
  const FtDistanceOracle oracle(pi, sources, 1);
  for (Vertex s : sources)
    for (Vertex t = 0; t < g.num_vertices(); ++t) {
      if (t == s) continue;
      for (EdgeId e = 0; e < g.num_edges(); ++e)
        EXPECT_EQ(oracle.query(s, t, FaultSet{e}),
                  bfs_distance(g, s, t, FaultSet{e}))
            << "s=" << s << " t=" << t << " e=" << e;
    }
}

TEST(FtOracle, SubsetPairsGetOneExtraFault) {
  // Theorem 31 through the oracle: f = 1 preserver answers S x S queries
  // under TWO faults.
  Graph g = gnp_connected(10, 0.35, 2);
  IsolationRpts pi(g, IsolationAtw(2));
  const Vertex sources[] = {0, 5, 9};
  const FtDistanceOracle oracle(pi, sources, 1);
  EXPECT_EQ(oracle.subset_fault_tolerance(), 2);
  for (Vertex s : sources)
    for (Vertex t : sources) {
      if (s >= t) continue;
      for (EdgeId e1 = 0; e1 < g.num_edges(); ++e1)
        for (EdgeId e2 = e1 + 1; e2 < g.num_edges(); e2 += 3) {
          const FaultSet f{e1, e2};
          EXPECT_EQ(oracle.query(s, t, f), bfs_distance(g, s, t, f))
              << "s=" << s << " t=" << t << " F=" << f.to_string();
        }
    }
}

TEST(FtOracle, SparserThanGraphOnDenseInput) {
  Graph g = gnp_connected(60, 0.4, 3);
  IsolationRpts pi(g, IsolationAtw(3));
  const Vertex sources[] = {0, 30};
  const FtDistanceOracle oracle(pi, sources, 1);
  EXPECT_LT(oracle.preserver_edges(), static_cast<size_t>(g.num_edges()));
}

TEST(FtOracle, FaultsOutsidePreserverStillAnsweredExactly) {
  // With f = 0 the contract covers fault-free queries only -- EXCEPT that a
  // fault on an edge the preserver dropped provably changes nothing (the
  // selected path avoids it, and by stability so does the distance), so
  // those queries must still be exact.
  Graph g = gnp_connected(15, 0.3, 4);
  IsolationRpts pi(g, IsolationAtw(4));
  const Vertex sources[] = {0};
  const FtDistanceOracle oracle(pi, sources, 0);
  std::vector<char> in_h(g.num_edges(), 0);
  for (EdgeId he = 0; he < oracle.preserver().num_edges(); ++he)
    in_h[oracle.preserver().label(he)] = 1;
  size_t outside = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (in_h[e]) continue;  // |F| = 1 > f = 0: out of contract
    ++outside;
    for (Vertex t = 1; t < g.num_vertices(); ++t)
      EXPECT_EQ(oracle.query(0, t, FaultSet{e}),
                bfs_distance(g, 0, t, FaultSet{e}))
          << "e=" << e << " t=" << t;
  }
  EXPECT_GT(outside, 0u);
}

// Bad input throws instead of writing past the BFS arrays (a vertex >= n)
// or answering the fault-free distance for a fault set that does not exist
// (a fault id >= m); the BFS utilities the oracle runs validate the same way.
TEST(FtOracle, RejectsOutOfRangeInputs) {
  Graph g = gnp_connected(12, 0.3, 5);
  IsolationRpts pi(g, IsolationAtw(5));
  const Vertex sources[] = {0};
  const FtDistanceOracle oracle(pi, sources, 1);
  const Vertex n = g.num_vertices();
  const EdgeId m = g.num_edges();
  EXPECT_THROW(oracle.query(n, 1, {}), std::out_of_range);
  EXPECT_THROW(oracle.query(0, n, {}), std::out_of_range);
  EXPECT_THROW(oracle.query(0, 1, FaultSet{m}), std::out_of_range);
  EXPECT_THROW(oracle.query(0, 1, FaultSet{0, m + 5}), std::out_of_range);
  EXPECT_THROW(bfs_distances(g, n), std::out_of_range);
  EXPECT_THROW(bfs_distance(g, 0, n), std::out_of_range);
  EXPECT_THROW(bfs_distance(g, n, n), std::out_of_range);
  EXPECT_THROW(bfs_path(g, n, 0), std::out_of_range);
  EXPECT_THROW(bfs_path(g, 0, n), std::out_of_range);
  // The boundary ids are valid.
  EXPECT_EQ(oracle.query(0, n - 1, FaultSet{m - 1}),
            bfs_distance(g, 0, n - 1, FaultSet{m - 1}));
}

TEST(LabelWire, RoundTrip) {
  Graph g = cycle(7);
  IsolationRpts pi(g, IsolationAtw(5));
  FtDistanceLabeling labeling(pi, 0);
  const std::string wire = encode_label(labeling.label(2));
  const DistanceLabel back = decode_label(wire);
  EXPECT_EQ(back.owner, 2u);
  EXPECT_EQ(back.n, 7u);
  EXPECT_EQ(back.edges.size(), labeling.label(2).edges.size());
  // Decoded labels answer queries identically.
  const DistanceLabel other = decode_label(encode_label(labeling.label(5)));
  EXPECT_EQ(FtDistanceLabeling::query(back, other, {}),
            bfs_distance(g, 2, 5));
}

// The wire format byte for byte: a header line, then one edge per line,
// no trailing newline.
TEST(LabelWire, ExactBytes) {
  const DistanceLabel label{4294967294u, 12, {{0, 1}, {11, 3}}};
  EXPECT_EQ(encode_label(label), "RSPL1 4294967294 12 2\n0 1\n11 3");
  EXPECT_EQ(encode_label(DistanceLabel{3, 5, {}}), "RSPL1 3 5 0");
}

TEST(LabelWire, RejectsCorruptInput) {
  EXPECT_THROW(decode_label("BOGUS 1 2 3"), std::runtime_error);
  EXPECT_THROW(decode_label("RSPL1 0 5 2\n0 1"), std::runtime_error);
}

}  // namespace
}  // namespace restorable
