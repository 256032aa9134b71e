#include "graph/graph.h"

#include <gtest/gtest.h>

#include <span>
#include <sstream>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/bfs.h"
#include "graph/generators.h"
#include "graph/io.h"

namespace restorable {
namespace {

TEST(Graph, EmptyGraph) {
  Graph g(0, {});
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Graph, SingleEdgeAdjacency) {
  Graph g(2, {{0, 1}});
  ASSERT_EQ(g.num_edges(), 1u);
  ASSERT_EQ(g.arcs(0).size(), 1u);
  EXPECT_EQ(g.arcs(0)[0].to, 1u);
  EXPECT_TRUE(g.arcs(0)[0].forward);
  ASSERT_EQ(g.arcs(1).size(), 1u);
  EXPECT_EQ(g.arcs(1)[0].to, 0u);
  EXPECT_FALSE(g.arcs(1)[0].forward);
}

TEST(Graph, RejectsSelfLoops) {
  EXPECT_THROW(Graph(3, {{1, 1}}), std::invalid_argument);
}

TEST(Graph, RejectsOutOfRangeEndpoints) {
  EXPECT_THROW(Graph(2, {{0, 2}}), std::invalid_argument);
}

TEST(Graph, DegreesMatchCsr) {
  Graph g(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}});
  EXPECT_EQ(g.degree(0), 3u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.degree(2), 2u);
  EXPECT_EQ(g.degree(3), 1u);
}

TEST(Graph, FindEdge) {
  Graph g(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(g.find_edge(1, 2), 1u);
  EXPECT_EQ(g.find_edge(2, 1), 1u);
  EXPECT_EQ(g.find_edge(0, 3), kNoEdge);
}

TEST(Graph, OtherEndpoint) {
  Graph g(3, {{0, 2}});
  EXPECT_EQ(g.other_endpoint(0, 0), 2u);
  EXPECT_EQ(g.other_endpoint(0, 2), 0u);
}

TEST(Graph, DefaultLabelsAreIdentity) {
  Graph g(3, {{0, 1}, {1, 2}});
  EXPECT_EQ(g.label(0), 0u);
  EXPECT_EQ(g.label(1), 1u);
}

TEST(Graph, EdgeSubgraphKeepsLabels) {
  Graph g(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  const EdgeId pick[] = {1, 3};
  Graph h = g.edge_subgraph(pick);
  EXPECT_EQ(h.num_vertices(), 4u);
  ASSERT_EQ(h.num_edges(), 2u);
  EXPECT_EQ(h.label(0), 1u);
  EXPECT_EQ(h.label(1), 3u);
  EXPECT_EQ(h.endpoints(0).u, 1u);
  EXPECT_EQ(h.endpoints(0).v, 2u);
}

TEST(Graph, NestedSubgraphComposesLabels) {
  Graph g = cycle(6);
  const EdgeId first[] = {0, 2, 4, 5};
  Graph h1 = g.edge_subgraph(first);
  const EdgeId second[] = {1, 3};  // h1-local ids
  Graph h2 = h1.edge_subgraph(second);
  EXPECT_EQ(h2.label(0), 2u);  // h1 edge 1 had label 2
  EXPECT_EQ(h2.label(1), 5u);
}

TEST(Path, UsesEdgeAndVertex) {
  Path p{{0, 1, 2}, {5, 7}};
  EXPECT_TRUE(p.uses_edge(5));
  EXPECT_TRUE(p.uses_edge(7));
  EXPECT_FALSE(p.uses_edge(6));
  EXPECT_TRUE(p.uses_vertex(1));
  EXPECT_FALSE(p.uses_vertex(3));
}

TEST(Path, ConcatenateAndReverse) {
  Path a{{0, 1}, {10}};
  Path b{{1, 2, 3}, {11, 12}};
  a.concatenate(b);
  EXPECT_EQ(a.vertices, (std::vector<Vertex>{0, 1, 2, 3}));
  EXPECT_EQ(a.edges, (std::vector<EdgeId>{10, 11, 12}));
  const Path r = a.reversed();
  EXPECT_EQ(r.vertices, (std::vector<Vertex>{3, 2, 1, 0}));
  EXPECT_EQ(r.edges, (std::vector<EdgeId>{12, 11, 10}));
}

TEST(Path, ConcatenateOntoEmpty) {
  Path a;
  Path b{{4, 5}, {1}};
  a.concatenate(b);
  EXPECT_EQ(a, b);
}

TEST(Graph, IsValidPath) {
  Graph g = path_graph(4);
  Path ok{{0, 1, 2}, {0, 1}};
  EXPECT_TRUE(g.is_valid_path(ok));
  EXPECT_FALSE(g.is_valid_path(ok, FaultSet{1}));
  Path broken{{0, 2}, {0}};
  EXPECT_FALSE(g.is_valid_path(broken));
  Path empty;
  EXPECT_FALSE(g.is_valid_path(empty));
}

TEST(FaultSet, SortedUniqueMembership) {
  FaultSet f{5, 3, 5, 1};
  EXPECT_EQ(f.size(), 3u);
  EXPECT_TRUE(f.contains(3));
  EXPECT_FALSE(f.contains(2));
  EXPECT_EQ(f.ids()[0], 1u);
  EXPECT_EQ(f.ids()[2], 5u);
}

TEST(FaultSet, WithWithout) {
  FaultSet f{2};
  const FaultSet g = f.with(7);
  EXPECT_TRUE(g.contains(7));
  EXPECT_FALSE(f.contains(7));  // value semantics
  const FaultSet h = g.without(2);
  EXPECT_FALSE(h.contains(2));
  EXPECT_EQ(h.size(), 1u);
}

TEST(Bfs, DistancesOnPath) {
  Graph g = path_graph(5);
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d, (std::vector<int32_t>{0, 1, 2, 3, 4}));
}

TEST(Bfs, DistanceWithFault) {
  Graph g = cycle(6);
  EXPECT_EQ(bfs_distance(g, 0, 3), 3);
  // Cutting one side forces the long way around.
  EXPECT_EQ(bfs_distance(g, 0, 3, FaultSet{0}), 3);
  EXPECT_EQ(bfs_distance(g, 0, 1, FaultSet{0}), 5);
}

TEST(Bfs, DisconnectedIsUnreachable) {
  Graph g = path_graph(4);
  EXPECT_EQ(bfs_distance(g, 0, 3, FaultSet{1}), kUnreachable);
  const auto d = bfs_distances(g, 0, FaultSet{1});
  EXPECT_EQ(d[2], kUnreachable);
  EXPECT_EQ(d[3], kUnreachable);
}

TEST(Bfs, PathIsShortestAndValid) {
  Graph g = gnp_connected(40, 0.1, 7);
  for (Vertex t : {5u, 17u, 39u}) {
    const Path p = bfs_path(g, 0, t);
    ASSERT_TRUE(g.is_valid_path(p));
    EXPECT_EQ(static_cast<int32_t>(p.length()), bfs_distance(g, 0, t));
  }
}

TEST(Bfs, Connectivity) {
  EXPECT_TRUE(is_connected(cycle(5)));
  EXPECT_FALSE(is_connected(path_graph(4), FaultSet{0}));
}

TEST(Bfs, DiameterOfKnownGraphs) {
  EXPECT_EQ(diameter(path_graph(6)), 5);
  EXPECT_EQ(diameter(cycle(8)), 4);
  EXPECT_EQ(diameter(complete(7)), 1);
  EXPECT_EQ(diameter(grid(3, 4)), 5);
}

TEST(GraphMutation, RemoveTombstonesAndBumpsEpoch) {
  Graph g = cycle(5);
  EXPECT_EQ(g.epoch(), 0u);
  EXPECT_EQ(g.num_present_edges(), 5u);

  GraphDelta d = GraphDelta::remove(0);
  EXPECT_TRUE(g.apply(d));
  EXPECT_EQ(g.epoch(), 1u);
  // The delta came back fully filled in.
  EXPECT_EQ(d.edge, 0u);
  EXPECT_EQ(d.u, cycle(5).endpoints(0).u);
  EXPECT_EQ(d.v, cycle(5).endpoints(0).v);
  EXPECT_EQ(d.label, 0u);
  // Ids stay dense and stable; only the arcs are gone.
  EXPECT_EQ(g.num_edges(), 5u);
  EXPECT_EQ(g.num_present_edges(), 4u);
  EXPECT_FALSE(g.edge_present(0));
  EXPECT_EQ(g.find_edge(d.u, d.v), kNoEdge);
  EXPECT_EQ(g.degree(d.u), 1u);

  // Removing an absent edge is a no-op and does not bump the epoch.
  EXPECT_FALSE(g.remove_edge(0));
  EXPECT_EQ(g.epoch(), 1u);
}

TEST(GraphMutation, ReinsertResurrectsIdAndLabel) {
  Graph g = cycle(6);
  const Edge victim = g.endpoints(2);
  ASSERT_TRUE(g.remove_edge(2));
  // Re-insert with endpoints in the OPPOSITE order: the tombstone is
  // resurrected with its original id, label and stored orientation (label
  // stability -- the antisymmetric weight of the flapped edge is unchanged).
  GraphDelta d = GraphDelta::insert(victim.v, victim.u);
  EXPECT_TRUE(g.apply(d));
  EXPECT_EQ(d.edge, 2u);
  EXPECT_EQ(d.label, 2u);
  EXPECT_EQ(d.u, victim.u);  // normalized back to stored order
  EXPECT_EQ(d.v, victim.v);
  EXPECT_EQ(g.epoch(), 2u);
  EXPECT_TRUE(g.edge_present(2));
  EXPECT_EQ(g.num_edges(), 6u);  // no slot was appended
  EXPECT_EQ(g.find_edge(victim.u, victim.v), 2u);
}

TEST(GraphMutation, FreshInsertAppendsSlotWithIdentityLabel) {
  Graph g = cycle(5);  // no chord 0-2 yet
  const EdgeId e = g.add_edge(0, 2);
  EXPECT_EQ(e, 5u);
  EXPECT_EQ(g.label(e), 5u);
  EXPECT_EQ(g.num_edges(), 6u);
  EXPECT_EQ(g.num_present_edges(), 6u);
  EXPECT_EQ(g.epoch(), 1u);
  EXPECT_EQ(g.find_edge(2, 0), e);
  EXPECT_EQ(g.degree(0), 3u);

  // Duplicate insert is a no-op reporting the existing edge.
  GraphDelta dup = GraphDelta::insert(2, 0);
  EXPECT_FALSE(g.apply(dup));
  EXPECT_EQ(dup.edge, e);
  EXPECT_EQ(g.epoch(), 1u);

  EXPECT_THROW(g.add_edge(1, 1), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 99), std::invalid_argument);
  EXPECT_THROW(g.remove_edge(77), std::invalid_argument);
}

TEST(GraphMutation, FreshInsertNeverDuplicatesACustomLabel) {
  // Non-identity labels (a subgraph view): the fresh slot must get a label
  // no existing edge holds -- per-label tiebreak weights must stay
  // distinct -- not its slot index (which would collide with label 3 here).
  Graph g(4, {{0, 1}, {1, 2}, {2, 3}}, {3, 7, 9});
  GraphDelta d = GraphDelta::insert(0, 2);
  ASSERT_TRUE(g.apply(d));
  EXPECT_EQ(d.edge, 3u);
  EXPECT_EQ(d.label, 10u);  // max existing label + 1
  EXPECT_EQ(g.label(d.edge), 10u);
}

// Everything a batch may touch: slots (endpoints, labels, presence), the
// CSR, and the epoch.
struct GraphState {
  std::vector<std::tuple<Vertex, Vertex, EdgeId, bool>> slots;
  std::vector<std::vector<std::pair<Vertex, EdgeId>>> arcs;
  EdgeId present = 0;
  uint64_t epoch = 0;

  explicit GraphState(const Graph& g)
      : present(g.num_present_edges()), epoch(g.epoch()) {
    for (EdgeId e = 0; e < g.num_edges(); ++e)
      slots.emplace_back(g.endpoints(e).u, g.endpoints(e).v, g.label(e),
                         g.edge_present(e));
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      arcs.emplace_back();
      for (const Arc& a : g.arcs(v)) arcs.back().emplace_back(a.to, a.edge);
    }
  }
  bool operator==(const GraphState&) const = default;
};

TEST(GraphMutation, ThrowingBatchChangesNothing) {
  // A remove that lands, then a self-loop: the remove must not stick.
  Graph g = cycle(5);
  const GraphState fresh(g);
  const std::vector<GraphDelta> remove_then_loop{GraphDelta::remove(0),
                                                 GraphDelta::insert(2, 2)};
  EXPECT_THROW(g.apply(remove_then_loop), std::invalid_argument);
  EXPECT_TRUE(GraphState(g) == fresh);

  // With tombstones already present: a resurrection, a fresh append, a
  // removal of the appended slot, then an id past every slot.
  ASSERT_TRUE(g.remove_edge(3));
  const GraphState tombstoned(g);
  const Edge dead = g.endpoints(3);
  const std::vector<GraphDelta> mixed{
      GraphDelta::insert(dead.v, dead.u), GraphDelta::insert(0, 2),
      GraphDelta::remove(5), GraphDelta::remove(1), GraphDelta::remove(6)};
  EXPECT_THROW(g.apply(mixed), std::invalid_argument);
  EXPECT_TRUE(GraphState(g) == tombstoned);

  // The same batch without the bad id applies: a remove may name a slot an
  // earlier insert of the batch appended.
  const DeltaBatch ok = g.apply(std::span(mixed.data(), 4));
  EXPECT_EQ(g.epoch(), tombstoned.epoch + 1);
  EXPECT_EQ(ok.new_epoch, g.epoch());
  EXPECT_TRUE(g.edge_present(3));
  EXPECT_FALSE(g.edge_present(5));
  EXPECT_FALSE(g.edge_present(1));
}

TEST(GraphMutation, PathsOverRemovedEdgesAreInvalid) {
  Graph g = path_graph(4);  // 0-1-2-3, edges 0,1,2
  Path p{{0, 1, 2}, {0, 1}};
  EXPECT_TRUE(g.is_valid_path(p));
  ASSERT_TRUE(g.remove_edge(1));
  EXPECT_FALSE(g.is_valid_path(p));
  // Arcs of the surviving edges are untouched.
  Path q{{0, 1}, {0}};
  EXPECT_TRUE(g.is_valid_path(q));
}

TEST(GraphMutation, SubgraphOfMutatedGraphIsFreshStaticValue) {
  Graph g = cycle(5);
  g.remove_edge(4);
  const std::vector<EdgeId> keep{0, 1, 2};
  const Graph sub = g.edge_subgraph(keep);
  EXPECT_EQ(sub.epoch(), 0u);
  EXPECT_EQ(sub.num_present_edges(), 3u);
  for (EdgeId e = 0; e < sub.num_edges(); ++e)
    EXPECT_TRUE(sub.edge_present(e));
}

TEST(Io, RoundTrip) {
  Graph g = gnp_connected(25, 0.15, 3);
  std::stringstream ss;
  write_edge_list(g, ss);
  Graph h = read_edge_list(ss);
  ASSERT_EQ(h.num_vertices(), g.num_vertices());
  ASSERT_EQ(h.num_edges(), g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(h.endpoints(e).u, g.endpoints(e).u);
    EXPECT_EQ(h.endpoints(e).v, g.endpoints(e).v);
  }
}

TEST(Io, RejectsGarbage) {
  std::stringstream ss("x 1 2\n");
  EXPECT_THROW(read_edge_list(ss), std::runtime_error);
}

TEST(Io, CommentsAndMissingHeader) {
  std::stringstream ok("# hi\nn 3\ne 0 1\n");
  Graph g = read_edge_list(ok);
  EXPECT_EQ(g.num_vertices(), 3u);
  std::stringstream bad("e 0 1\n");
  EXPECT_THROW(read_edge_list(bad), std::runtime_error);
}

}  // namespace
}  // namespace restorable
