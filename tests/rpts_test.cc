// Tests for the RPTS layer: SPT structure, path extraction, directionality
// (out vs in trees under antisymmetric weights), and the Theorem 19
// guarantees (consistency + stability) across policies, graphs and fault
// sets -- the latter via parameterized property sweeps.
#include "core/rpts.h"

#include <gtest/gtest.h>

#include "core/properties.h"
#include "graph/bfs.h"
#include "graph/generators.h"

namespace restorable {
namespace {

TEST(Spt, PathToSelfIsTrivial) {
  Graph g = cycle(5);
  IsolationRpts pi(g, IsolationAtw(1));
  const Spt t = pi.spt(2);
  const Path p = t.path_to(2);
  EXPECT_EQ(p.vertices, std::vector<Vertex>{2});
  EXPECT_TRUE(p.edges.empty());
}

TEST(Spt, OutPathOrientation) {
  Graph g = path_graph(4);
  IsolationRpts pi(g, IsolationAtw(1));
  const Path p = pi.path(0, 3);
  EXPECT_EQ(p.source(), 0u);
  EXPECT_EQ(p.target(), 3u);
  EXPECT_EQ(p.length(), 3u);
}

TEST(Spt, InPathOrientation) {
  Graph g = path_graph(4);
  IsolationRpts pi(g, IsolationAtw(1));
  const Spt in = pi.spt(3, {}, Direction::kIn);
  const Path p = in.path_to(0);  // pi(0, 3): travels 0 -> 3
  EXPECT_EQ(p.source(), 0u);
  EXPECT_EQ(p.target(), 3u);
}

TEST(Spt, TreeEdgesCountMatchesReachability) {
  Graph g = gnp_connected(30, 0.1, 5);
  IsolationRpts pi(g, IsolationAtw(2));
  const Spt t = pi.spt(0);
  EXPECT_EQ(t.tree_edges().size(), g.num_vertices() - 1u);
}

TEST(Spt, PathsUsingEdgeMarks) {
  Graph g = path_graph(5);
  IsolationRpts pi(g, IsolationAtw(3));
  const Spt t = pi.spt(0);
  const auto uses = t.paths_using_edge(1);  // edge (1,2)
  EXPECT_FALSE(uses[0]);
  EXPECT_FALSE(uses[1]);
  EXPECT_TRUE(uses[2]);
  EXPECT_TRUE(uses[3]);
  EXPECT_TRUE(uses[4]);
}

TEST(Spt, UnreachableAfterFault) {
  Graph g = path_graph(4);
  IsolationRpts pi(g, IsolationAtw(4));
  const Spt t = pi.spt(0, FaultSet{1});
  EXPECT_TRUE(t.reachable(1));
  EXPECT_FALSE(t.reachable(2));
  EXPECT_TRUE(pi.path(0, 3, FaultSet{1}).empty());
  EXPECT_EQ(pi.distance(0, 3, FaultSet{1}), kUnreachable);
}

// The in-tree and out-tree encode the same scheme: pi(s, t) read from the
// out-tree of s must equal pi(s, t) read from the in-tree of t.
TEST(Spt, InOutDuality) {
  Graph g = gnp_connected(16, 0.25, 8);
  IsolationRpts pi(g, IsolationAtw(5));
  for (Vertex t = 0; t < g.num_vertices(); ++t) {
    const Spt in = pi.spt(t, {}, Direction::kIn);
    for (Vertex s = 0; s < g.num_vertices(); ++s) {
      if (s == t) continue;
      EXPECT_EQ(pi.path(s, t), in.path_to(s)) << "s=" << s << " t=" << t;
    }
  }
}

TEST(Spt, InOutDualityUnderFaults) {
  Graph g = theta_graph(3, 3);
  IsolationRpts pi(g, IsolationAtw(6));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const FaultSet f{e};
    const Spt in = pi.spt(1, f, Direction::kIn);
    for (Vertex s = 0; s < g.num_vertices(); ++s) {
      if (s == 1) continue;
      EXPECT_EQ(pi.path(s, 1, f), in.path_to(s));
    }
  }
}

TEST(Rpts, AsymmetryIsAllowedAndReal) {
  // On tie-heavy graphs the selected s->t and t->s paths genuinely differ
  // for some pair (this is the point of the main theorem: symmetry must be
  // given up). Find at least one asymmetric pair on a hypercube.
  Graph g = hypercube(3);
  IsolationRpts pi(g, IsolationAtw(7));
  bool found_asymmetric = false;
  for (Vertex s = 0; s < g.num_vertices() && !found_asymmetric; ++s)
    for (Vertex t = 0; t < g.num_vertices() && !found_asymmetric; ++t) {
      if (s == t) continue;
      if (pi.path(s, t) != pi.path(t, s).reversed()) found_asymmetric = true;
    }
  EXPECT_TRUE(found_asymmetric);
}

TEST(Rpts, SubgraphViewKeepsSelection) {
  // Restricting the scheme to a subgraph containing pi(s, t) must select
  // the same path (weights ride on labels).
  Graph g = gnp_connected(20, 0.2, 9);
  IsolationRpts pi(g, IsolationAtw(8));
  const Spt t0 = pi.spt(0);
  const Spt t5 = pi.spt(5);
  std::vector<EdgeId> union_ids = t0.tree_edges();
  for (EdgeId e : t5.tree_edges()) union_ids.push_back(e);
  std::sort(union_ids.begin(), union_ids.end());
  union_ids.erase(std::unique(union_ids.begin(), union_ids.end()),
                  union_ids.end());
  Graph h = g.edge_subgraph(union_ids);
  IsolationRpts pih = pi.over(h);
  // pi_h(0, v) = pi_g(0, v) for every v: same perturbed weights, and the
  // tree T_0 is fully present in h.
  const Spt th = pih.spt(0);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(th.hops(v), t0.hops(v));
    Path a = th.path_to(v), b = t0.path_to(v);
    // Compare as vertex sequences (edge ids differ between g and h).
    EXPECT_EQ(a.vertices, b.vertices);
  }
}

// An isolation scheme needs 0 < W (W = 0 makes every tie collide) and
// (n - 1) * W < 2^62 (a path's tie sum stays inside int64).
TEST(Rpts, RejectsIsolationWeightRangeOutOfBounds) {
  const Graph g = cycle(5);  // n - 1 = 4
  EXPECT_THROW(IsolationRpts(g, IsolationAtw(1, 0)), std::invalid_argument);
  EXPECT_THROW(IsolationRpts(g, IsolationAtw(1, -3)), std::invalid_argument);
  EXPECT_THROW(IsolationRpts(g, IsolationAtw(1, int64_t{1} << 60)),
               std::invalid_argument);
  EXPECT_NO_THROW(IsolationRpts(g, IsolationAtw(1, (int64_t{1} << 60) - 1)));
  EXPECT_NO_THROW(IsolationRpts(g, IsolationAtw(1, 1)));
  EXPECT_NO_THROW(IsolationRpts(g, IsolationAtw(1)));
  try {
    IsolationRpts pi(g, IsolationAtw(1, 0));
    ADD_FAILURE() << "W = 0 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("weight range"), std::string::npos)
        << e.what();
  }
  // One vertex has no path to overflow, but 2W + 1 must still fit.
  const Graph single(1, {});
  EXPECT_NO_THROW(IsolationRpts(single, IsolationAtw(1, 5)));
  EXPECT_THROW(IsolationRpts(single, IsolationAtw(1, int64_t{1} << 62)),
               std::invalid_argument);
  // The default scheme scales W down to fit any n.
  const Graph big(1u << 20, {});
  EXPECT_THROW(IsolationRpts(big, IsolationAtw(1)), std::invalid_argument);
  EXPECT_NO_THROW(make_default_rpts(big, 1));
}

TEST(ArbitraryRpts, IsShortestAndDeterministic) {
  Graph g = gnp_connected(25, 0.15, 10);
  ArbitraryRpts pi(g);
  EXPECT_EQ(check_shortest_paths(pi, {}), std::nullopt);
  const Spt a = pi.spt(3);
  const Spt b = pi.spt(3);
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  for (Vertex v = 0; v < a.num_vertices(); ++v)
    EXPECT_EQ(a.parent(v), b.parent(v));
}

// ---------------------------------------------------------------------------
// Property sweep: Theorem 19 (stability, consistency) for every policy over
// several graph families and fault sets.

struct SweepParam {
  std::string family;
  int variant;
  std::string policy;
};

class Theorem19Sweep : public ::testing::TestWithParam<SweepParam> {
 protected:
  Graph make_graph() const {
    const auto& p = GetParam();
    if (p.family == "gnp") return gnp_connected(14, 0.25, 100 + p.variant);
    if (p.family == "grid") return grid(3, 3 + p.variant);
    if (p.family == "theta") return theta_graph(3, 2 + p.variant);
    if (p.family == "cycle") return cycle(5 + p.variant);
    if (p.family == "hypercube") return hypercube(3);
    return complete(5 + p.variant);
  }

  std::unique_ptr<IRpts> make_scheme(const Graph& g) const {
    const auto& p = GetParam();
    if (p.policy == "isolation")
      return std::make_unique<IsolationRpts>(g, IsolationAtw(42 + p.variant));
    if (p.policy == "deterministic")
      return std::make_unique<DeterministicRpts>(g, DeterministicAtw(g));
    return std::make_unique<RandomRealRpts>(
        g, RandomRealAtw(42 + p.variant, g.num_vertices()));
  }
};

TEST_P(Theorem19Sweep, SelectsShortestPaths) {
  const Graph g = make_graph();
  auto pi = make_scheme(g);
  auto v = check_shortest_paths(*pi, {});
  EXPECT_EQ(v, std::nullopt) << (v ? v->to_string() : "");
  // Also under a couple of single faults.
  for (EdgeId e = 0; e < std::min<EdgeId>(3, g.num_edges()); ++e) {
    v = check_shortest_paths(*pi, FaultSet{e});
    EXPECT_EQ(v, std::nullopt) << (v ? v->to_string() : "");
  }
}

TEST_P(Theorem19Sweep, Consistent) {
  const Graph g = make_graph();
  auto pi = make_scheme(g);
  auto v = check_consistency(*pi, {}, /*max_pairs=*/60);
  EXPECT_EQ(v, std::nullopt) << (v ? v->to_string() : "");
  v = check_consistency(*pi, FaultSet{0}, /*max_pairs=*/40);
  EXPECT_EQ(v, std::nullopt) << (v ? v->to_string() : "");
}

TEST_P(Theorem19Sweep, Stable) {
  const Graph g = make_graph();
  auto pi = make_scheme(g);
  auto v = check_stability(*pi, {}, /*max_pairs=*/25);
  EXPECT_EQ(v, std::nullopt) << (v ? v->to_string() : "");
  v = check_stability(*pi, FaultSet{1}, /*max_pairs=*/15);
  EXPECT_EQ(v, std::nullopt) << (v ? v->to_string() : "");
}

std::vector<SweepParam> sweep_params() {
  std::vector<SweepParam> out;
  for (const std::string policy :
       {"isolation", "deterministic", "randomreal"})
    for (const std::string family :
         {"gnp", "grid", "theta", "cycle", "hypercube"})
      for (int variant = 0; variant < 2; ++variant)
        out.push_back({family, variant, policy});
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Families, Theorem19Sweep, ::testing::ValuesIn(sweep_params()),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return info.param.policy + "_" + info.param.family + "_" +
             std::to_string(info.param.variant);
    });

}  // namespace
}  // namespace restorable
