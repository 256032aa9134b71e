// Tests for the property checkers themselves plus the headline
// restorability results: Theorem 19 (ATW schemes are f-restorable),
// Theorem 37 (no symmetric scheme on C4 is 1-restorable, by exhaustive
// enumeration), and the Figure-1 phenomenon (a plausible BFS scheme fails).
#include <algorithm>
#include "core/properties.h"

#include <gtest/gtest.h>

#include "graph/bfs.h"
#include "graph/generators.h"

namespace restorable {
namespace {

TEST(Checkers, ShortestPathsCatchesBadScheme) {
  // A scheme that returns non-shortest paths must be flagged. Build one by
  // running the real scheme on a *different* graph topology via a wrapper.
  Graph g = cycle(6);
  class Lying final : public IRpts {
   public:
    explicit Lying(const Graph& g) : g_(&g) {}
    const Graph& graph() const override { return *g_; }
    std::string name() const override { return "lying"; }
    Spt spt(Vertex root, const FaultSet&, Direction) const override {
      // Claim everything is at distance 1 with nonsense parent edges.
      std::vector<int32_t> hops(g_->num_vertices(), 1);
      std::vector<EdgeId> parent_edge(g_->num_vertices(), EdgeId{0});
      hops[root] = 0;
      parent_edge[root] = kNoEdge;
      Spt t;
      Spt::encode(root, Direction::kOut, hops, parent_edge,
                  g_->shared_endpoints(), t);
      return t;
    }
    std::unique_ptr<IRpts> snapshot_view(const Graph& frozen) const override {
      auto view = std::make_unique<Lying>(frozen);
      view->adopt_identity(*this);
      return view;
    }
   private:
    const Graph* g_;
  };
  Lying pi(g);
  EXPECT_NE(check_shortest_paths(pi, {}), std::nullopt);
}

TEST(Checkers, SymmetryHoldsForArbitraryBfsOnTrees) {
  // On a tree paths are unique, so every scheme is trivially symmetric.
  Graph g = random_tree(20, 3);
  ArbitraryRpts pi(g);
  EXPECT_EQ(check_symmetry(pi, {}), std::nullopt);
}

TEST(Checkers, SymmetryFailsForIsolationOnHypercube) {
  Graph g = hypercube(3);
  IsolationRpts pi(g, IsolationAtw(3));
  EXPECT_NE(check_symmetry(pi, {}), std::nullopt);
}

TEST(Restorability, IsRestorableForVacuousWhenDisconnected) {
  Graph g = path_graph(3);
  IsolationRpts pi(g, IsolationAtw(1));
  // Failing edge 0 disconnects 0 from 2: vacuously restorable.
  EXPECT_TRUE(is_restorable_for(pi, 0, 2, FaultSet{0}));
}

// --- Theorem 19 / Theorem 2: ATW-generated schemes are 1-restorable,
// exhaustively over all (s, t, e).

class OneRestorableSweep : public ::testing::TestWithParam<int> {};

TEST_P(OneRestorableSweep, IsolationExhaustive) {
  const int variant = GetParam();
  Graph g = [&] {
    switch (variant % 4) {
      case 0: return gnp_connected(12, 0.25, 500 + variant);
      case 1: return theta_graph(3, 3);
      case 2: return grid(3, 4);
      default: return hypercube(3);
    }
  }();
  IsolationRpts pi(g, IsolationAtw(77 + variant));
  auto v = check_f_restorable(pi, 1);
  EXPECT_EQ(v, std::nullopt) << (v ? v->to_string() : "");
}

TEST_P(OneRestorableSweep, DeterministicExhaustive) {
  const int variant = GetParam();
  Graph g = variant % 2 ? theta_graph(3, 2) : gnp_connected(10, 0.3, variant);
  DeterministicRpts pi(g, DeterministicAtw(g));
  auto v = check_f_restorable(pi, 1);
  EXPECT_EQ(v, std::nullopt) << (v ? v->to_string() : "");
}

INSTANTIATE_TEST_SUITE_P(Variants, OneRestorableSweep,
                         ::testing::Range(0, 8));

// --- f = 2 and f = 3 restorability on small graphs (Definition 17 with
// proper-subset recursion).

TEST(MultiFaultRestorable, TwoFaultsExhaustiveSmall) {
  Graph g = gnp_connected(8, 0.4, 9);
  IsolationRpts pi(g, IsolationAtw(5));
  auto v = check_f_restorable(pi, 2);
  EXPECT_EQ(v, std::nullopt) << (v ? v->to_string() : "");
}

TEST(MultiFaultRestorable, TwoFaultsOnTheta) {
  Graph g = theta_graph(3, 2);
  IsolationRpts pi(g, IsolationAtw(6));
  auto v = check_f_restorable(pi, 2);
  EXPECT_EQ(v, std::nullopt) << (v ? v->to_string() : "");
}

TEST(MultiFaultRestorable, ThreeFaultsOnSmallDense) {
  Graph g = complete(6);
  IsolationRpts pi(g, IsolationAtw(7));
  auto v = check_f_restorable(pi, 3);
  EXPECT_EQ(v, std::nullopt) << (v ? v->to_string() : "");
}

// --- Figure 1: the plausible BFS scheme is NOT restorable on some graph.

TEST(Figure1, ArbitraryBfsFailsSomewhere) {
  bool failed_somewhere = false;
  for (uint64_t seed = 0; seed < 10 && !failed_somewhere; ++seed) {
    Graph g = gnp_connected(12, 0.25, 900 + seed);
    ArbitraryRpts pi(g);
    if (check_f_restorable(pi, 1) != std::nullopt) failed_somewhere = true;
  }
  EXPECT_TRUE(failed_somewhere);
}

// --- Theorem 37: on C4, NO symmetric tiebreaking scheme is 1-restorable.
// C4 has exactly two tied pairs (the diagonals); enumerate all 2 x 2
// symmetric selections and show each fails for some (s, t, e).

TEST(Theorem37, NoSymmetricSchemeOnC4IsRestorable) {
  const Graph g = cycle(4);  // vertices 0-1-2-3-0
  // Diagonal pairs: (0,2) via 1 or via 3; (1,3) via 2 or via 0.
  // A symmetric scheme is determined (on the tied pairs) by these two bits;
  // adjacent pairs have unique shortest paths (the direct edge).
  for (int via02 = 0; via02 < 2; ++via02) {
    for (int via13 = 0; via13 < 2; ++via13) {
      // pi(0,2) = 0 - m02 - 2, pi(1,3) = 1 - m13 - 3, both symmetric.
      const Vertex m02 = via02 ? 1 : 3;
      const Vertex m13 = via13 ? 2 : 0;
      auto selected_path = [&](Vertex s, Vertex t) -> std::vector<Vertex> {
        if (s == t) return {s};
        if (g.find_edge(s, t) != kNoEdge) return {s, t};
        const Vertex mid = (s == 0 || s == 2) ? m02 : m13;
        return {s, mid, t};
      };
      // 1-restorability of (s, t) under failing edge e with F' = {} forced:
      // need midpoint x with selected s~x and t~x paths avoiding e and
      // |sx| + |tx| == dist_{G\e}(s,t).
      bool scheme_ok = true;
      for (EdgeId e = 0; e < g.num_edges() && scheme_ok; ++e) {
        for (Vertex s = 0; s < 4 && scheme_ok; ++s) {
          for (Vertex t = 0; t < 4 && scheme_ok; ++t) {
            if (s == t) continue;
            const int32_t target = bfs_distance(g, s, t, FaultSet{e});
            if (target == kUnreachable) continue;
            bool ok = false;
            for (Vertex x = 0; x < 4 && !ok; ++x) {
              const auto ps = selected_path(s, x);
              const auto pt = selected_path(t, x);
              auto avoids = [&](const std::vector<Vertex>& p) {
                for (size_t i = 0; i + 1 < p.size(); ++i)
                  if (g.find_edge(p[i], p[i + 1]) == e) return false;
                return true;
              };
              if (avoids(ps) && avoids(pt) &&
                  static_cast<int32_t>(ps.size() + pt.size() - 2) == target)
                ok = true;
            }
            if (!ok) scheme_ok = false;
          }
        }
      }
      EXPECT_FALSE(scheme_ok)
          << "symmetric scheme via02=" << via02 << " via13=" << via13
          << " claimed to be 1-restorable, contradicting Theorem 37";
    }
  }
}

// Asymmetric schemes on C4 *can* be restorable (this is Theorem 2 in its
// smallest interesting instance).

TEST(Theorem37, AsymmetricSchemeOnC4IsRestorable) {
  Graph g = cycle(4);
  IsolationRpts pi(g, IsolationAtw(11));
  auto v = check_f_restorable(pi, 1);
  EXPECT_EQ(v, std::nullopt) << (v ? v->to_string() : "");
}

}  // namespace
}  // namespace restorable
