// Differential suite for exact fault distances through both front-ends
// (serve/shard_aggregator.h at 1 and 2 shards, serve/oracle_server.h).
// A non-empty F is answered from the base tree when it misses the selected
// s~t path (the stability fast path) and from the (s, F) tree otherwise;
// either way the answer must equal the scheme's own (s, F) tree, and each
// front-end's stability counter must count exactly the off-path queries.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "serve/oracle_server.h"
#include "serve/shard_aggregator.h"

namespace restorable {
namespace {

// Two triangles {0,1,2} and {3,4,5} joined by the bridge 2-3 (edge 3), a
// pendant edge 5-6 (edge 7), and vertex 7 with no edge at all.
Graph bridge_and_isolated() {
  return Graph(8, {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {4, 5}, {3, 5},
                   {5, 6}});
}
constexpr EdgeId kBridge = 3;
constexpr EdgeId kPendant = 7;
constexpr Vertex kIsolated = 7;

FrontEndConfig fleet(size_t shards, const BatchSsspEngine* engine) {
  FrontEndConfig fc;
  fc.num_shards = shards;
  fc.shard.engine = engine;
  fc.shard.cache.shards = 2;
  return fc;
}

ServerConfig single(const BatchSsspEngine* engine) {
  ServerConfig cfg;
  cfg.engine = engine;
  cfg.cache.shards = 2;
  return cfg;
}

// Asks every front-end the same fault distances, checks each answer
// against the scheme's (s, F) tree, and tallies the off-path queries.
class Differential {
 public:
  explicit Differential(const IRpts& pi)
      : pi_(pi),
        engine_(1),
        agg1_(pi, fleet(1, &engine_)),
        agg2_(pi, fleet(2, &engine_)),
        server_(pi, single(&engine_)) {}

  // distance(s, t, F) on all three front-ends; with |F| == 1 also
  // replacement_distance, which must agree and count the same way.
  void check(Vertex s, Vertex t, const FaultSet& faults, const Spt& want) {
    const int32_t hops = want.hops(t);
    const std::string where = "s=" + std::to_string(s) +
                              " t=" + std::to_string(t) +
                              " F=" + faults.to_string();
    EXPECT_EQ(agg1_.distance(s, t, faults), hops) << "1 shard, " << where;
    EXPECT_EQ(agg2_.distance(s, t, faults), hops) << "2 shards, " << where;
    EXPECT_EQ(server_.distance(s, t, faults), hops) << "server, " << where;
    size_t asked = 1;
    if (faults.size() == 1) {
      const EdgeId e = *faults.begin();
      EXPECT_EQ(agg1_.replacement_distance(s, t, e), hops) << where;
      EXPECT_EQ(agg2_.replacement_distance(s, t, e), hops) << where;
      EXPECT_EQ(server_.replacement_distance(s, t, e), hops) << where;
      asked = 2;
    }
    if (faults.empty()) return;
    // The reference selected path, from the scheme itself (empty when t is
    // unreachable, which leaves nothing for F to meet).
    const Path base = pi_.path(s, t);
    const bool off_path = std::none_of(
        faults.begin(), faults.end(),
        [&](EdgeId e) { return base.uses_edge(e); });
    if (off_path) off_path_ += asked;
    if (!off_path) on_path_ += asked;
  }

  void check(Vertex s, Vertex t, const FaultSet& faults) {
    check(s, t, faults, pi_.spt(s, faults));
  }

  // Every front-end's stability counter, through its accessor and through
  // one registry snapshot (a fleet's are its shards' `server` rows),
  // equals the off-path tally exactly.
  void expect_counters() {
    for (ShardAggregator* fe : {&agg1_, &agg2_}) {
      EXPECT_EQ(fe->stats().stability_fast_paths, off_path_);
      const obs::MetricsSnapshot snap = fe->metrics().snapshot();
      int64_t rows = 0;
      for (size_t k = 0; k < fe->num_shards(); ++k)
        rows += snap.value_or("shard" + std::to_string(k) + ".server",
                              "stability_fast_paths");
      EXPECT_EQ(rows, static_cast<int64_t>(off_path_));
    }
    EXPECT_EQ(server_.stability_fast_paths(), off_path_);
    EXPECT_EQ(server_.stats().stability_fast_paths, off_path_);
    EXPECT_EQ(server_.metrics().snapshot().value_or("server",
                                                    "stability_fast_paths"),
              static_cast<double>(off_path_));
  }

  uint64_t off_path() const { return off_path_; }
  uint64_t on_path() const { return on_path_; }

 private:
  const IRpts& pi_;
  const BatchSsspEngine engine_;
  ShardAggregator agg1_;
  ShardAggregator agg2_;
  OracleServer server_;
  uint64_t off_path_ = 0;
  uint64_t on_path_ = 0;
};

// Every root s, every edge e, a few targets t.
void sweep_single_faults(const Graph& g, uint64_t seed) {
  const IsolationRpts pi(g, IsolationAtw(seed));
  Differential d(pi);
  const Vertex n = g.num_vertices();
  for (Vertex s = 0; s < n; ++s) {
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const FaultSet f{e};
      const Spt want = pi.spt(s, f);
      for (const Vertex t : {Vertex{0}, n / 2, n - 1,
                             static_cast<Vertex>((s + 7 * e) % n)})
        d.check(s, t, f, want);
    }
  }
  // Both branches ran: the sweep is a real differential, not a tautology.
  EXPECT_GT(d.off_path(), 0u);
  EXPECT_GT(d.on_path(), 0u);
  d.expect_counters();
}

TEST(FaultDistance, EverySingleFaultOnGnp) {
  sweep_single_faults(gnp_connected(40, 0.1, 17), 18);
}

TEST(FaultDistance, EverySingleFaultOnGrid) {
  sweep_single_faults(grid(6, 7), 19);
}

TEST(FaultDistance, EverySingleFaultWithBridgeAndIsolatedVertex) {
  sweep_single_faults(bridge_and_isolated(), 20);
}

// Two-fault sets with one edge on the selected path and one off it, in
// both id orders: a test that looked only at F's first (smallest) edge
// would answer half of them from the base tree.
TEST(FaultDistance, TwoFaultsOneOnPathOneOff) {
  const Graph g = gnp_connected(40, 0.1, 23);
  const IsolationRpts pi(g, IsolationAtw(24));
  Differential d(pi);
  size_t below = 0, above = 0;
  for (const Vertex s : {Vertex{0}, Vertex{13}, Vertex{29}}) {
    for (const Vertex t : {Vertex{5}, Vertex{21}, Vertex{38}}) {
      const Path p = pi.path(s, t);
      for (const EdgeId on : p.edges) {
        for (EdgeId off = 0; off < g.num_edges(); off += 3) {
          if (p.uses_edge(off)) continue;
          (off < on ? below : above) += 1;
          d.check(s, t, FaultSet{on, off});
        }
      }
      // Both faults off the path: the base tree answers.
      for (EdgeId a = 0; a + 1 < g.num_edges(); a += 5)
        if (!p.uses_edge(a) && !p.uses_edge(a + 1))
          d.check(s, t, FaultSet{a, a + 1});
    }
  }
  EXPECT_GT(below, 0u);
  EXPECT_GT(above, 0u);
  d.expect_counters();
}

// t reachable fault-free but cut off by F; unreachable even fault-free;
// and s == t, which no fault can move.
TEST(FaultDistance, UnreachableUnderFaultsAndSelfQueries) {
  const Graph g = bridge_and_isolated();
  const IsolationRpts pi(g, IsolationAtw(31));
  Differential d(pi);
  // Only under F: the bridge or the pendant edge is on the selected path.
  d.check(0, 6, FaultSet{kBridge});
  d.check(0, 6, FaultSet{kPendant});
  d.check(1, 6, FaultSet{0, kBridge});
  d.check(6, 0, FaultSet{kPendant, 1});
  EXPECT_EQ(pi.spt(0, FaultSet{kBridge}).hops(6), kUnreachable);
  EXPECT_EQ(pi.spt(6, FaultSet{kPendant}).hops(0), kUnreachable);
  EXPECT_EQ(d.off_path(), 0u);
  EXPECT_EQ(d.on_path(), 6u);
  // Unreachable fault-free: answered from the base tree alone.
  d.check(0, kIsolated, FaultSet{kBridge});
  d.check(kIsolated, 4, FaultSet{2, 5});
  // s == t.
  for (Vertex s = 0; s < g.num_vertices(); ++s)
    for (EdgeId e = 0; e < g.num_edges(); ++e) d.check(s, s, FaultSet{e});
  EXPECT_EQ(d.on_path(), 6u);
  d.expect_counters();
}

// A tree carried across an insert keeps the endpoint table it was built
// on, which has no row for the new edge: a fault on that edge lies on no
// carried path. In cycle(8) the chord 2-6 joins two vertices 2 hops from
// root 0, so it shortens nothing and root 0's tree is carried.
template <typename FrontEnd, typename Config>
void expect_new_edge_off_carried_paths(const Config& config) {
  Graph g = cycle(8);
  const IsolationRpts pi(g, IsolationAtw(41));
  FrontEnd fe(pi, config);
  fe.distance(0, 4);
  const UpdateResult res = fe.apply_update(g, GraphDelta::insert(2, 6));
  const EdgeId chord = res.delta.edge;
  ASSERT_EQ(chord, 8u);
  ASSERT_GT(res.carried, 0u);
  ASSERT_EQ(fe.tree({0, {}, Direction::kOut})->endpoints()->size(), 8u);
  const Spt want = pi.spt(0, FaultSet{chord});
  for (Vertex t = 0; t < 8; ++t)
    EXPECT_EQ(fe.distance(0, t, FaultSet{chord}), want.hops(t)) << "t=" << t;
  EXPECT_EQ(fe.stats().stability_fast_paths, 8u);
}

TEST(FaultDistance, FaultOnEdgeNewerThanCarriedTree) {
  const BatchSsspEngine engine(1);
  expect_new_edge_off_carried_paths<OracleServer>(single(&engine));
  expect_new_edge_off_carried_paths<ShardAggregator>(fleet(2, &engine));
}

}  // namespace
}  // namespace restorable
