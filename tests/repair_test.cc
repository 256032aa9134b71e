// Tests for the batched-delta + incremental-repair pipeline: Graph's
// batched apply (one epoch bump, net-effect collapsing), the batch
// carry-forward predicate, and Rpts<Policy>::repair_tree -- whose results
// must be bit-identical to from-scratch recomputes across removals,
// inserts, mixed bursts, disconnections and all three ATW policies, at
// several engine widths.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "serve/oracle_server.h"
#include "serve/shard_aggregator.h"
#include "util/random.h"

namespace restorable {
namespace {

void expect_same_tree(const Spt& got, const Spt& want) {
  EXPECT_EQ(got.root, want.root);
  EXPECT_EQ(got.dir, want.dir);
  ASSERT_EQ(got.num_vertices(), want.num_vertices());
  for (Vertex v = 0; v < want.num_vertices(); ++v) {
    EXPECT_EQ(got.hops(v), want.hops(v)) << "v=" << v;
    EXPECT_EQ(got.parent(v), want.parent(v)) << "v=" << v;
    EXPECT_EQ(got.parent_edge(v), want.parent_edge(v)) << "v=" << v;
  }
}

bool same_tree(const Spt& a, const Spt& b) {
  if (a.root != b.root || a.dir != b.dir ||
      a.num_vertices() != b.num_vertices())
    return false;
  for (Vertex v = 0; v < a.num_vertices(); ++v)
    if (a.hops(v) != b.hops(v) || a.parent_edge(v) != b.parent_edge(v))
      return false;
  return true;
}

TEST(GraphBatchApply, OneEpochBumpAndFilledDeltas) {
  Graph g = gnp_connected(30, 0.15, 3);
  const uint64_t e0 = g.epoch();
  std::vector<GraphDelta> deltas{GraphDelta::remove(0), GraphDelta::remove(1),
                                 GraphDelta::remove(0)};  // 3rd is a no-op
  const DeltaBatch batch = g.apply(std::span<const GraphDelta>(deltas));
  EXPECT_TRUE(batch.changed());
  EXPECT_EQ(batch.old_epoch, e0);
  EXPECT_EQ(batch.new_epoch, e0 + 1);  // ONE bump for the whole batch
  EXPECT_EQ(g.epoch(), e0 + 1);
  ASSERT_EQ(batch.deltas.size(), 3u);
  for (const GraphDelta& d : batch.deltas) {
    // Every echoed delta is a complete record, no-ops included.
    EXPECT_NE(d.edge, kNoEdge);
    EXPECT_NE(d.u, kNoVertex);
    EXPECT_NE(d.label, kNoEdge);
  }
  ASSERT_EQ(batch.net.size(), 2u);  // the duplicate removal collapsed
  EXPECT_FALSE(g.edge_present(0));
  EXPECT_FALSE(g.edge_present(1));

  // A batch of pure no-ops: no bump, no net effect.
  std::vector<GraphDelta> noops{GraphDelta::remove(0)};
  const DeltaBatch nothing = g.apply(std::span<const GraphDelta>(noops));
  EXPECT_FALSE(nothing.changed());
  EXPECT_TRUE(nothing.net.empty());
  EXPECT_EQ(g.epoch(), e0 + 1);
}

TEST(GraphBatchApply, SequentialInteractionAndNetCollapse) {
  Graph g = cycle(8);
  // Remove edge 2, then re-insert the same endpoints inside ONE batch: the
  // tombstone resurrects (same id, same label) and the net effect is empty
  // even though the epoch bumped.
  const Edge ed = g.endpoints(2);
  std::vector<GraphDelta> flap{GraphDelta::remove(2),
                               GraphDelta::insert(ed.u, ed.v)};
  const DeltaBatch batch = g.apply(std::span<const GraphDelta>(flap));
  EXPECT_TRUE(batch.changed());
  EXPECT_TRUE(batch.net.empty());
  EXPECT_EQ(batch.deltas[1].edge, 2u);   // resurrected id
  EXPECT_EQ(batch.deltas[1].label, 2u);  // label stability
  EXPECT_TRUE(g.edge_present(2));

  // The reverse order: insert a fresh chord then remove it -- the appended
  // slot stays as a tombstone, but the net effect is still empty.
  const EdgeId slots = g.num_edges();
  std::vector<GraphDelta> blip{GraphDelta::insert(0, 4)};
  blip.push_back(GraphDelta::remove(slots));  // the id the insert will get
  const DeltaBatch b2 = g.apply(std::span<const GraphDelta>(blip));
  EXPECT_TRUE(b2.changed());
  EXPECT_EQ(b2.deltas[0].edge, slots);
  EXPECT_TRUE(b2.net.empty());
  EXPECT_FALSE(g.edge_present(slots));
}

TEST(BatchSurvives, NetNoOpCarriesEverything) {
  Graph g = gnp_connected(40, 0.1, 5);
  const IsolationRpts pi(g, IsolationAtw(6));
  std::vector<Spt> trees;
  for (Vertex r = 0; r < g.num_vertices(); r += 3) trees.push_back(pi.spt(r));

  // Flap a tree edge of root 0 inside one batch: net-empty, so EVERY tree
  // survives vacuously -- including the trees that used the flapped edge.
  Vertex x = 1;
  while (trees[0].parent(x) == kNoVertex) ++x;
  const EdgeId victim = trees[0].parent_edge(x);
  const Edge ed = g.endpoints(victim);
  std::vector<GraphDelta> flap{GraphDelta::remove(victim),
                               GraphDelta::insert(ed.u, ed.v)};
  const DeltaBatch batch = g.apply(std::span<const GraphDelta>(flap));
  ASSERT_TRUE(batch.changed());
  ASSERT_TRUE(batch.net.empty());
  size_t i = 0;
  for (Vertex r = 0; r < g.num_vertices(); r += 3, ++i) {
    EXPECT_TRUE(pi.batch_survives(batch, trees[i], FaultSet{}));
    expect_same_tree(trees[i], pi.spt(r));  // and they really are unchanged
  }
}

// Drives one random delta batch through a policy's repair path for a mixed
// population of trees (base / fault / in-trees), asserting bit-identity
// against from-scratch recomputes and that batch_survives is exact: a tree
// survives iff its recompute is bit-identical. With `exact_ties` false
// (long-double ties, which may collide) only "survives => identical" is
// asserted.
template <typename PolicyT>
void fuzz_policy(const std::string& name, const Graph& g0, PolicyT policy,
                 uint64_t seed, bool allow_fresh_inserts,
                 bool exact_ties = true) {
  SCOPED_TRACE(name + " seed=" + std::to_string(seed));
  Graph g = g0;
  const Rpts<PolicyT> pi(g, std::move(policy));
  Rng rng(seed);

  // Tree population: base out-trees everywhere, in-trees and single-fault
  // trees on a stride.
  std::vector<SsspRequest> reqs;
  for (Vertex r = 0; r < g.num_vertices(); ++r)
    reqs.push_back({r, {}, Direction::kOut});
  for (Vertex r = 0; r < g.num_vertices(); r += 5)
    reqs.push_back({r, {}, Direction::kIn});
  for (Vertex r = 0; r < g.num_vertices(); r += 7)
    reqs.push_back(
        {r, FaultSet{static_cast<EdgeId>(rng.next_below(g.num_edges()))},
         Direction::kOut});
  std::vector<Spt> trees;
  trees.reserve(reqs.size());
  for (const auto& r : reqs) trees.push_back(pi.spt(r.root, r.faults, r.dir));

  size_t repaired_total = 0, survived = 0, changed = 0;
  std::vector<EdgeId> out;  // currently removed, candidates for re-insert
  for (int round = 0; round < 6; ++round) {
    // Random batch of 1..5 deltas: removals of present edges, re-inserts of
    // removed ones, and (where the policy can price fresh labels) brand-new
    // chords.
    std::vector<GraphDelta> deltas;
    const size_t k = 1 + rng.next_below(5);
    for (size_t i = 0; i < k; ++i) {
      const uint64_t kind = rng.next_below(3);
      if (kind == 0 && !out.empty()) {
        const size_t j = rng.next_below(out.size());
        const Edge& ed = g.endpoints(out[j]);
        deltas.push_back(GraphDelta::insert(ed.u, ed.v));
        out.erase(out.begin() + static_cast<ptrdiff_t>(j));
      } else if (kind == 1 && allow_fresh_inserts) {
        const Vertex a = static_cast<Vertex>(rng.next_below(g.num_vertices()));
        const Vertex b = static_cast<Vertex>(rng.next_below(g.num_vertices()));
        if (a == b) continue;
        deltas.push_back(GraphDelta::insert(a, b));
      } else {
        EdgeId e = static_cast<EdgeId>(rng.next_below(g.num_edges()));
        if (!g.edge_present(e)) continue;
        deltas.push_back(GraphDelta::remove(e));
        out.push_back(e);
      }
    }
    if (deltas.empty()) continue;
    const DeltaBatch batch = g.apply(std::span<const GraphDelta>(deltas));
    // Re-inserts of edges that a racing removal in the same batch dropped
    // again, etc., are all fine -- `out` just tracks ids approximately; the
    // authoritative state is the graph's.
    out.clear();
    for (EdgeId e = 0; e < g.num_edges(); ++e)
      if (!g.edge_present(e)) out.push_back(e);

    // Repairs ride the engine pool at widths 1 / 2 / 8 across rounds; the
    // result is a pure function of (tree, batch), so the width must not
    // matter. Assertions run sequentially afterwards.
    const int widths[] = {1, 2, 8};
    const BatchSsspEngine engine(widths[round % 3]);
    const double threshold = round % 2 ? kDefaultRepairFraction : 1.0;
    std::vector<Spt> want(reqs.size());
    std::vector<RepairOutcome> outcomes(reqs.size());
    engine.parallel_for(reqs.size(), [&](size_t i) {
      want[i] = pi.spt(reqs[i].root, reqs[i].faults, reqs[i].dir);
      outcomes[i] =
          pi.repair_tree(trees[i], batch, reqs[i].faults, threshold);
    });
    for (size_t i = 0; i < reqs.size(); ++i) {
      SCOPED_TRACE("round " + std::to_string(round) + " req " +
                   std::to_string(i) + " root " +
                   std::to_string(reqs[i].root));
      // Exactness of the batch predicate: survivors are bit-identical, and
      // (exact ties) every tree whose recompute is identical survives.
      const bool survives = pi.batch_survives(batch, trees[i], reqs[i].faults);
      const bool same = same_tree(trees[i], want[i]);
      survived += survives;
      changed += !same;
      if (survives) expect_same_tree(trees[i], want[i]);
      if (exact_ties) {
        EXPECT_EQ(survives, same);
      }
      // Repair is bit-identical whether or not the tree survived, at any
      // threshold (tiny thresholds force the full-recompute fallback).
      expect_same_tree(outcomes[i].tree, want[i]);
      if (outcomes[i].repaired) ++repaired_total;
      trees[i] = std::move(want[i]);
    }
  }
  // The incremental path must actually fire (not fall back every time),
  // and the predicate must see both outcomes.
  EXPECT_GT(repaired_total, 0u);
  EXPECT_GT(survived, 0u);
  EXPECT_GT(changed, 0u);
}

TEST(RepairTree, FuzzBitIdenticalIsolation) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    const Graph g = gnp_connected(48, 0.09, 100 + seed);
    fuzz_policy("isolation", g, IsolationAtw(seed), seed,
                /*allow_fresh_inserts=*/true);
  }
}

TEST(RepairTree, FuzzBitIdenticalRandomReal) {
  for (uint64_t seed : {21u, 22u}) {
    const Graph g = gnp_connected(40, 0.1, 200 + seed);
    fuzz_policy("random-real", g, RandomRealAtw(seed, 40), seed,
                /*allow_fresh_inserts=*/true, /*exact_ties=*/false);
  }
}

TEST(RepairTree, FuzzBitIdenticalDeterministic) {
  // DeterministicAtw tabulates sign(u - v) per label at construction, so a
  // fresh appended slot has no weight -- neither repair nor a from-scratch
  // recompute could price it. Restrict the fuzz to removals and re-inserts
  // (flaps), which keep their labels.
  for (uint64_t seed : {31u, 32u}) {
    const Graph g = gnp_connected(36, 0.11, 300 + seed);
    fuzz_policy("deterministic", g, DeterministicAtw(g), seed,
                /*allow_fresh_inserts=*/false);
  }
}

TEST(RepairTree, DisconnectionAndReattachment) {
  // dumbbell: clique -- bridge path -- clique. Removing a bridge edge
  // detaches the far half (repair must mark it unreachable); re-inserting
  // it in a later batch must reattach it bit-identically.
  Graph g = dumbbell(5, 3);
  const IsolationRpts pi(g, IsolationAtw(9));
  const Spt t0 = pi.spt(0);
  Vertex far = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    if (t0.hops(v) > t0.hops(far)) far = v;
  EdgeId bridge = kNoEdge;
  for (Vertex v = far; t0.parent(v) != kNoVertex; v = t0.parent(v)) {
    const Edge& e = g.endpoints(t0.parent_edge(v));
    if (g.degree(e.u) == 2 && g.degree(e.v) == 2) {
      bridge = t0.parent_edge(v);
      break;
    }
  }
  ASSERT_NE(bridge, kNoEdge);

  std::vector<GraphDelta> cut{GraphDelta::remove(bridge)};
  const DeltaBatch b1 = g.apply(std::span<const GraphDelta>(cut));
  const auto r1 = pi.repair_tree(t0, b1, FaultSet{}, 1.0);
  expect_same_tree(r1.tree, pi.spt(0));
  EXPECT_FALSE(r1.tree.reachable(far));

  const Edge ed = g.endpoints(bridge);
  std::vector<GraphDelta> heal{GraphDelta::insert(ed.u, ed.v)};
  const DeltaBatch b2 = g.apply(std::span<const GraphDelta>(heal));
  const auto r2 = pi.repair_tree(r1.tree, b2, FaultSet{}, 1.0);
  EXPECT_TRUE(r2.repaired);
  expect_same_tree(r2.tree, t0);  // the flap restored the original tree
}

// Regression: a repaired tree must carry the REPAIRING graph's endpoint
// table, not the one the cached tree was built with. A fresh-slot insert
// clones the shared table inside Graph::edges_mut (copy-on-write), so every
// pre-existing tree keeps a stale, shorter table; the repair then writes the
// new slot id into parent_edge, and deriving parent(v) from the stale table
// would read the endpoint vector out of bounds.
TEST(RepairTree, ReattachesEndpointTableAcrossFreshInsert) {
  Graph g = path_graph(8);
  const IsolationRpts pi(g, IsolationAtw(4));
  const Spt t0 = pi.spt(0);
  ASSERT_TRUE(t0.endpoints());
  const EdgeId old_slots = static_cast<EdgeId>(t0.endpoints()->size());

  // Fresh chord 0-7: appends a slot, cloning the shared endpoint table out
  // from under t0.
  std::vector<GraphDelta> ins{GraphDelta::insert(0, 7)};
  const DeltaBatch batch = g.apply(std::span<const GraphDelta>(ins));
  const EdgeId fresh = batch.deltas[0].edge;
  ASSERT_EQ(fresh, old_slots);  // appended, not a resurrected tombstone
  ASSERT_EQ(t0.endpoints()->size(), old_slots);  // cached table is stale
  ASSERT_GT(g.shared_endpoints()->size(), old_slots);

  const auto r = pi.repair_tree(t0, batch, FaultSet{}, 1.0);
  EXPECT_TRUE(r.repaired);
  EXPECT_EQ(r.tree.parent_edge(7), fresh);  // the repair adopted the chord
  ASSERT_TRUE(r.tree.endpoints());
  EXPECT_GT(r.tree.endpoints()->size(), fresh);  // current table, covers it
  EXPECT_EQ(r.tree.parent(7), 0u);
  expect_same_tree(r.tree, pi.spt(0));

  // Same contract on the epsilon repair path.
  const auto re =
      pi.repair_tree(t0, batch, FaultSet{}, 1.0, quantize_epsilon(0.25));
  ASSERT_TRUE(re.tree.endpoints());
  EXPECT_GT(re.tree.endpoints()->size(), fresh);
  EXPECT_EQ(re.tree.parent(7), 0u);
}

// The affected-region ceiling: a zero threshold clamps to the minimum
// allowance, a huge detach cannot fit, so the repair must recompute -- and
// still be bit-identical. The ceiling is computed without UB for any
// fraction: a NaN or negative one gets the minimum allowance, and one >= 1
// (however large) never falls back, on both tiers.
TEST(RepairTree, ThresholdFallsBackToRecompute) {
  Graph g = gnp_connected(50, 0.1, 44);
  const IsolationRpts pi(g, IsolationAtw(45));
  const uint32_t eps_q = quantize_epsilon(0.25);
  const Spt t0 = pi.spt(0);
  const Spt a0 = *pi.spt_batch(
      std::vector<SsspRequest>{{0, {}, Direction::kOut, eps_q}})[0];
  Vertex x = 1;
  while (t0.parent(x) == kNoVertex) ++x;
  std::vector<GraphDelta> cut{GraphDelta::remove(t0.parent_edge(x))};
  const DeltaBatch batch = g.apply(std::span<const GraphDelta>(cut));
  const Spt want = pi.spt(0);
  const double inf = std::numeric_limits<double>::infinity();
  for (double f :
       {0.0, std::numeric_limits<double>::quiet_NaN(), -1.0, -inf}) {
    SCOPED_TRACE("fraction=" + std::to_string(f));
    expect_same_tree(pi.repair_tree(t0, batch, FaultSet{}, f).tree, want);
    EXPECT_EQ(pi.repair_tree(a0, batch, FaultSet{}, f, eps_q).tree.root, 0u);
  }
  for (double f : {1.0, 1e300, inf}) {
    SCOPED_TRACE("fraction=" + std::to_string(f));
    const auto r = pi.repair_tree(t0, batch, FaultSet{}, f);
    EXPECT_TRUE(r.repaired);
    expect_same_tree(r.tree, want);
    EXPECT_TRUE(pi.repair_tree(a0, batch, FaultSet{}, f, eps_q).repaired);
  }
}

// repair_tree and batch_survives validate their input as fault_deltas does,
// on both tiers and for every scheme: a tree over another vertex count
// (which once wrote past the repair's per-vertex arrays), a root out of
// range, and a fault or delta edge id >= m.
TEST(RepairTree, TypedErrors) {
  const Graph bigger = path_graph(10);
  const Spt foreign = IsolationRpts(bigger, IsolationAtw(1)).spt(9);
  Graph g = path_graph(5);
  const IsolationRpts pi(g, IsolationAtw(1));
  const ArbitraryRpts arbitrary(g);
  const Spt t0 = pi.spt(0);
  std::vector<GraphDelta> cut{GraphDelta::remove(0)};
  const DeltaBatch batch = g.apply(std::span<const GraphDelta>(cut));
  Spt rootless = t0;
  rootless.root = g.num_vertices();
  DeltaBatch stray = batch;
  stray.net[0].edge = g.num_edges();
  for (const IRpts* scheme : {static_cast<const IRpts*>(&pi),
                              static_cast<const IRpts*>(&arbitrary)}) {
    for (const uint32_t eps_q : {0u, quantize_epsilon(0.25)}) {
      SCOPED_TRACE(scheme->name() + " eps_q=" + std::to_string(eps_q));
      EXPECT_THROW(scheme->repair_tree(foreign, batch, {}, 1.0, eps_q),
                   std::invalid_argument);
      EXPECT_THROW(scheme->repair_tree(rootless, batch, {}, 1.0, eps_q),
                   std::invalid_argument);
      EXPECT_THROW(scheme->repair_tree(t0, batch, FaultSet{g.num_edges()},
                                       1.0, eps_q),
                   std::out_of_range);
      EXPECT_THROW(scheme->repair_tree(t0, stray, {}, 1.0, eps_q),
                   std::out_of_range);
      EXPECT_THROW(scheme->batch_survives(batch, foreign, {}, eps_q),
                   std::invalid_argument);
      EXPECT_THROW(scheme->batch_survives(batch, rootless, {}, eps_q),
                   std::invalid_argument);
      EXPECT_THROW(scheme->batch_survives(stray, t0, {}, eps_q),
                   std::out_of_range);
      EXPECT_FALSE(scheme->batch_survives(batch, t0, {}, eps_q));
      // The well-formed call still runs: vertices 1..4 are cut off.
      const RepairOutcome r = scheme->repair_tree(t0, batch, {}, 1.0, eps_q);
      for (Vertex v = 1; v < g.num_vertices(); ++v)
        EXPECT_FALSE(r.tree.reachable(v)) << "v=" << v;
    }
  }
}

// The serving config rejects a repair ceiling the skeleton cannot honour,
// on the single-shard server and, through its shards, on the fleet.
TEST(OracleServerBatch, RejectsNonFiniteOrNegativeRepairFraction) {
  const Graph g = gnp_connected(20, 0.2, 3);
  const IsolationRpts pi(g, IsolationAtw(4));
  for (double f : {std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::infinity(), -0.5}) {
    SCOPED_TRACE("fraction=" + std::to_string(f));
    ServerConfig cfg;
    cfg.repair_fraction = f;
    EXPECT_THROW(OracleServer server(pi, cfg), std::invalid_argument);
    FrontEndConfig fleet;
    fleet.num_shards = 2;
    fleet.shard = cfg;
    EXPECT_THROW(ShardAggregator fleet_of(pi, fleet), std::invalid_argument);
  }
  // The default epsilon: NaN (it would quantize to the exact tier) and
  // negative values are rejected too.
  for (double eps : {std::numeric_limits<double>::quiet_NaN(), -0.5}) {
    SCOPED_TRACE("default_epsilon=" + std::to_string(eps));
    ServerConfig cfg;
    cfg.default_epsilon = eps;
    EXPECT_THROW(OracleServer server(pi, cfg), std::invalid_argument);
    FrontEndConfig fleet;
    fleet.num_shards = 2;
    fleet.shard = cfg;
    EXPECT_THROW(ShardAggregator fleet_of(pi, fleet), std::invalid_argument);
  }
  ServerConfig ok;
  ok.repair_fraction = 0.0;
  EXPECT_NO_THROW(OracleServer server(pi, ok));
  ok.repair_fraction = 2.0;
  EXPECT_NO_THROW(OracleServer server(pi, ok));
  // A huge default epsilon is clamped, not rejected.
  ok.default_epsilon = std::numeric_limits<double>::infinity();
  EXPECT_NO_THROW(OracleServer server(pi, ok));
}

// The serving-layer acceptance criterion for the batch pipeline: one
// apply_updates call == one epoch bump + one walk, repaired trees answer
// bit-identically to a from-scratch rebuild, and a remove+re-add burst
// invalidates NOTHING -- at engine widths 1, 2 and 8.
TEST(OracleServerBatch, ApplyUpdatesMatchesRebuildAcrossThreads) {
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Graph g = gnp_connected(60, 0.08, 50 + threads);
    const IsolationRpts pi(g, IsolationAtw(51));
    const BatchSsspEngine engine(threads);
    ServerConfig cfg;
    cfg.engine = &engine;
    OracleServer server(pi, cfg);

    // Warm every base tree plus some fault trees.
    for (Vertex r = 0; r < g.num_vertices(); ++r)
      server.tree({r, {}, Direction::kOut});
    for (EdgeId e = 0; e < 12; ++e)
      server.tree({0, FaultSet{e}, Direction::kOut});

    // A burst of 4 removals: two tree edges of root 0, two arbitrary.
    const auto t0 = server.tree({0, {}, Direction::kOut});
    std::vector<GraphDelta> burst;
    Vertex x = 1;
    while (t0->parent(x) == kNoVertex) ++x;
    burst.push_back(GraphDelta::remove(t0->parent_edge(x)));
    ++x;
    while (t0->parent(x) == kNoVertex) ++x;
    burst.push_back(GraphDelta::remove(t0->parent_edge(x)));
    burst.push_back(GraphDelta::remove(20));
    burst.push_back(GraphDelta::remove(21));

    const uint64_t e0 = g.epoch();
    const auto res = server.apply_updates(g, burst);
    EXPECT_TRUE(res.changed);
    EXPECT_EQ(res.new_epoch, e0 + 1);  // ONE bump for 4 deltas
    EXPECT_GT(res.carried, 0u);
    EXPECT_GT(res.invalidated, 0u);
    EXPECT_EQ(res.prewarmed, res.invalidated);  // every non-survivor
                                                // re-admitted eagerly
    EXPECT_GT(res.repaired, 0u);  // and some of them incrementally

    const IsolationRpts rebuilt(g, IsolationAtw(51));
    for (Vertex s = 0; s < g.num_vertices(); s += 5) {
      expect_same_tree(*server.tree({s, {}, Direction::kOut}),
                       rebuilt.spt(s));
      for (Vertex t = 1; t < g.num_vertices(); t += 13)
        EXPECT_EQ(server.distance(s, t), rebuilt.distance(s, t));
    }

    // Net-effect collapse through the server: remove an edge and re-insert
    // it in the SAME batch -- everything carries forward, zero
    // invalidations, zero repairs.
    const auto tree_now = server.tree({0, {}, Direction::kOut});
    Vertex y = 1;
    while (tree_now->parent(y) == kNoVertex) ++y;
    const EdgeId flapped = tree_now->parent_edge(y);
    const Edge fe = g.endpoints(flapped);
    std::vector<GraphDelta> flap{GraphDelta::remove(flapped),
                                 GraphDelta::insert(fe.u, fe.v)};
    const auto collapse = server.apply_updates(g, flap);
    EXPECT_TRUE(collapse.changed);
    EXPECT_TRUE(collapse.batch.net.empty());
    EXPECT_EQ(collapse.invalidated, 0u);
    EXPECT_EQ(collapse.prewarmed, 0u);
    EXPECT_GT(collapse.carried, 0u);  // everything rekeyed forward
    const IsolationRpts rebuilt2(g, IsolationAtw(51));
    expect_same_tree(*server.tree({0, {}, Direction::kOut}),
                     rebuilt2.spt(0));
  }
}

}  // namespace
}  // namespace restorable
