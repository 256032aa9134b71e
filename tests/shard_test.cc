// Tests for the sharded serving tier (src/serve/shard_router.h,
// shard_aggregator.h): consistent-hash stability under fleet growth,
// bit-identical answers at every shard count (exact and ε), deterministic
// submission counts (one per touched shard for a fan-out, none for a point
// query, which the owning shard answers), cross-query dedup of concurrent
// misses inside the owning shard, one fleet generation published once per
// update with pinned readers surviving it, and out-of-range query inputs
// rejected before they reach a shard.
#include "serve/shard_aggregator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "obs/metrics.h"
#include "serve/oracle_server.h"
#include "serve/shard_router.h"

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

// ---------------------------------------------------------------------------
// Routing layer.

// Growing the fleet 2 -> 3 must move about 1/3 of the keys and never
// meaningfully more: the rendezvous slot assignment reassigns a slot only
// when the NEW shard wins its draw, so the moved fraction concentrates
// around 1/(N+1). A naive `hash % N` would move ~2/3 here.
TEST(ShardRouter, GrowthMovesBoundedKeyFraction) {
  const uint64_t scheme_id = 0x9d2c5680u;
  const ShardRouter r2(2), r3(3);
  const int kKeys = 20000;
  int moved = 0;
  for (Vertex root = 0; root < kKeys; ++root) {
    const size_t before = r2.shard_of(scheme_id, root);
    const size_t after = r3.shard_of(scheme_id, root);
    if (before != after) {
      // A moved key may only move TO the new shard -- rendezvous never
      // shuffles keys between surviving shards.
      EXPECT_EQ(after, 2u) << "root " << root << " moved " << before
                           << " -> " << after;
      ++moved;
    }
  }
  EXPECT_GT(moved, 0);
  // Expected 1/3; the slack absorbs the slot-level variance of 4096 draws.
  EXPECT_LE(moved, static_cast<int>(kKeys * (1.0 / 3.0 + 0.06)));

  // And the partition stays usable: every shard owns a fair share of slots.
  std::vector<int> owned(3, 0);
  for (uint32_t s = 0; s < r3.num_slots(); ++s) ++owned[r3.shard_of_slot(s)];
  for (size_t k = 0; k < 3; ++k)
    EXPECT_GT(owned[k], static_cast<int>(r3.num_slots() / 3 / 2))
        << "shard " << k << " starved of slots";
}

// The mapping is a pure function of (scheme_id, root, shard count): two
// independently built routers agree everywhere, and any number of threads
// reading one router see the identical mapping (the table is immutable
// after construction -- routing is a wait-free array read).
TEST(ShardRouter, DeterministicAcrossInstancesAndThreads) {
  const uint64_t scheme_id = 0xfeedbeefu;
  const ShardRouter a(4), b(4);
  const int kKeys = 5000;
  std::vector<size_t> want(kKeys);
  for (Vertex root = 0; root < kKeys; ++root) {
    want[root] = a.shard_of(scheme_id, root);
    ASSERT_EQ(b.shard_of(scheme_id, root), want[root]);
  }
  for (const int nthreads : {1, 2, 8}) {
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < nthreads; ++t)
      threads.emplace_back([&] {
        for (Vertex root = 0; root < kKeys; ++root)
          if (a.shard_of(scheme_id, root) != want[root])
            mismatches.fetch_add(1, std::memory_order_relaxed);
      });
    for (auto& th : threads) th.join();
    EXPECT_EQ(mismatches.load(), 0) << "at " << nthreads << " threads";
  }
}

// All trees of one root land on one shard forever: the route hash ignores
// epoch, faults, direction, and epsilon by construction, so a query's base
// tree, fault trees, and approximate trees never split across shards.
TEST(ShardRouter, RouteHashIgnoresEverythingButRoot) {
  const ShardRouter r(8);
  const uint64_t scheme_id = 42;
  for (Vertex root = 0; root < 200; ++root) {
    const size_t k = r.shard_of(scheme_id, root);
    // shard_of only consumes (scheme_id, root); this asserts the KEY design
    // (SsspRequest variation is invisible to routing) rather than the code
    // path -- decompose() routes requests by .root alone.
    std::vector<SsspRequest> reqs{{root, {}, Direction::kOut},
                                  {root, FaultSet{3}, Direction::kIn},
                                  {root, {}, Direction::kOut, 128}};
    const ShardRouter::Plan plan = r.decompose(scheme_id, reqs);
    ASSERT_EQ(plan.touched.size(), 1u);
    EXPECT_EQ(plan.touched[0], k);
    EXPECT_EQ(plan.by_shard[k].size(), 3u);
    EXPECT_EQ(plan.origin[k].size(), 3u);
  }
}

// ---------------------------------------------------------------------------
// Front-end layer.

FrontEndConfig small_config(size_t shards, const BatchSsspEngine* engine) {
  FrontEndConfig fc;
  fc.num_shards = shards;
  fc.shard.engine = engine;
  fc.shard.cache.shards = 2;
  return fc;
}

// The same query stream answered at 1, 2, and 4 shards must be
// bit-identical to the single-scheme reference -- sharding repartitions
// work, never changes the scheme -- before and after each phase of an
// edge flap through the fleet.
TEST(ShardAggregator, BitIdenticalAcrossShardCounts) {
  Graph g = gnp_connected(60, 0.08, 7);
  const IsolationRpts pi(g, IsolationAtw(8));
  const BatchSsspEngine engine(2);

  std::vector<SsspRequest> all;
  for (Vertex r = 0; r < g.num_vertices(); ++r)
    all.push_back({r, {}, Direction::kOut});

  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    ShardAggregator fe(pi, small_config(shards, &engine));
    const auto trees = fe.tree_batch(all);
    ASSERT_EQ(trees.size(), all.size());
    for (Vertex r = 0; r < g.num_vertices(); ++r) {
      ASSERT_NE(trees[r], nullptr);
      expect_same_tree(*trees[r], pi.spt(r));
    }
    // Point queries agree too, including the fault tier and the
    // stability fast path.
    EXPECT_EQ(fe.distance(0, 5), pi.spt(0).hops(5));
    EXPECT_EQ(fe.distance(3, 9, FaultSet{1}),
              pi.spt(3, FaultSet{1}).hops(9));
    const Spt base = pi.spt(2);
    Vertex x = 1;
    while (base.parent_edge(x) == kNoEdge) ++x;
    EXPECT_EQ(fe.replacement_distance(2, x, base.parent_edge(x)),
              pi.spt(2, FaultSet{base.parent_edge(x)}).hops(x));

    // Churn: remove a tree edge of root 0, then put it back (the tombstone
    // resurrects, so the next shard count starts from the same graph).
    // Every phase answers as a from-scratch scheme on that phase's graph.
    const EdgeId victim = pi.spt(0).parent_edge(5);
    const Edge ends = g.endpoints(victim);
    for (const GraphDelta& d :
         {GraphDelta::remove(victim), GraphDelta::insert(ends.u, ends.v)}) {
      ASSERT_TRUE(fe.apply_update(g, d).changed);
      const auto phase = fe.tree_batch(all);
      for (Vertex r = 0; r < g.num_vertices(); ++r)
        expect_same_tree(*phase[r], pi.spt(r));
      EXPECT_EQ(fe.distance(0, 5), pi.spt(0).hops(5));
      EXPECT_EQ(fe.distance(3, 9, FaultSet{1}),
                pi.spt(3, FaultSet{1}).hops(9));
    }
    const auto s = fe.stats();
    EXPECT_EQ(s.remote_hits + s.aggregated, s.subqueries);
  }
}

// The approximate tier through the fleet: the owning shard answers every
// point query in full, so ε answers at any shard count equal a standalone
// OracleServer's under the same config, and path / replacement queries
// escalate on the owning shard. Fresh relaxed trees are exact; an insert
// across the graph makes carried ones answer above exact, which the fleet
// must reproduce too.
TEST(ShardAggregator, EpsilonAnswersMatchOracleServer) {
  const Graph g0 = gnp_connected(30, 0.12, 61);
  const Vertex n = g0.num_vertices();
  const BatchSsspEngine engine(2);
  ServerConfig cfg;
  cfg.engine = &engine;
  cfg.cache.shards = 2;
  cfg.default_epsilon = 0.5;
  cfg.stretch_sample_every = 0;
  const auto fault_of = [&](Vertex s, Vertex t) {
    return FaultSet{static_cast<EdgeId>((7 * s + t) % g0.num_edges())};
  };
  // The chord joins the two ends of a longest shortest path.
  Vertex a = 0, b = 0;
  {
    const IsolationRpts pi(g0, IsolationAtw(62));
    int32_t longest = 0;
    for (Vertex s = 0; s < n; ++s) {
      const Spt tree = pi.spt(s);
      for (Vertex t = 0; t < n; ++t)
        if (tree.hops(t) > longest) longest = tree.hops(t), a = s, b = t;
    }
  }
  // Every (s, t) fault-free and under one fault, before and after the
  // chord goes in.
  const auto answers = [&](auto& fe, Graph& g) {
    std::vector<int32_t> out;
    const auto sweep = [&] {
      for (Vertex s = 0; s < n; ++s)
        for (Vertex t = 0; t < n; ++t) {
          out.push_back(fe.distance(s, t));
          out.push_back(fe.distance(s, t, fault_of(s, t)));
        }
    };
    sweep();
    EXPECT_TRUE(fe.apply_update(g, GraphDelta::insert(a, b)).changed);
    sweep();
    return out;
  };

  Graph gs = g0;
  const IsolationRpts pis(gs, IsolationAtw(62));
  OracleServer server(pis, cfg);
  const std::vector<int32_t> want = answers(server, gs);
  // Not a tautology: some carried relaxed tree answers above exact.
  size_t above = 0, i = want.size() / 2;
  for (Vertex s = 0; s < n; ++s)
    for (Vertex t = 0; t < n; ++t) {
      above += want[i++] > pis.distance(s, t);
      above += want[i++] > pis.distance(s, t, fault_of(s, t));
    }
  EXPECT_GT(above, 0u);

  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Graph g = g0;
    const IsolationRpts pi(g, IsolationAtw(62));
    FrontEndConfig fc;
    fc.num_shards = shards;
    fc.shard = cfg;
    ShardAggregator fe(pi, fc);
    EXPECT_EQ(answers(fe, g), want);

    for (const Vertex s : {Vertex{0}, Vertex{11}, Vertex{23}}) {
      const Vertex t = (s + 13) % n;
      const EdgeId e = *fault_of(s, t).begin();
      OracleShard& owner = fe.shard(fe.router().shard_of(pi.scheme_id(), s));
      // escalations_path is an obs counter: it reads 0 when metrics are
      // compiled out (RESTORABLE_NO_METRICS), the answers do not.
      const uint64_t before = owner.stats().escalations_path;
      EXPECT_EQ(fe.path(s, t).edges, server.path(s, t).edges);
      if (obs::kEnabled) {
        EXPECT_EQ(owner.stats().escalations_path, before + 1);
      }
      EXPECT_EQ(fe.replacement_distance(s, t, e),
                server.replacement_distance(s, t, e));
      if (obs::kEnabled) {
        EXPECT_EQ(owner.stats().escalations_path, before + 2);
      }
    }
  }
}

// A k-root cold tree_batch costs exactly one submission per touched shard
// -- at most min(k, shards) -- so the >= 2x cut below one submission per
// sub-query is a structural property, not a timing accident.
TEST(ShardAggregator, FanoutCostsOneSubmissionPerTouchedShard) {
  Graph g = gnp_connected(64, 0.07, 27);
  const IsolationRpts pi(g, IsolationAtw(28));
  const BatchSsspEngine engine(2);
  const size_t kShards = 4, kRoots = 16;

  std::vector<SsspRequest> reqs;
  for (Vertex r = 0; r < kRoots; ++r) reqs.push_back({r, {}, Direction::kOut});

  ShardAggregator fe(pi, small_config(kShards, &engine));
  const ShardRouter::Plan plan = fe.router().decompose(pi.scheme_id(), reqs);
  fe.tree_batch(reqs);
  const FrontEndStats s_cold = fe.stats();
  EXPECT_EQ(s_cold.subqueries, kRoots);
  EXPECT_EQ(s_cold.submissions, plan.touched.size());
  EXPECT_LE(s_cold.submissions, kRoots / 2);
  EXPECT_EQ(s_cold.aggregated, kRoots);

  // Warm repeat: every sub-query is a remote hit; still one submission per
  // touched shard.
  fe.tree_batch(reqs);
  const FrontEndStats s_warm = fe.stats();
  EXPECT_EQ(s_warm.remote_hits + s_warm.aggregated, s_warm.subqueries);
  EXPECT_EQ(s_warm.remote_hits, kRoots);
  EXPECT_EQ(s_warm.submissions, 2 * plan.touched.size());
}

// A single-root query is forwarded to the shard that owns its root, which
// answers it in full: the front-end counts the call and makes no
// submission of its own, and the owning shard's `server` rows count it.
TEST(ShardAggregator, PointQueriesLandOnOwningShard) {
  Graph g = gnp_connected(48, 0.1, 41);
  const IsolationRpts pi(g, IsolationAtw(42));
  const BatchSsspEngine engine(2);
  ShardAggregator fe(pi, small_config(2, &engine));

  const Spt base = pi.spt(3);
  const EdgeId e = base.parent_edge(10);  // on the selected 3 -> 10 path
  EXPECT_EQ(fe.distance(3, 10), base.hops(10));
  expect_same_tree(*fe.tree({5, {}, Direction::kOut}), pi.spt(5));
  // On-path fault: the owning shard reads the base tree, then the fault
  // tree.
  EXPECT_EQ(fe.replacement_distance(3, 10, e),
            pi.spt(3, FaultSet{e}).hops(10));
  EXPECT_EQ(fe.path(5, 10).edges, pi.path(5, 10).edges);

  const FrontEndStats s = fe.stats();
  EXPECT_EQ(s.queries, 4u);
  EXPECT_EQ(s.subqueries, 0u);
  EXPECT_EQ(s.submissions, 0u);
  EXPECT_EQ(s.remote_hits + s.aggregated, 0u);
  std::vector<uint64_t> want(fe.num_shards(), 0);
  want[fe.router().shard_of(pi.scheme_id(), 3)] += 2;
  want[fe.router().shard_of(pi.scheme_id(), 5)] += 2;
  const obs::MetricsSnapshot snap = fe.metrics().snapshot();
  for (size_t k = 0; k < fe.num_shards(); ++k) {
    EXPECT_EQ(fe.shard(k).stats().queries, want[k]) << "shard " << k;
    EXPECT_EQ(snap.value_or("shard" + std::to_string(k) + ".server",
                            "queries"),
              static_cast<int64_t>(want[k]))
        << "shard " << k;
  }
}

// A scheme whose tree computation waits until `open()` holds (or 10 s
// pass), so a test can keep a flight in the air while other callers arrive.
class GatedRpts final : public IRpts {
 public:
  GatedRpts(const Graph& g, std::shared_ptr<std::function<bool()>> open)
      : g_(&g), open_(std::move(open)) {}
  const Graph& graph() const override { return *g_; }
  std::string name() const override { return "gated"; }
  Spt spt(Vertex root, const FaultSet& faults = {},
          Direction dir = Direction::kOut) const override {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!(*open_)() && std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
    return ArbitraryRpts(*g_).spt(root, faults, dir);
  }
  std::unique_ptr<IRpts> snapshot_view(const Graph& frozen) const override {
    auto view = std::make_unique<GatedRpts>(frozen, open_);
    view->adopt_identity(*this);
    return view;
  }

 private:
  const Graph* g_;
  std::shared_ptr<std::function<bool()>> open_;
};

// Concurrent queries for the same cold root meet in the owning shard's
// single-flight batcher: the compute is held until all 8 callers have
// reached the batcher, and the tree is still computed exactly once.
TEST(ShardAggregator, ConcurrentColdRootComputesOnce) {
  Graph g = gnp_connected(60, 0.08, 43);
  auto open = std::make_shared<std::function<bool()>>([] { return true; });
  const GatedRpts pi(g, open);
  const BatchSsspEngine engine(2);
  ShardAggregator fe(pi, small_config(2, &engine));
  const Vertex root = 17;
  const CoalescingBatcher& batcher =
      *fe.shard(fe.router().shard_of(pi.scheme_id(), root)).batcher();
  constexpr int kThreads = 8;
  *open = [&] { return batcher.stats().requests >= kThreads; };

  const Spt want = ArbitraryRpts(g).spt(root);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      const SptHandle tree = fe.tree({root, {}, Direction::kOut});
      for (Vertex v = 0; v < want.num_vertices(); ++v)
        if (tree->hops(v) != want.hops(v) ||
            tree->parent_edge(v) != want.parent_edge(v)) {
          mismatches.fetch_add(1);
          break;
        }
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);

  const CoalescingBatcher::Stats bs = batcher.stats();
  EXPECT_EQ(bs.requests, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(bs.computed, 1u);
  EXPECT_EQ(bs.coalesced, static_cast<uint64_t>(kThreads - 1));
  // Point queries: the owning shard classifies every fetch (obs counters,
  // 0 when metrics are compiled out), the front-end submits nothing.
  const ServerStats ss =
      fe.shard(fe.router().shard_of(pi.scheme_id(), root)).stats();
  if (obs::kEnabled) {
    EXPECT_EQ(ss.miss_leader, 1u);
    EXPECT_EQ(ss.miss_coalesced, static_cast<uint64_t>(kThreads - 1));
  }
  const FrontEndStats s = fe.stats();
  EXPECT_EQ(s.queries, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(s.submissions, 0u);
}

// Epoch-coherent fan-out: the fleet's shards serve on ONE generation, so
// every shard pins the same Generation before and after an update, and an
// update publishes exactly once. A pinned reader survives the publish;
// handles held across it stay bit-identical to the old topology,
// post-update answers are bit-identical to from-scratch rebuilds on the
// new one, and the routed epoch moves only once every shard advanced.
TEST(ShardAggregator, EpochCoherentFanoutKeepsPinnedReaders) {
  Graph g = gnp_connected(60, 0.08, 37);
  const IsolationRpts pi(g, IsolationAtw(38));
  const BatchSsspEngine engine(2);
  ShardAggregator fe(pi, small_config(2, &engine));

  // From-scratch reference on the OLD topology, taken before the mutation.
  std::vector<Spt> before;
  for (Vertex r = 0; r < g.num_vertices(); ++r) before.push_back(pi.spt(r));

  // Warm the fleet and hold handles + a generation pin across the update:
  // the pinned reader's world must not change under it.
  std::vector<SsspRequest> all;
  for (Vertex r = 0; r < g.num_vertices(); ++r)
    all.push_back({r, {}, Direction::kOut});
  const auto held = fe.tree_batch(all);
  GenerationManager::Pin pin = fe.shard(0).pin_generation();
  ASSERT_TRUE(pin);
  for (size_t k = 0; k < fe.num_shards(); ++k)
    EXPECT_EQ(fe.shard(k).pin_generation().get(), pin.get()) << "shard " << k;
  const auto published = [&] {
    return fe.metrics().snapshot().value_or("generations", "published");
  };
  const int64_t published_before = published();

  // Remove a tree edge (guaranteed-effective mutation).
  Vertex x = 1;
  while (before[0].parent_edge(x) == kNoEdge) ++x;
  const EdgeId victim = before[0].parent_edge(x);
  const uint64_t epoch_before = fe.routed_epoch();
  const UpdateResult res = fe.apply_update(g, GraphDelta::remove(victim));
  ASSERT_TRUE(res.changed);

  // The router unblocked the new epoch only once the whole fleet absorbed.
  EXPECT_EQ(fe.routed_epoch(), g.epoch());
  EXPECT_GT(fe.routed_epoch(), epoch_before);
  EXPECT_EQ(fe.stats().fanouts, 1u);
  EXPECT_GT(res.invalidated, 0u);
  EXPECT_EQ(res.prewarmed, res.invalidated);

  // One publish for the whole fleet, and every shard pins its result.
  EXPECT_EQ(published(), published_before + 1);
  const GenerationManager::Pin now = fe.shard(0).pin_generation();
  EXPECT_NE(now.get(), pin.get());
  EXPECT_EQ(now->epoch(), g.epoch());
  for (size_t k = 0; k < fe.num_shards(); ++k)
    EXPECT_EQ(fe.shard(k).pin_generation().get(), now.get()) << "shard " << k;
  // The fleet registers its one manager once, unprefixed.
  const obs::MetricsSnapshot snap = fe.metrics().snapshot();
  for (size_t k = 0; k < fe.num_shards(); ++k)
    EXPECT_EQ(snap.find("shard" + std::to_string(k) + ".generations",
                        "published"),
              nullptr);
  // A no-op update (the edge is already gone) publishes nothing, and a
  // shard cannot update on its own: the fleet advances all of them.
  EXPECT_FALSE(fe.apply_update(g, GraphDelta::remove(victim)).changed);
  EXPECT_THROW(fe.shard(1).apply_update(g, GraphDelta::remove(victim)),
               std::logic_error);
  EXPECT_EQ(published(), published_before + 1);
  EXPECT_EQ(fe.stats().fanouts, 1u);

  // Held handles are bit-identical to the old topology's from-scratch
  // reference -- the fan-out never touched them.
  for (Vertex r = 0; r < g.num_vertices(); ++r)
    expect_same_tree(*held[r], before[r]);

  // The pinned generation is still serviceable after the publish: an
  // old-epoch serve_batch through it returns old-topology answers.
  {
    std::vector<SsspRequest> one{{all[0]}};
    const auto old_view = fe.shard(0).serve_batch(one, pin);
    expect_same_tree(*old_view[0], before[0]);
  }
  pin = GenerationManager::Pin{};  // release; retirement may proceed

  // New queries are bit-identical to from-scratch rebuilds on the NEW
  // topology, on both shards (i.e. for every root).
  const auto after = fe.tree_batch(all);
  for (Vertex r = 0; r < g.num_vertices(); ++r)
    expect_same_tree(*after[r], pi.spt(r));
}

// Churn under concurrent cross-shard load: writer flaps one hot edge while
// query threads hammer multi-shard batches and point queries on both
// shards. Answers observed after the last flap must match from-scratch
// rebuilds; every intermediate answer is internally consistent (this is
// the TSan-facing test of the tier).
TEST(ShardAggregator, ChurnDuringCrossShardLoad) {
  Graph g = gnp_connected(40, 0.1, 47);
  const IsolationRpts pi(g, IsolationAtw(48));
  const BatchSsspEngine engine(2);
  ShardAggregator fe(pi, small_config(2, &engine));

  const Spt t0 = pi.spt(0);
  Vertex x = 1;
  while (t0.parent_edge(x) == kNoEdge) ++x;
  const EdgeId victim = t0.parent_edge(x);

  // Point queries on a root of each shard race the same publishes. The
  // heal re-inserts the victim under its old id, so every answer is the
  // pristine topology's ([0]) or the cut one's ([1]).
  struct Point {
    Vertex s;
    EdgeId e;  // on the selected s -> kT path
    int32_t dist[2], repl[2];
  };
  const Vertex kT = 33;
  std::vector<Point> points;
  for (Vertex s = 1; points.size() < fe.num_shards(); ++s)
    if (s != kT && fe.router().shard_of(pi.scheme_id(), s) == points.size())
      points.push_back({s, pi.spt(s).parent_edge(kT), {}, {}});
  const auto record = [&](int topology) {
    for (Point& p : points) {
      p.dist[topology] = pi.distance(p.s, kT);
      p.repl[topology] = pi.distance(p.s, kT, FaultSet{p.e});
    }
  };
  record(0);
  // First flap up front so the applied delta reports the edge's endpoints
  // (the heal flaps below re-insert exactly that edge).
  const UpdateResult first = fe.apply_update(g, GraphDelta::remove(victim));
  ASSERT_TRUE(first.changed);
  const Vertex vu = first.delta.u, vv = first.delta.v;
  record(1);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t)
    readers.emplace_back([&, t] {
      std::vector<SsspRequest> reqs;
      for (Vertex r = 0; r < 8; ++r)
        reqs.push_back({static_cast<Vertex>((t * 7 + r * 5) %
                                            g.num_vertices()),
                        {}, Direction::kOut});
      while (!stop.load(std::memory_order_relaxed)) {
        const auto trees = fe.tree_batch(reqs);
        for (size_t i = 0; i < reqs.size(); ++i) {
          ASSERT_NE(trees[i], nullptr);
          ASSERT_EQ(trees[i]->root, reqs[i].root);
        }
        for (const Point& p : points) {
          const int32_t d = fe.distance(p.s, kT);
          ASSERT_TRUE(d == p.dist[0] || d == p.dist[1]) << "s=" << p.s;
          const int32_t r = fe.replacement_distance(p.s, kT, p.e);
          ASSERT_TRUE(r == p.repl[0] || r == p.repl[1]) << "s=" << p.s;
        }
      }
    });

  for (int flap = 1; flap < 6; ++flap) {
    const GraphDelta d = flap % 2 ? GraphDelta::insert(vu, vv)
                                  : GraphDelta::remove(victim);
    const UpdateResult res = fe.apply_update(g, d);
    ASSERT_TRUE(res.changed);
    EXPECT_EQ(fe.routed_epoch(), g.epoch());
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : readers) th.join();

  // Settled state (edge healed by the last flap): every root bit-identical
  // to a from-scratch rebuild.
  std::vector<SsspRequest> all;
  for (Vertex r = 0; r < g.num_vertices(); ++r)
    all.push_back({r, {}, Direction::kOut});
  const auto final_trees = fe.tree_batch(all);
  for (Vertex r = 0; r < g.num_vertices(); ++r)
    expect_same_tree(*final_trees[r], pi.spt(r));
}

// N shards report into ONE registry: per-shard components are prefixed
// (shard0.server, shard1.cache, ...), the front-end adds its own `frontend`
// component, and one snapshot covers the whole fleet.
TEST(ShardAggregator, FleetReportsIntoOneRegistry) {
  Graph g = gnp_connected(40, 0.1, 57);
  const IsolationRpts pi(g, IsolationAtw(58));
  const BatchSsspEngine engine(2);
  ShardAggregator fe(pi, small_config(2, &engine));

  std::vector<SsspRequest> all;
  for (Vertex r = 0; r < g.num_vertices(); ++r)
    all.push_back({r, {}, Direction::kOut});
  fe.tree_batch(all);
  fe.tree_batch(all);  // warm pass: shard-level hits

  const obs::MetricsSnapshot snap = fe.metrics().snapshot();
  const double shard_queries = snap.value_or("shard0.server", "queries") +
                               snap.value_or("shard1.server", "queries");
  // Every routed sub-query landed on some shard's server component.
  EXPECT_EQ(static_cast<uint64_t>(shard_queries), 2 * all.size());
  EXPECT_GT(snap.value_or("frontend", "queries"), 0.0);
  EXPECT_GT(snap.value_or("frontend", "remote_hits"), 0.0);
  EXPECT_GT(snap.value_or("shard0.cache", "inserts") +
                snap.value_or("shard1.cache", "inserts"),
            0.0);
  // The per-shard split sums to the front-end's sub-query count.
  const FrontEndStats s = fe.stats();
  EXPECT_EQ(s.remote_hits + s.aggregated, s.subqueries);
}

// Regression: the front-end routed out-of-range inputs straight into a
// shard -- t >= n read past the tree's arrays, s >= n ran Dijkstra off the
// CSR, an unknown fault id was cached under a junk key. Every routed query
// kind must throw std::out_of_range, cache nothing on any shard, and leave
// the fleet serving. Most meaningful under ASan.
TEST(ShardAggregator, RejectsOutOfRangeInputs) {
  const Graph g = gnp_connected(200, 0.03, 93);
  const IsolationRpts pi(g, IsolationAtw(94));
  const BatchSsspEngine engine(2);
  const EdgeId junk = EdgeId{1} << 30;
  ShardAggregator fe(pi, small_config(2, &engine));

  EXPECT_THROW(fe.distance(0, 200), std::out_of_range);
  EXPECT_THROW(fe.distance(100000, 5), std::out_of_range);
  EXPECT_THROW(fe.distance(0, 5, FaultSet{junk}), std::out_of_range);
  EXPECT_THROW(fe.path(0, 200), std::out_of_range);
  EXPECT_THROW(fe.replacement_distance(0, 5, junk), std::out_of_range);
  EXPECT_THROW(fe.tree({200, {}, Direction::kOut}), std::out_of_range);
  // One bad request fails the whole batch before anything is submitted.
  const std::vector<SsspRequest> mixed{{0, {}, Direction::kOut},
                                       {7, FaultSet{junk}, Direction::kOut}};
  EXPECT_THROW(fe.tree_batch(mixed), std::out_of_range);
  for (size_t k = 0; k < fe.num_shards(); ++k)
    EXPECT_EQ(fe.shard(k).cache()->stats().inserts, 0u) << "shard " << k;
  EXPECT_EQ(fe.stats().queries, 0u);
  EXPECT_EQ(fe.stats().submissions, 0u);

  const Vertex last_v = g.num_vertices() - 1;
  const EdgeId last_e = g.num_edges() - 1;
  EXPECT_EQ(fe.distance(0, last_v), pi.distance(0, last_v));
  EXPECT_EQ(fe.distance(last_v, 0, FaultSet{last_e}),
            pi.distance(last_v, 0, FaultSet{last_e}));
}

// Regression: OracleShard::serve_batch enrolled its requests unvalidated, so
// one bad fault id failed the whole coalesced engine flight, other callers'
// valid keys included. The batch now throws std::out_of_range before
// anything is enrolled or counted, and the shard keeps serving.
TEST(ShardAggregator, ServeBatchValidatesBeforeEnrolling) {
  const Graph g = gnp_connected(80, 0.06, 95);
  const IsolationRpts pi(g, IsolationAtw(96));
  const BatchSsspEngine engine(2);
  ShardAggregator fe(pi, small_config(1, &engine));
  OracleShard& shard = fe.shard(0);
  ASSERT_NE(shard.cache(), nullptr);
  ASSERT_NE(shard.batcher(), nullptr);
  const GenerationManager::Pin pin = shard.pin_generation();

  const std::vector<SsspRequest> bad{
      {0, {}, Direction::kOut},
      {3, FaultSet{g.num_edges()}, Direction::kOut},
      {5, {}, Direction::kIn}};
  EXPECT_THROW(shard.serve_batch(bad, pin), std::out_of_range);
  const std::vector<SsspRequest> bad_root{
      {g.num_vertices(), {}, Direction::kOut}};
  EXPECT_THROW(shard.serve_batch(bad_root, pin), std::out_of_range);
  const SptCache::Stats cs = shard.cache()->stats();
  EXPECT_EQ(cs.hits + cs.misses + cs.inserts, 0u);
  const CoalescingBatcher::Stats bs = shard.batcher()->stats();
  EXPECT_EQ(bs.requests + bs.computed + bs.flushes, 0u);
  EXPECT_EQ(shard.stats().queries, 0u);

  const std::vector<SsspRequest> good{{0, {}, Direction::kOut},
                                      {5, {}, Direction::kIn}};
  const auto trees = shard.serve_batch(good, pin);
  expect_same_tree(*trees[0], pi.spt(0));
  expect_same_tree(*trees[1], pi.spt(5, {}, Direction::kIn));
}

}  // namespace
}  // namespace restorable
