// Tests for the serving subsystem (src/serve/): cache-on results must be
// bit-identical to cache-off at every thread count, the coalescing batcher
// must give single-flight semantics under concurrent mixed hit/miss load,
// and the LRU must stay inside tiny byte budgets while staying correct.
#include "serve/oracle_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "graph/generators.h"
#include "labeling/labels.h"
#include "preserver/ft_preserver.h"
#include "rp/dso.h"
#include "rp/sourcewise_rp.h"
#include "rp/subset_rp.h"
#include "rp/two_fault_oracle.h"
#include "serve/coalescing_batcher.h"
#include "serve/spt_cache.h"

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

// The bytes one base tree of `pi` costs in a cache, by the cache's own
// accounting (tree + key + entry overhead): budgets sized from it hold an
// exact number of same-size trees whatever the tree layout.
size_t cache_entry_bytes(const IRpts& pi, Vertex root) {
  SptCache sizing;
  sizing.insert(SptKey(pi.scheme_id(), {root, {}, Direction::kOut}),
                pi.spt(root));
  return sizing.stats().bytes;
}

// A generation manager over `pi`'s current topology, for driving the
// batcher directly: every batcher fetch runs on a pinned generation.
GenerationManager make_generations(const IRpts& pi) {
  return GenerationManager(Generation::of(pi, pi.graph().snapshot()));
}

TEST(SptCache, LookupInsertAndLruRefresh) {
  const Graph g = gnp_connected(30, 0.12, 3);
  const IsolationRpts pi(g, IsolationAtw(4));
  SptCache cache(SptCache::Config{2, size_t{64} << 20});

  const SsspRequest req{5, {}, Direction::kOut};
  const SptKey key(pi.scheme_id(), req);
  EXPECT_EQ(cache.lookup(key), nullptr);

  const auto resident = cache.insert(key, pi.spt(req.root));
  ASSERT_NE(resident, nullptr);
  const auto hit = cache.lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit.get(), resident.get());
  expect_same_tree(*hit, pi.spt(req.root));

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(SptCache, KeysDistinguishRootFaultsDirAndScheme) {
  const Graph g = cycle(8);
  const IsolationRpts a(g, IsolationAtw(1)), b(g, IsolationAtw(1));
  EXPECT_NE(a.scheme_id(), b.scheme_id());  // instances key separately

  const SsspRequest base{2, {}, Direction::kOut};
  SptCache cache;
  cache.insert(SptKey(a.scheme_id(), base), a.spt(2));
  EXPECT_EQ(cache.lookup(SptKey(b.scheme_id(), base)), nullptr);
  EXPECT_EQ(cache.lookup(SptKey(a.scheme_id(), {3, {}, Direction::kOut})),
            nullptr);
  EXPECT_EQ(cache.lookup(SptKey(a.scheme_id(), {2, {}, Direction::kIn})),
            nullptr);
  EXPECT_EQ(cache.lookup(SptKey(a.scheme_id(), {2, FaultSet{0}, Direction::kOut})),
            nullptr);
  // Epochs key separately too: the same (scheme, root, faults, dir) at a
  // later topology version is a different tree.
  EXPECT_EQ(cache.lookup(SptKey(SchemeVersion{a.scheme_id(), 1}, base)),
            nullptr);
  EXPECT_NE(cache.lookup(SptKey(a.scheme_id(), base)), nullptr);
  // The epoch-0 convenience constructor and version() agree on a static
  // graph.
  EXPECT_EQ(SptKey(a.scheme_id(), base), SptKey(a.version(), base));
}

TEST(SptCache, EvictionKeepsTinyByteBudget) {
  const Graph g = gnp_connected(60, 0.08, 7);
  const IsolationRpts pi(g, IsolationAtw(8));
  // Room for two trees (and half of a third) in one shard: inserts must
  // evict LRU-first and never blow the budget.
  const size_t entry = cache_entry_bytes(pi, 0);
  const size_t budget = 2 * entry + entry / 2;
  SptCache cache(SptCache::Config{1, budget});

  for (Vertex root = 0; root < 20; ++root) {
    cache.insert(SptKey(pi.scheme_id(), {root, {}, Direction::kOut}),
                 pi.spt(root));
    EXPECT_LE(cache.stats().bytes, budget);
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.inserts, 20u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.entries, 2u);

  // Most-recent roots survive (LRU order); whatever is resident is correct.
  for (Vertex root = 0; root < 20; ++root) {
    const auto hit =
        cache.lookup(SptKey(pi.scheme_id(), {root, {}, Direction::kOut}));
    if (hit) expect_same_tree(*hit, pi.spt(root));
  }
  // The newest insert must be resident (it was never the LRU victim).
  EXPECT_NE(cache.lookup(SptKey(pi.scheme_id(), {19, {}, Direction::kOut})),
            nullptr);
}

TEST(SptCache, BudgetSmallerThanOneEntryRetainsNothing) {
  const Graph g = gnp_connected(50, 0.1, 9);
  const IsolationRpts pi(g, IsolationAtw(10));
  SptCache cache(SptCache::Config{4, 128});  // smaller than any tree
  const SptKey key(pi.scheme_id(), {1, {}, Direction::kOut});
  EXPECT_EQ(cache.insert(key, pi.spt(1)), nullptr);
  EXPECT_EQ(cache.lookup(key), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

// Handle-lifetime guarantee: evicting a tree from the cache must not
// invalidate a handle a consumer still holds, and a re-fetch after the
// eviction recomputes a bit-identical tree.
TEST(SptCache, EvictionUnderLiveReadersKeepsHandleValid) {
  const Graph g = gnp_connected(60, 0.08, 7);
  const IsolationRpts pi(g, IsolationAtw(8));
  // Room for about two trees in one shard; every insert past that evicts.
  const size_t entry = cache_entry_bytes(pi, 0);
  SptCache cache(SptCache::Config{1, 2 * entry + entry / 2});
  const BatchSsspEngine engine(1);

  const SsspRequest req{0, {}, Direction::kOut};
  const SptHandle live = pi.spt_batch({&req, 1}, &engine, &cache)[0];
  ASSERT_NE(live, nullptr);
  const Spt want = pi.spt(0);  // computed outside the cache
  expect_same_tree(*live, want);

  // Churn the cache until root 0 is definitely evicted.
  for (Vertex root = 1; root < 20; ++root)
    cache.insert(SptKey(pi.scheme_id(), {root, {}, Direction::kOut}),
                 pi.spt(root));
  EXPECT_EQ(cache.peek(SptKey(pi.scheme_id(), req)), nullptr);
  EXPECT_GT(cache.stats().evictions, 0u);

  // The live handle is unaffected by the eviction: same contents, readable.
  expect_same_tree(*live, want);

  // A re-fetch misses, recomputes, and produces a bit-identical tree (a
  // fresh allocation -- the cache no longer owns the evicted one).
  const SptHandle refetch = pi.spt_batch({&req, 1}, &engine, &cache)[0];
  ASSERT_NE(refetch, nullptr);
  EXPECT_NE(refetch.get(), live.get());
  expect_same_tree(*refetch, *live);
}

// Base trees may legitimately fill past their nominal protected fraction
// (they are allowed the whole slice); a fault-tree scan arriving on top must
// squeeze into what the bases leave of the TOTAL budget -- never push the
// shard past it, and never evict a base tree to make room.
TEST(SptCache, FaultScanRespectsTotalBudgetWhenBasesOverfillTheirFraction) {
  const Graph g = gnp_connected(60, 0.08, 23);
  const IsolationRpts pi(g, IsolationAtw(24));
  const size_t entry = cache_entry_bytes(pi, 0);
  SptCache cache(SptCache::Config{1, 4 * entry + entry / 2, 0.5});

  // Four base trees ~fill the whole slice (nominal protected half is two).
  for (Vertex root = 0; root < 4; ++root)
    cache.insert(SptKey(pi.scheme_id(), {root, {}, Direction::kOut}),
                 pi.spt(root));
  const size_t base_entries = cache.stats().protected_entries;
  EXPECT_GT(base_entries, 2u);

  for (EdgeId e = 0; e < 10; ++e)
    cache.insert(SptKey(pi.scheme_id(), {0, FaultSet{e}, Direction::kOut}),
                 pi.spt(0, FaultSet{e}));

  const auto stats = cache.stats();
  EXPECT_LE(stats.bytes, cache.byte_budget());
  EXPECT_EQ(stats.protected_entries, base_entries);  // no base was evicted
}

// Segmented admission: a scan of fault trees (the one-shot class) can only
// evict other fault trees, so the n x-more-reusable base trees survive; the
// flat-LRU baseline (protected_fraction = 0) loses them.
TEST(SptCache, SegmentedAdmissionProtectsBaseTreesFromFaultScan) {
  const Graph g = gnp_connected(60, 0.08, 17);
  const IsolationRpts pi(g, IsolationAtw(18));
  // One shard, room for ~4 trees; protected half fits the two base trees.
  const size_t entry = cache_entry_bytes(pi, 0);
  SptCache::Config cfg{1, 4 * entry + entry / 2, 0.5};

  for (const double fraction : {0.5, 0.0}) {
    cfg.protected_fraction = fraction;
    SptCache cache(cfg);
    const std::vector<Vertex> bases{3, 11};
    for (Vertex root : bases)
      ASSERT_NE(cache.insert(SptKey(pi.scheme_id(), {root, {}, Direction::kOut}),
                             pi.spt(root)),
                nullptr);
    EXPECT_EQ(cache.stats().protected_entries, fraction > 0 ? 2u : 0u);

    // The fault-tree scan: many single-fault trees for one root.
    for (EdgeId e = 0; e < 30; ++e)
      cache.insert(
          SptKey(pi.scheme_id(), {0, FaultSet{e}, Direction::kOut}),
          pi.spt(0, FaultSet{e}));

    const auto stats = cache.stats();
    EXPECT_GT(stats.evictions, 0u);
    size_t surviving = 0;
    for (Vertex root : bases)
      if (cache.peek(SptKey(pi.scheme_id(), {root, {}, Direction::kOut})))
        ++surviving;
    if (fraction > 0) {
      // Protected segment: the scan could not touch the base trees.
      EXPECT_EQ(surviving, bases.size());
      EXPECT_EQ(stats.protected_entries, bases.size());
      EXPECT_GT(stats.protected_bytes, 0u);
      EXPECT_LE(stats.bytes, cache.byte_budget());
    } else {
      // Flat LRU: the scan churned the base trees out.
      EXPECT_EQ(surviving, 0u);
      EXPECT_EQ(stats.protected_entries, 0u);
    }
    EXPECT_GT(stats.sum_shard_peak_bytes, 0u);
  }
}

TEST(CachedSptBatch, BitIdenticalToUncachedAcrossThreadCounts) {
  const Graph g = gnp_connected(70, 0.07, 11);
  const IsolationRpts pi(g, IsolationAtw(12));
  std::vector<SsspRequest> reqs;
  for (Vertex root : {3u, 17u, 3u, 42u, 17u})  // duplicates on purpose
    reqs.push_back({root, {}, Direction::kOut});
  reqs.push_back({3, FaultSet{2}, Direction::kOut});
  reqs.push_back({9, {}, Direction::kIn});

  for (int threads : {1, 2, 8}) {
    const BatchSsspEngine engine(threads);
    const auto want = pi.spt_batch(reqs, &engine);
    SptCache cache;
    // Two rounds through the same cache: cold then fully warm.
    for (int round = 0; round < 2; ++round) {
      const auto got = pi.spt_batch(reqs, &engine, &cache);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE("threads=" + std::to_string(threads) + " round=" +
                     std::to_string(round) + " req=" + std::to_string(i));
        expect_same_tree(*got[i], *want[i]);
      }
      // Zero-copy within the batch: duplicate requests share ONE tree.
      EXPECT_EQ(got[0].get(), got[2].get());  // root 3, miss-side dedup
      EXPECT_EQ(got[1].get(), got[4].get());  // root 17
      // Zero-copy against the store: every handle IS the resident tree, on
      // the miss round (publish returns the same handle) and the hit round
      // (lookup hands out the cached pointer).
      for (size_t i = 0; i < got.size(); ++i) {
        const auto resident = cache.peek(SptKey(pi.scheme_id(), reqs[i]));
        ASSERT_NE(resident, nullptr);
        EXPECT_EQ(got[i].get(), resident.get());
      }
    }
    // Round 0: every request probes cold (7 misses) but only the 5 unique
    // keys compute; round 1: all 7 hit.
    const auto stats = cache.stats();
    EXPECT_EQ(stats.misses, 7u);
    EXPECT_EQ(stats.hits, 7u);
    EXPECT_EQ(stats.inserts, 5u);
  }
}

// The four routed consumers must produce identical results with and without
// a shared cache, at several engine widths -- the "construction paths share
// one tree store" guarantee.
TEST(SharedCache, ConsumersAreCacheInvariant) {
  const Graph g = gnp_connected(40, 0.1, 21);
  const IsolationRpts pi(g, IsolationAtw(22));
  const std::vector<Vertex> sources{0, 9, 23, 31};

  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const BatchSsspEngine engine(threads);
    SptCache cache;  // ONE cache shared by all four consumers

    const auto rp0 = subset_replacement_paths(pi, sources, &engine);
    const auto rp1 = subset_replacement_paths(pi, sources, &engine, &cache);
    ASSERT_EQ(rp0.pairs.size(), rp1.pairs.size());
    for (size_t p = 0; p < rp0.pairs.size(); ++p) {
      EXPECT_EQ(rp0.pairs[p].base_path, rp1.pairs[p].base_path);
      EXPECT_EQ(rp0.pairs[p].replacement, rp1.pairs[p].replacement);
    }

    PreserverStats ps0, ps1;
    const auto pre0 = build_sv_preserver(pi, sources, 2, &ps0, &engine);
    const auto pre1 =
        build_sv_preserver(pi, sources, 2, &ps1, &engine, &cache);
    EXPECT_EQ(pre0.edge_ids(), pre1.edge_ids());
    EXPECT_EQ(ps0.spt_computations, ps1.spt_computations);

    const TwoFaultSubsetOracle or0(pi, sources, &engine);
    const TwoFaultSubsetOracle or1(pi, sources, &engine, &cache);
    for (size_t i = 0; i < sources.size(); ++i)
      for (size_t j = i + 1; j < sources.size(); ++j)
        for (EdgeId e = 0; e < g.num_edges(); e += 7)
          EXPECT_EQ(or0.query(sources[i], sources[j], FaultSet{e}),
                    or1.query(sources[i], sources[j], FaultSet{e}));

    const FtDistanceLabeling lab0(pi, 1, &engine);
    const FtDistanceLabeling lab1(pi, 1, &engine, &cache);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(lab0.label(v).edges, lab1.label(v).edges);
    }

    const SourcewiseReplacementPaths sw0(pi, sources[0], &engine);
    const SourcewiseReplacementPaths sw1(pi, sources[0], &engine, &cache);
    for (Vertex v = 0; v < g.num_vertices(); v += 3)
      for (EdgeId e = 0; e < g.num_edges(); e += 5)
        EXPECT_EQ(sw0.query(v, e), sw1.query(v, e));

    // The shared store did its job: later consumers re-hit earlier
    // consumers' trees (e.g. every (s, {}) tree computed at most once).
    EXPECT_GT(cache.stats().hits, 0u);
  }
}

TEST(CoalescingBatcher, SingleFlightUnderConcurrentMixedLoad) {
  const Graph g = gnp_connected(60, 0.08, 31);
  const IsolationRpts pi(g, IsolationAtw(32));
  GenerationManager gens = make_generations(pi);
  SptCache cache;
  const BatchSsspEngine engine(2);
  CoalescingBatcher batcher(&cache, &engine);
  const GenerationManager::Pin pin = gens.pin();

  // Preheat a few keys so the hammer mixes hits and misses.
  const std::vector<Vertex> hot{0, 7, 14};
  for (Vertex root : hot) batcher.get({root, {}, Direction::kOut}, pin);

  constexpr int kThreads = 8;
  constexpr int kRounds = 40;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (int r = 0; r < kRounds; ++r) {
        // Every thread interleaves the hot keys with a cold stripe shared by
        // all threads, so identical misses collide in flight.
        const Vertex root = r % 2 ? hot[(w + r) % hot.size()]
                                  : static_cast<Vertex>(20 + r % 17);
        FaultSet faults;
        if (r % 4 == 3) faults.insert(static_cast<EdgeId>(r % 11));
        const auto tree = batcher.get({root, faults, Direction::kOut}, pin);
        const Spt want = pi.spt(root, faults);
        bool same = tree->num_vertices() == want.num_vertices();
        for (Vertex v = 0; same && v < want.num_vertices(); ++v)
          same = tree->hops(v) == want.hops(v) &&
                 tree->parent(v) == want.parent(v);
        if (!same) mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  // Single flight: every distinct key was computed exactly once, however
  // many threads raced on it (the budget is large, so nothing was evicted
  // and recomputed).
  const auto stats = batcher.stats();
  EXPECT_EQ(stats.computed, cache.stats().inserts);
  EXPECT_EQ(cache.stats().evictions, 0u);
  std::set<std::tuple<Vertex, std::vector<EdgeId>>> unique_keys;
  for (int w = 0; w < kThreads; ++w)
    for (int r = 0; r < kRounds; ++r) {
      const Vertex root = r % 2 ? hot[(w + r) % hot.size()]
                                : static_cast<Vertex>(20 + r % 17);
      FaultSet faults;
      if (r % 4 == 3) faults.insert(static_cast<EdgeId>(r % 11));
      unique_keys.emplace(root,
                          std::vector<EdgeId>(faults.begin(), faults.end()));
    }
  for (Vertex root : hot)
    unique_keys.emplace(root, std::vector<EdgeId>{});
  EXPECT_EQ(stats.computed, unique_keys.size());
  EXPECT_EQ(stats.requests,
            static_cast<uint64_t>(kThreads) * kRounds + hot.size());
}

// A scheme whose compute path throws for one poisoned root: the batcher
// must propagate the exception to the waiter AND stay serviceable (a stuck
// flushing_ flag would deadlock every later miss).
class ThrowingRpts final : public IRpts {
 public:
  ThrowingRpts(const Graph& g, Vertex poisoned) : g_(&g), poisoned_(poisoned) {}
  const Graph& graph() const override { return *g_; }
  std::string name() const override { return "throwing"; }
  Spt spt(Vertex root, const FaultSet& faults = {},
          Direction dir = Direction::kOut) const override {
    if (root == poisoned_) throw std::runtime_error("poisoned root");
    return ArbitraryRpts(*g_).spt(root, faults, dir);
  }
  // The pinned view poisons the same root, so the throw reaches the flush.
  std::unique_ptr<IRpts> snapshot_view(const Graph& frozen) const override {
    auto view = std::make_unique<ThrowingRpts>(frozen, poisoned_);
    view->adopt_identity(*this);
    return view;
  }

 private:
  const Graph* g_;
  Vertex poisoned_;
};

TEST(CoalescingBatcher, ComputeExceptionPropagatesAndBatcherSurvives) {
  // Width 1 runs the generic spt fan-out on the calling thread; width 4
  // spreads a multi-key flush over pool workers, whose throw the pool
  // rethrows on the flushing thread.
  for (int width : {1, 4}) {
    SCOPED_TRACE("width=" + std::to_string(width));
    const Graph g = cycle(10);
    const ThrowingRpts pi(g, /*poisoned=*/3);
    GenerationManager gens = make_generations(pi);
    SptCache cache;
    const BatchSsspEngine engine(width);
    CoalescingBatcher batcher(&cache, &engine);
    const GenerationManager::Pin pin = gens.pin();

    EXPECT_THROW(batcher.get({3, {}, Direction::kOut}, pin),
                 std::runtime_error);
    std::vector<SsspRequest> reqs;
    for (Vertex root = 0; root < 8; ++root)
      reqs.push_back({root, {}, Direction::kOut});
    EXPECT_THROW(batcher.get_batch(reqs, pin), std::runtime_error);
    // The batcher must not be wedged: a healthy key still computes.
    const auto tree = batcher.get({5, {}, Direction::kOut}, pin);
    ASSERT_NE(tree, nullptr);
    expect_same_tree(*tree, pi.spt(5));
    // And the poisoned key still throws (nothing bogus was cached).
    EXPECT_THROW(batcher.get({3, {}, Direction::kOut}, pin),
                 std::runtime_error);
  }
}

TEST(CoalescingBatcher, GetBatchRidesOneFlush) {
  const Graph g = gnp_connected(40, 0.1, 41);
  const IsolationRpts pi(g, IsolationAtw(42));
  GenerationManager gens = make_generations(pi);
  SptCache cache;
  CoalescingBatcher batcher(&cache);

  std::vector<SsspRequest> reqs;
  for (Vertex root : {1u, 5u, 9u, 5u, 1u})  // in-batch duplicates
    reqs.push_back({root, {}, Direction::kOut});
  const auto trees = batcher.get_batch(reqs, gens.pin());
  ASSERT_EQ(trees.size(), reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i)
    expect_same_tree(*trees[i], pi.spt(reqs[i].root));
  EXPECT_EQ(trees[0].get(), trees[4].get());  // shared resident tree

  const auto stats = batcher.stats();
  EXPECT_EQ(stats.flushes, 1u);
  EXPECT_EQ(stats.computed, 3u);
  EXPECT_EQ(stats.max_batch, 3u);
}

TEST(CoalescingBatcher, MaxBatchDrainsBoundedInstallments) {
  const Graph g = gnp_connected(40, 0.1, 43);
  const IsolationRpts pi(g, IsolationAtw(44));
  GenerationManager gens = make_generations(pi);
  SptCache cache;
  CoalescingBatcher batcher(&cache, nullptr, /*max_batch=*/2);

  std::vector<SsspRequest> reqs;
  for (Vertex root : {1u, 5u, 9u, 13u, 17u})
    reqs.push_back({root, {}, Direction::kOut});
  const auto trees = batcher.get_batch(reqs, gens.pin());
  ASSERT_EQ(trees.size(), reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i)
    expect_same_tree(*trees[i], pi.spt(reqs[i].root));

  // 5 unique misses, drained 2 + 2 + 1: no flush exceeds the cap, the
  // queue high-water saw all 5 registered before the leader drained.
  const auto stats = batcher.stats();
  EXPECT_EQ(stats.computed, 5u);
  EXPECT_EQ(stats.flushes, 3u);
  EXPECT_LE(stats.max_batch, 2u);
  EXPECT_EQ(stats.max_queue_depth, 5u);
  EXPECT_GT(stats.computed_bytes, 0u);
  if (obs::kEnabled) {  // histogram is documented as zeroed when compiled out
    uint64_t hist_total = 0;
    for (uint64_t b : stats.batch_hist) hist_total += b;
    EXPECT_EQ(hist_total, stats.flushes);
    EXPECT_EQ(stats.batch_hist[0], 1u);  // the size-1 remainder flush
    EXPECT_EQ(stats.batch_hist[1], 2u);  // the two size-2 flushes
    EXPECT_EQ(stats.batch_hist_sum, stats.computed);
  }
}

TEST(OracleServer, AnswersMatchDirectSchemeQueries) {
  const Graph g = gnp_connected(50, 0.09, 51);
  const IsolationRpts pi(g, IsolationAtw(52));
  OracleServer server(pi);

  for (Vertex s : {0u, 11u, 30u}) {
    for (Vertex t : {4u, 19u, 44u}) {
      EXPECT_EQ(server.distance(s, t), pi.distance(s, t));
      EXPECT_EQ(server.path(s, t), pi.path(s, t));
      const FaultSet faults{static_cast<EdgeId>((s + t) % g.num_edges())};
      EXPECT_EQ(server.distance(s, t, faults), pi.distance(s, t, faults));
    }
  }
  EXPECT_GT(server.queries_served(), 0u);
  EXPECT_GT(server.cache()->stats().hit_rate(), 0.0);
}

TEST(OracleServer, ReplacementDistanceUsesStabilityFastPath) {
  const Graph g = gnp_connected(45, 0.1, 61);
  const IsolationRpts pi(g, IsolationAtw(62));
  OracleServer server(pi);

  for (Vertex s : {2u, 21u}) {
    for (Vertex t : {8u, 37u}) {
      for (EdgeId e = 0; e < g.num_edges(); e += 5) {
        EXPECT_EQ(server.replacement_distance(s, t, e),
                  pi.distance(s, t, FaultSet{e}))
            << "s=" << s << " t=" << t << " e=" << e;
      }
    }
  }
  // On sparse G(n, p) most edges avoid any fixed selected path, so the base
  // tree must have answered most queries.
  EXPECT_GT(server.stability_fast_paths(), server.queries_served() / 2);
}

TEST(OracleServer, CacheOffModeStaysCorrect) {
  const Graph g = gnp_connected(30, 0.12, 71);
  const IsolationRpts pi(g, IsolationAtw(72));
  ServerConfig off;
  off.enable_cache = false;
  off.enable_coalescing = false;
  OracleServer server(pi, off);
  EXPECT_EQ(server.cache(), nullptr);
  for (Vertex s = 0; s < 6; ++s)
    for (Vertex t = 20; t < 26; ++t)
      EXPECT_EQ(server.distance(s, t), pi.distance(s, t));
}

TEST(OracleServer, ConcurrentMixedQueriesAreConsistent) {
  const Graph g = gnp_connected(55, 0.08, 81);
  const IsolationRpts pi(g, IsolationAtw(82));
  ServerConfig cfg;
  cfg.cache.shards = 4;
  OracleServer server(pi, cfg);

  constexpr int kThreads = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (int r = 0; r < 30; ++r) {
        const Vertex s = static_cast<Vertex>((w * 3 + r) % 10);
        const Vertex t = static_cast<Vertex>(30 + (w + r * 5) % 20);
        if (r % 3 == 0) {
          const EdgeId e = static_cast<EdgeId>((w + r) % g.num_edges());
          if (server.replacement_distance(s, t, e) !=
              pi.distance(s, t, FaultSet{e}))
            mismatches.fetch_add(1);
        } else {
          if (server.distance(s, t) != pi.distance(s, t))
            mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(server.cache()->stats().hit_rate(), 0.5);
}

// The per-query counts are thread-sharded: summed over the cells they must
// still be exact, hit for hit, when several threads query at once.
TEST(OracleServer, ShardedQueryCountsAreExactUnderConcurrentHits) {
  const Graph g = gnp_connected(40, 0.1, 83);
  const IsolationRpts pi(g, IsolationAtw(84));
  OracleServer server(pi);
  for (Vertex s = 0; s < 8; ++s) server.distance(s, 39);  // warm 8 roots

  auto latency_count = [&] {
    const obs::MetricsSnapshot snap = server.metrics().snapshot();
    return snap.value_or("server", "query.latency_ns");
  };
  const ServerStats before = server.stats();
  const uint64_t requests_before = server.batcher()->stats().requests;
  const int64_t latency_before = latency_count();

  constexpr int kThreads = 4;
  constexpr int kHits = 2000;
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (int i = 0; i < kHits; ++i)
        server.distance(static_cast<Vertex>((w + i) % 8),
                        static_cast<Vertex>(10 + i % 30));
    });
  }
  for (auto& t : workers) t.join();

  const ServerStats after = server.stats();
  constexpr uint64_t kTotal = uint64_t{kThreads} * kHits;
  EXPECT_EQ(after.queries - before.queries, kTotal);
  EXPECT_EQ(server.batcher()->stats().requests - requests_before, kTotal);
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(after.base_hit - before.base_hit, kTotal);
    EXPECT_EQ(latency_count() - latency_before,
              static_cast<int64_t>(kTotal));
  }
}

// ---------------------------------------------------------------------------
// Serving-path correctness regressions (the PR-5 bugfix satellites).

// Regression: a construction-path insert keyed at an epoch advance_epoch has
// already purged must be rejected, not stored as a dead entry that strands
// bytes (protected segment included) until the next bump.
TEST(SptCache, RejectsStaleEpochInsertsAfterAdvance) {
  Graph g = gnp_connected(40, 0.1, 61);
  const IsolationRpts pi(g, IsolationAtw(62));
  SptCache cache(SptCache::Config{2, size_t{64} << 20});

  const SsspRequest req{0, {}, Direction::kOut};
  const SchemeVersion v0 = pi.version();
  ASSERT_NE(cache.insert(SptKey(v0, req), pi.spt(0)), nullptr);

  // A slow construction batch computes a second old-epoch tree (a base tree
  // -- the protected class -- and a fault tree) BEFORE the mutation lands...
  const Spt late_base = pi.spt(7);
  const Spt late_fault = pi.spt(7, FaultSet{3});

  GraphDelta d = GraphDelta::remove(0);
  ASSERT_TRUE(g.apply(d));
  cache.advance_epoch(pi.scheme_id(), v0.epoch, g.epoch(),
                      [&](const SptKey& key, const Spt& tree) {
                        return pi.tree_survives(d, tree, key.fault_set());
                      });

  // ...and publishes it AFTER the walk: the insert must be refused.
  EXPECT_EQ(cache.insert(SptKey(v0, {7, {}, Direction::kOut}), late_base),
            nullptr);
  EXPECT_EQ(cache.insert(SptKey(v0, {7, FaultSet{3}, Direction::kOut}),
                         late_fault),
            nullptr);
  EXPECT_EQ(cache.peek(SptKey(v0, {7, {}, Direction::kOut})), nullptr);
  EXPECT_EQ(cache.stats().rejected_stale, 2u);
  // Current-epoch inserts are unaffected.
  EXPECT_NE(cache.insert(SptKey(pi.version(), {7, {}, Direction::kOut}),
                         pi.spt(7)),
            nullptr);

  // Race shape: inserter hammers old- and new-epoch keys while the epoch
  // advances underneath it; afterwards NO resident entry may be older than
  // the scheme's latest epoch. The inserter touches only the cache -- tree
  // payloads are precomputed and the mutator publishes the current epoch
  // through an atomic -- so the race under test is insert vs advance_epoch,
  // not an unsynchronized graph read against build_csr.
  std::vector<Spt> payload;
  for (Vertex r = 0; r < g.num_vertices(); ++r) payload.push_back(pi.spt(r));
  std::atomic<uint64_t> current_epoch{g.epoch()};
  std::atomic<bool> stop{false};
  std::thread inserter([&] {
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const Vertex r = static_cast<Vertex>(i++ % g.num_vertices());
      const SchemeVersion now{pi.scheme_id(),
                              current_epoch.load(std::memory_order_relaxed)};
      cache.insert(SptKey(v0, {r, {}, Direction::kOut}), payload[r]);
      cache.insert(SptKey(now, {r, {}, Direction::kOut}), payload[r]);
    }
  });
  for (int flap = 0; flap < 8; ++flap) {
    const uint64_t old_epoch = g.epoch();
    // Edge d.edge is currently removed (see above); flaps alternate heal /
    // re-remove so every apply is effective.
    GraphDelta f = flap % 2 ? GraphDelta::remove(d.edge)
                            : GraphDelta::insert(d.u, d.v);
    ASSERT_TRUE(g.apply(f));
    cache.advance_epoch(pi.scheme_id(), old_epoch, g.epoch(),
                        [&](const SptKey& key, const Spt& tree) {
                          return pi.tree_survives(f, tree, key.fault_set());
                        });
    current_epoch.store(g.epoch(), std::memory_order_relaxed);
  }
  stop.store(true, std::memory_order_relaxed);
  inserter.join();
  for (Vertex r = 0; r < g.num_vertices(); ++r) {
    for (uint64_t e = 0; e < g.epoch(); ++e)
      EXPECT_EQ(cache.peek(SptKey(SchemeVersion{pi.scheme_id(), e},
                                  {r, {}, Direction::kOut})),
                nullptr)
          << "stale entry stranded at epoch " << e << " root " << r;
  }
}

// Regression: a null slot from spt_batch used to kill the flush leader on a
// null dereference, stranding every waiter; it must instead fail exactly
// that flight with a real exception and leave the batcher serviceable.
TEST(CoalescingBatcher, NullTreeFailsOnlyThatFlight) {
  // A scheme whose batch path loses one specific root's slot.
  class NullSlotRpts final : public IRpts {
   public:
    explicit NullSlotRpts(const Graph& g) : g_(&g) {}
    const Graph& graph() const override { return *g_; }
    std::string name() const override { return "null-slot"; }
    Spt spt(Vertex root, const FaultSet& faults = {},
            Direction dir = Direction::kOut) const override {
      return ArbitraryRpts(*g_).spt(root, faults, dir);
    }
    std::vector<SptHandle> spt_batch(std::span<const SsspRequest> requests,
                                     const BatchSsspEngine* engine = nullptr,
                                     SptCache* cache = nullptr) const override {
      auto out = IRpts::spt_batch(requests, engine, cache);
      for (size_t i = 0; i < requests.size(); ++i)
        if (requests[i].root == 13) out[i] = nullptr;  // the lossy slot
      return out;
    }
    // The pinned view loses the same slot, so the null reaches the flush.
    std::unique_ptr<IRpts> snapshot_view(const Graph& frozen) const override {
      auto view = std::make_unique<NullSlotRpts>(frozen);
      view->adopt_identity(*this);
      return view;
    }

   private:
    const Graph* g_;
  };

  const Graph g = gnp_connected(30, 0.15, 71);
  const NullSlotRpts pi(g);
  GenerationManager gens = make_generations(pi);
  SptCache cache;
  const BatchSsspEngine engine(2);
  CoalescingBatcher batcher(&cache, &engine);
  const GenerationManager::Pin pin = gens.pin();

  // The poisoned key throws a real exception instead of crashing...
  EXPECT_THROW(batcher.get({13, {}, Direction::kOut}, pin),
               std::runtime_error);
  // ...and only that flight: healthy keys keep being served afterwards, so
  // the leader survived and flushing_ was not left stuck.
  const auto good = batcher.get({5, {}, Direction::kOut}, pin);
  ASSERT_NE(good, nullptr);
  expect_same_tree(*good, pi.spt(5));
  // A batch mixing the poisoned key with healthy ones fails only the
  // poisoned flight's waiters.
  std::vector<SsspRequest> mixed{{4, {}, Direction::kOut},
                                 {13, {}, Direction::kOut}};
  EXPECT_THROW(batcher.get_batch(mixed, pin), std::runtime_error);
  EXPECT_NE(batcher.get({4, {}, Direction::kOut}, pin), nullptr);
}

// Regression: peek (the batcher's locked double-check probe) used to splice
// the entry to MRU, letting a non-query path decide the next eviction
// victim.
TEST(SptCache, PeekDoesNotPerturbEvictionOrder) {
  const Graph g = gnp_connected(60, 0.08, 81);
  const IsolationRpts pi(g, IsolationAtw(82));
  // Flat LRU (one class), one shard, room for exactly two trees.
  const size_t entry = cache_entry_bytes(pi, 0);
  SptCache cache(SptCache::Config{1, 2 * entry + entry / 2, 0.0});

  const SptKey a(pi.scheme_id(), {1, {}, Direction::kOut});
  const SptKey b(pi.scheme_id(), {2, {}, Direction::kOut});
  const SptKey c(pi.scheme_id(), {3, {}, Direction::kOut});
  ASSERT_NE(cache.insert(a, pi.spt(1)), nullptr);
  ASSERT_NE(cache.insert(b, pi.spt(2)), nullptr);  // LRU order: a, then b

  // Probe `a` the way the batcher's double-check does: repeatedly, off the
  // query path. The LRU order must not move.
  for (int i = 0; i < 8; ++i) ASSERT_NE(cache.peek(a), nullptr);

  ASSERT_NE(cache.insert(c, pi.spt(3)), nullptr);
  EXPECT_EQ(cache.peek(a), nullptr) << "peek refreshed the LRU victim";
  EXPECT_NE(cache.peek(b), nullptr);
  EXPECT_NE(cache.peek(c), nullptr);

  // Control: a real lookup DOES refresh -- b is now MRU, so the next insert
  // evicts c.
  ASSERT_NE(cache.lookup(c), nullptr);
  ASSERT_NE(cache.lookup(b), nullptr);
  const SptKey e(pi.scheme_id(), {4, {}, Direction::kOut});
  ASSERT_NE(cache.insert(e, pi.spt(4)), nullptr);
  EXPECT_EQ(cache.peek(c), nullptr);
  EXPECT_NE(cache.peek(b), nullptr);
}

// Regression: prewarmed must count only entries actually re-admitted (never
// null slots), and the renamed sum_shard_peak_bytes must behave as the
// documented upper bound (exact for a single shard).
TEST(OracleServer, PrewarmCountsAndShardPeakAccounting) {
  Graph g = gnp_connected(50, 0.1, 91);
  const IsolationRpts pi(g, IsolationAtw(92));
  const BatchSsspEngine engine(2);
  ServerConfig cfg;
  cfg.engine = &engine;
  cfg.cache.shards = 1;
  OracleServer server(pi, cfg);

  for (Vertex r = 0; r < g.num_vertices(); ++r)
    server.tree({r, {}, Direction::kOut});
  const auto t0 = server.tree({0, {}, Direction::kOut});
  Vertex x = 1;
  while (t0->parent(x) == kNoVertex) ++x;

  const auto res = server.apply_update(g, GraphDelta::remove(t0->parent_edge(x)));
  ASSERT_TRUE(res.changed);
  EXPECT_GT(res.invalidated, 0u);
  // Every reported prewarm is a real resident entry at the new epoch.
  EXPECT_EQ(res.prewarmed, res.invalidated);
  EXPECT_LE(res.repaired, res.prewarmed);
  size_t resident = 0;
  for (Vertex r = 0; r < g.num_vertices(); ++r)
    if (server.cache()->peek(SptKey(pi.version(), {r, {}, Direction::kOut})))
      ++resident;
  EXPECT_EQ(resident, g.num_vertices());

  // Single shard: the per-shard peak sum IS the true high-water mark, so it
  // dominates the current bytes and never decreases.
  const auto s1 = server.cache()->stats();
  EXPECT_GE(s1.sum_shard_peak_bytes, s1.bytes);
  server.cache()->clear();
  const auto s2 = server.cache()->stats();
  EXPECT_EQ(s2.bytes, 0u);
  EXPECT_EQ(s2.sum_shard_peak_bytes, s1.sum_shard_peak_bytes);
}

// Cramped-budget cross-check: whatever subset of trees is resident when the
// flap lands, `prewarmed` must equal the number of entries actually
// re-admitted at the new epoch -- counted independently by walking the
// cache -- never the repair-request count.
TEST(OracleServer, PrewarmMatchesActualResidencyUnderTinyBudget) {
  Graph g = gnp_connected(50, 0.1, 95);
  const IsolationRpts pi(g, IsolationAtw(96));
  const BatchSsspEngine engine(1);
  const Spt probe = pi.spt(0);
  ServerConfig cfg;
  cfg.engine = &engine;
  cfg.cache.shards = 1;
  cfg.cache.byte_budget = 3 * (probe.memory_bytes() + 1024);
  OracleServer server(pi, cfg);

  // Churn many roots through the tiny cache; a handful stay resident.
  for (Vertex r = 0; r < g.num_vertices(); ++r)
    server.tree({r, {}, Direction::kOut});
  // Flap an edge on a still-resident tree so invalidated > 0.
  SptHandle victim_tree;
  for (Vertex r = g.num_vertices(); r-- > 0;) {
    if ((victim_tree = server.cache()->peek(
             SptKey(pi.version(), {r, {}, Direction::kOut}))))
      break;
  }
  ASSERT_NE(victim_tree, nullptr);
  Vertex x = 0;
  while (victim_tree->parent(x) == kNoVertex) ++x;

  const auto res =
      server.apply_update(g, GraphDelta::remove(victim_tree->parent_edge(x)));
  ASSERT_TRUE(res.changed);
  EXPECT_GT(res.invalidated, 0u);
  size_t resident_new_epoch = 0;
  for (Vertex r = 0; r < g.num_vertices(); ++r)
    if (server.cache()->peek(SptKey(pi.version(), {r, {}, Direction::kOut})))
      ++resident_new_epoch;
  // resident = carried survivors + actually re-admitted prewarms, nothing
  // else touched the cache since the update.
  EXPECT_EQ(resident_new_epoch, res.carried + res.prewarmed);
  EXPECT_LE(res.prewarmed, res.invalidated);
}

// Regression: out-of-range query inputs used to be undefined behavior -- a
// target t >= n read past the tree's arrays, a source s >= n ran Dijkstra
// off the CSR, and an unknown fault id was silently ignored and cached
// under a junk key. Every query kind must throw std::out_of_range instead,
// count and cache nothing, and leave the server serving. Most meaningful
// under the ASan+UBSan build.
TEST(OracleServer, RejectsOutOfRangeInputs) {
  const Graph g = gnp_connected(200, 0.03, 91);
  const IsolationRpts pi(g, IsolationAtw(92));
  OracleServer server(pi);
  const EdgeId junk = EdgeId{1} << 30;

  EXPECT_THROW(server.distance(0, 200), std::out_of_range);
  EXPECT_THROW(server.distance(100000, 5), std::out_of_range);
  EXPECT_THROW(server.distance(0, 5, FaultSet{junk}), std::out_of_range);
  EXPECT_THROW(server.distance(0, 5, FaultSet{kNoEdge}), std::out_of_range);
  // The approximate tier runs the same check.
  EXPECT_THROW(server.distance(0, 200, {}, QueryOpts{0.5}), std::out_of_range);
  EXPECT_THROW(server.distance(0, 5, FaultSet{junk}, QueryOpts{0.5}),
               std::out_of_range);
  EXPECT_THROW(server.path(0, 200), std::out_of_range);
  EXPECT_THROW(server.replacement_distance(0, 5, junk), std::out_of_range);
  EXPECT_THROW(server.replacement_distance(200, 5, 0), std::out_of_range);
  EXPECT_THROW(server.tree({200, {}, Direction::kOut}), std::out_of_range);
  EXPECT_THROW(server.tree({0, FaultSet{junk}, Direction::kOut}),
               std::out_of_range);
  // A NaN epsilon used to be served silently on the exact tier.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(server.distance(0, 5, {}, QueryOpts{nan}),
               std::invalid_argument);
  EXPECT_THROW(server.distance(0, 5, {}, QueryOpts{nan, true}),
               std::invalid_argument);
  EXPECT_EQ(server.queries_served(), 0u);
  EXPECT_EQ(server.cache()->stats().inserts, 0u);

  // The boundary inputs are valid and answer exactly.
  const Vertex last_v = g.num_vertices() - 1;
  const EdgeId last_e = g.num_edges() - 1;
  EXPECT_EQ(server.distance(0, last_v), pi.distance(0, last_v));
  EXPECT_EQ(server.distance(last_v, 0, FaultSet{last_e}),
            pi.distance(last_v, 0, FaultSet{last_e}));
  EXPECT_EQ(server.replacement_distance(0, last_v, last_e),
            pi.distance(0, last_v, FaultSet{last_e}));
  // Documented epsilon meanings stay: negative = the (exact) default, and a
  // huge value is clamped to a valid approximate answer.
  const int32_t exact = pi.distance(0, last_v);
  EXPECT_EQ(server.distance(0, last_v, {}, QueryOpts{-3.0}), exact);
  const int32_t loose = server.distance(
      0, last_v, {}, QueryOpts{std::numeric_limits<double>::infinity()});
  EXPECT_GE(loose, exact);
}

}  // namespace
}  // namespace restorable
