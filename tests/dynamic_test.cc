// Tests for the dynamic-graph update pipeline: Graph epochs + the
// tree_survives carry-forward predicate (core), fine-grained SPT-cache
// invalidation / epoch advancement (serve), and OracleServer::apply_update
// end-to-end -- post-update answers must be bit-identical to a from-scratch
// rebuild, old handles must stay valid across updates, and unaffected trees
// must carry forward instead of recomputing.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "serve/oracle_server.h"
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
    if (a.hops(v) != b.hops(v) || a.parent(v) != b.parent(v) ||
        a.parent_edge(v) != b.parent_edge(v))
      return false;
  return true;
}

// A mixed key set over every root: base out-trees everywhere, plus in-trees
// and single-fault trees on a stride -- the populations a serving cache
// actually holds.
std::vector<SsspRequest> mixed_requests(const Graph& g) {
  std::vector<SsspRequest> reqs;
  for (Vertex r = 0; r < g.num_vertices(); ++r)
    reqs.push_back({r, {}, Direction::kOut});
  for (Vertex r = 0; r < g.num_vertices(); r += 7)
    reqs.push_back({r, {}, Direction::kIn});
  for (Vertex r = 0; r < g.num_vertices(); r += 11)
    for (EdgeId e = 0; e < g.num_edges(); e += 13)
      reqs.push_back({r, FaultSet{e}, Direction::kOut});
  return reqs;
}

// The heart of the carry-forward guarantee: whenever tree_survives says
// `true`, the post-delta recompute must be bit-identical to the old tree
// (soundness: every changed tree is flagged). Returns {survived, changed}
// counts for the caller's fine-grainedness assertions (strictly fewer than
// all trees flagged).
std::pair<size_t, size_t> check_survivors(
    const IsolationRpts& pi, const GraphDelta& delta,
    std::span<const SsspRequest> reqs, std::vector<Spt>& trees /*updated*/) {
  size_t survived = 0, changed = 0;
  for (size_t i = 0; i < reqs.size(); ++i) {
    const bool survives = pi.tree_survives(delta, trees[i], reqs[i].faults);
    Spt fresh = pi.spt(reqs[i].root, reqs[i].faults, reqs[i].dir);
    if (survives) {
      ++survived;
      SCOPED_TRACE("req " + std::to_string(i) + " root " +
                   std::to_string(reqs[i].root));
      expect_same_tree(trees[i], fresh);
    }
    if (!same_tree(trees[i], fresh)) ++changed;
    trees[i] = std::move(fresh);
  }
  return {survived, changed};
}

TEST(TreeSurvives, ExactAcrossRemovalsInsertsAndFlaps) {
  Graph g = gnp_connected(60, 0.08, 5);
  const IsolationRpts pi(g, IsolationAtw(6));
  const auto reqs = mixed_requests(g);
  std::vector<Spt> trees;
  trees.reserve(reqs.size());
  for (const auto& r : reqs) trees.push_back(pi.spt(r.root, r.faults, r.dir));

  // (a) Remove an edge on root 0's tree: its tree must change, most others
  // must carry (non-zero carried fraction is the acceptance criterion).
  Vertex deep = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    if (trees[0].reachable(v) && trees[0].hops(v) > trees[0].hops(deep))
      deep = v;
  GraphDelta d = GraphDelta::remove(trees[0].parent_edge(deep));
  ASSERT_TRUE(g.apply(d));
  auto [survived_a, changed_a] = check_survivors(pi, d, reqs, trees);
  EXPECT_GT(survived_a, reqs.size() / 2);  // plenty carried
  EXPECT_GT(changed_a, 0u);                // root 0's tree did change

  // (b) Re-insert the flapped edge (tombstone resurrection): label
  // stability means survivors of the removal largely survive the way back.
  GraphDelta back = GraphDelta::insert(d.u, d.v);
  ASSERT_TRUE(g.apply(back));
  EXPECT_EQ(back.edge, d.edge);
  EXPECT_EQ(back.label, d.label);
  auto [survived_b, changed_b] = check_survivors(pi, back, reqs, trees);
  EXPECT_GT(survived_b, 0u);
  EXPECT_GT(changed_b, 0u);  // the trees that rerouted must reroute back

  // (c) Fresh chord insert between vertices whose root-0 hop labels differ
  // by more than one: the new edge strictly shortens dist(0, cv), so root
  // 0's tree must change, while the exact tightness test carries every tree
  // the chord cannot improve.
  Vertex cu = kNoVertex, cv = kNoVertex;
  for (Vertex a = 0; a < g.num_vertices() && cu == kNoVertex; ++a)
    for (Vertex b = 0; b < g.num_vertices(); ++b)
      if (trees[0].hops(b) > trees[0].hops(a) + 1 &&
          g.find_edge(a, b) == kNoEdge) {
        cu = a;
        cv = b;
        break;
      }
  ASSERT_NE(cu, kNoVertex) << "no insertable chord found";
  GraphDelta chord = GraphDelta::insert(cu, cv);
  ASSERT_TRUE(g.apply(chord));
  EXPECT_EQ(chord.label, chord.edge);
  auto [survived_c, changed_c] = check_survivors(pi, chord, reqs, trees);
  EXPECT_GT(survived_c, 0u);
  EXPECT_GT(changed_c, 0u);  // root 0 rerouted through the chord
}

TEST(TreeSurvives, FaultedTreesIgnoreDeltasOnTheirFaultedEdge) {
  Graph g = gnp_connected(40, 0.1, 7);
  const IsolationRpts pi(g, IsolationAtw(8));
  const EdgeId e = 3;
  const Spt faulted = pi.spt(0, FaultSet{e});

  // Removing e: G \ {e} is unchanged, so the faulted tree survives even
  // though it was computed "around" the very edge being removed...
  GraphDelta d = GraphDelta::remove(e);
  ASSERT_TRUE(g.apply(d));
  EXPECT_TRUE(pi.tree_survives(d, faulted, FaultSet{e}));
  expect_same_tree(faulted, pi.spt(0, FaultSet{e}));

  // ...and the same on the way back in.
  GraphDelta back = GraphDelta::insert(d.u, d.v);
  ASSERT_TRUE(g.apply(back));
  EXPECT_TRUE(pi.tree_survives(back, faulted, FaultSet{e}));
  expect_same_tree(faulted, pi.spt(0, FaultSet{e}));
}

TEST(TreeSurvives, DisconnectionAndReconnectionAreDetected) {
  // dumbbell: clique -- bridge path -- clique; bridge faults disconnect.
  Graph g = dumbbell(5, 3);
  const IsolationRpts pi(g, IsolationAtw(9));
  const Spt t0 = pi.spt(0);  // root inside the first clique
  // Find a bridge: walk the tree path to the farthest vertex and take an
  // edge both of whose endpoints are interior path vertices (degree 2).
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

  GraphDelta d = GraphDelta::remove(bridge);
  ASSERT_TRUE(g.apply(d));
  EXPECT_FALSE(pi.tree_survives(d, t0, FaultSet{}));
  const Spt cut = pi.spt(0);
  EXPECT_FALSE(cut.reachable(far));

  // Reconnect: one endpoint of the bridge is now unreachable from 0, so
  // the cut tree cannot survive the insert either.
  GraphDelta back = GraphDelta::insert(d.u, d.v);
  ASSERT_TRUE(g.apply(back));
  EXPECT_FALSE(pi.tree_survives(back, cut, FaultSet{}));
  expect_same_tree(pi.spt(0), t0);  // the flap restored the original tree
}

TEST(TreeSurvives, ArbitrarySchemeIsConservativeOnInserts) {
  Graph g = cycle(8);
  const ArbitraryRpts pi(g);
  const Spt t = pi.spt(0);
  GraphDelta d = GraphDelta::insert(0, 4);
  ASSERT_TRUE(g.apply(d));
  // No exact arithmetic to decide tightness: inserts invalidate.
  EXPECT_FALSE(pi.tree_survives(d, t, FaultSet{}));
  // Removal of a non-tree edge is still decided exactly.
  GraphDelta r = GraphDelta::remove(d.edge);
  ASSERT_TRUE(g.apply(r));
  EXPECT_TRUE(pi.tree_survives(r, t, FaultSet{}));
}

TEST(SptCacheDynamic, AdvanceEpochRekeysSurvivorsZeroCopy) {
  Graph g = gnp_connected(50, 0.1, 13);
  const IsolationRpts pi(g, IsolationAtw(14));
  SptCache cache(SptCache::Config{4, size_t{64} << 20});

  // Resident population at epoch 0: all base trees + fault trees on root 0.
  std::map<Vertex, SptHandle> base;
  for (Vertex r = 0; r < g.num_vertices(); ++r)
    base[r] = cache.insert(SptKey(pi.version(), {r, {}, Direction::kOut}),
                           pi.spt(r));
  for (EdgeId e = 0; e < 8; ++e)
    cache.insert(SptKey(pi.version(), {0, FaultSet{e}, Direction::kOut}),
                 pi.spt(0, FaultSet{e}));
  // Plus one stray from a made-up dead epoch: must be aged out.
  cache.insert(SptKey(SchemeVersion{pi.scheme_id(), 77},
                      {1, {}, Direction::kOut}),
               pi.spt(1));

  GraphDelta d = GraphDelta::remove(base[0]->parent_edge(
      base[0]->parent(1) != kNoVertex ? 1 : 2));
  const uint64_t old_epoch = g.epoch();
  ASSERT_TRUE(g.apply(d));

  std::vector<SptCache::Invalidated> invalidated;
  const auto adv = cache.advance_epoch(
      pi.scheme_id(), old_epoch, g.epoch(),
      [&](const SptKey& key, const Spt& tree) {
        return pi.tree_survives(d, tree, key.fault_set());
      },
      &invalidated);

  EXPECT_GT(adv.carried, 0u);
  EXPECT_GT(adv.invalidated, 0u);
  EXPECT_EQ(adv.purged_stale, 1u);  // the epoch-77 stray
  EXPECT_EQ(adv.repaired, 0u);      // filled by the repair driver, not here
  EXPECT_EQ(invalidated.size(), adv.invalidated);

  size_t invalidated_base = 0;
  for (const auto& inv : invalidated)
    if (inv.key.is_base()) ++invalidated_base;
  size_t resident = 0;
  for (Vertex r = 0; r < g.num_vertices(); ++r) {
    // Old-epoch keys are gone wholesale...
    EXPECT_EQ(cache.peek(SptKey(SchemeVersion{pi.scheme_id(), old_epoch},
                                {r, {}, Direction::kOut})),
              nullptr);
    // ...and survivors answer under the NEW epoch with the SAME pointer
    // (zero-copy carry-forward), still bit-identical to a fresh recompute.
    const auto hit =
        cache.peek(SptKey(pi.version(), {r, {}, Direction::kOut}));
    if (!hit) continue;
    ++resident;
    EXPECT_EQ(hit.get(), base[r].get());
    expect_same_tree(*hit, pi.spt(r));
  }
  EXPECT_EQ(resident, g.num_vertices() - invalidated_base);
  // Every invalidated entry was reported with its key already rekeyed for
  // the repair batch, and its old tree attached as the repair seed.
  for (const auto& inv : invalidated) {
    EXPECT_EQ(inv.key.epoch, g.epoch());
    EXPECT_EQ(cache.peek(inv.key), nullptr);
    ASSERT_NE(inv.old_tree, nullptr);
    if (inv.key.is_base())
      EXPECT_EQ(inv.old_tree.get(), base[inv.key.root].get());
  }
  // Stats roll up the dynamic accounting.
  const auto stats = cache.stats();
  EXPECT_EQ(stats.carried_forward, adv.carried);
  EXPECT_EQ(stats.invalidated, adv.invalidated);
  EXPECT_EQ(stats.purged_stale, 1u);
  // Invalidation never touches a reader's handle.
  for (auto& [r, h] : base) expect_same_tree(*h, *h);
}

// A racing insert can land a bit-identical twin at the NEW epoch before the
// epoch walk runs (advance_epoch's contract allows new-epoch entries). The
// walk must keep the resident twin and drop the redundant survivor -- not
// corrupt the shard with a list entry the map no longer references.
TEST(SptCacheDynamic, AdvanceEpochKeepsResidentNewEpochTwin) {
  Graph g = gnp_connected(30, 0.12, 19);
  const IsolationRpts pi(g, IsolationAtw(20));
  SptCache cache(SptCache::Config{1, size_t{64} << 20});
  const SsspRequest req{0, {}, Direction::kOut};
  const uint64_t old_epoch = g.epoch();
  const auto old_entry = cache.insert(SptKey(pi.version(), req), pi.spt(0));
  ASSERT_NE(old_entry, nullptr);

  // A mutation that does NOT affect root 0's tree: remove a non-tree edge.
  EdgeId non_tree = kNoEdge;
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    if (!old_entry->uses_edge(e)) {
      non_tree = e;
      break;
    }
  ASSERT_NE(non_tree, kNoEdge);
  GraphDelta d = GraphDelta::remove(non_tree);
  ASSERT_TRUE(g.apply(d));

  const auto twin = cache.insert(SptKey(pi.version(), req), pi.spt(0));
  ASSERT_NE(twin, nullptr);
  EXPECT_NE(twin.get(), old_entry.get());
  const size_t bytes_with_both = cache.stats().bytes;

  const auto adv = cache.advance_epoch(
      pi.scheme_id(), old_epoch, g.epoch(),
      [&](const SptKey& key, const Spt& tree) {
        return pi.tree_survives(d, tree, key.fault_set());
      });
  EXPECT_EQ(adv.carried, 0u);
  EXPECT_EQ(adv.invalidated, 0u);
  EXPECT_EQ(adv.purged_stale, 1u);  // the redundant survivor

  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_LT(stats.bytes, bytes_with_both);  // the duplicate's bytes released
  const auto hit = cache.peek(SptKey(pi.version(), req));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit.get(), twin.get());
  expect_same_tree(*hit, *old_entry);
}

TEST(SptCacheDynamic, InvalidateBySchemeAndPredicate) {
  const Graph g = gnp_connected(30, 0.12, 15);
  const IsolationRpts a(g, IsolationAtw(16)), b(g, IsolationAtw(17));
  SptCache cache;
  for (Vertex r = 0; r < 6; ++r) {
    cache.insert(SptKey(a.version(), {r, {}, Direction::kOut}), a.spt(r));
    cache.insert(SptKey(b.version(), {r, {}, Direction::kOut}), b.spt(r));
  }
  const SptHandle held =
      cache.peek(SptKey(a.version(), {0, {}, Direction::kOut}));
  ASSERT_NE(held, nullptr);

  // Predicate form: drop a single root of scheme a.
  EXPECT_EQ(cache.invalidate(a.scheme_id(),
                             [](const SptKey& k, const Spt&) {
                               return k.root == 3;
                             }),
            1u);
  EXPECT_EQ(cache.peek(SptKey(a.version(), {3, {}, Direction::kOut})),
            nullptr);
  EXPECT_NE(cache.peek(SptKey(a.version(), {2, {}, Direction::kOut})),
            nullptr);

  // Scheme-retirement form: everything of a goes -- including protected
  // base trees, which must not strand bytes -- b untouched, handles live.
  EXPECT_EQ(cache.invalidate(a.scheme_id()), 5u);
  EXPECT_EQ(cache.peek(SptKey(a.version(), {0, {}, Direction::kOut})),
            nullptr);
  for (Vertex r = 0; r < 6; ++r)
    EXPECT_NE(cache.peek(SptKey(b.version(), {r, {}, Direction::kOut})),
              nullptr);
  expect_same_tree(*held, a.spt(0));
  EXPECT_EQ(cache.stats().entries, 6u);
}

// The end-to-end acceptance criterion: a single edge flap through
// apply_update invalidates only affected roots (carried > 0), and every
// post-update answer is bit-identical to a from-scratch rebuild -- at
// engine widths 1, 2 and 8.
TEST(OracleServerDynamic, ApplyUpdateMatchesFromScratchRebuild) {
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Graph g = gnp_connected(60, 0.08, 30 + threads);
    const IsolationRpts pi(g, IsolationAtw(31));
    const BatchSsspEngine engine(threads);
    ServerConfig cfg;
    cfg.engine = &engine;
    OracleServer server(pi, cfg);

    // Warm the hot set.
    const std::vector<Vertex> hot{0, 9, 21, 33, 45, 57};
    for (Vertex s : hot)
      for (Vertex t : {5u, 28u, 51u}) server.distance(s, t);

    // Flap an edge that is provably load-bearing for root 0, and warm the
    // matching fault tree so at least one unconditional survivor exists.
    const auto t0 = server.tree({0, {}, Direction::kOut});
    Vertex deep = 0;
    for (Vertex v = 0; v < g.num_vertices(); ++v)
      if (t0->reachable(v) && t0->hops(v) > t0->hops(deep)) deep = v;
    const EdgeId victim = t0->parent_edge(deep);
    server.distance(0, deep, FaultSet{victim});

    const auto res = server.apply_update(g, GraphDelta::remove(victim));
    EXPECT_TRUE(res.changed);
    EXPECT_EQ(res.new_epoch, res.old_epoch + 1);
    EXPECT_GT(res.invalidated, 0u);  // root 0's base tree was affected
    EXPECT_GT(res.carried, 0u);      // the faulted twin (at least) carried
    EXPECT_GT(res.prewarmed, 0u);    // and the affected base roots re-warmed

    // Every post-update answer equals a from-scratch rebuild on the
    // mutated graph (same policy seed => same weights => same scheme).
    const IsolationRpts rebuilt(g, IsolationAtw(31));
    for (Vertex s : hot) {
      expect_same_tree(*server.tree({s, {}, Direction::kOut}),
                       rebuilt.spt(s));
      for (Vertex t : {5u, 28u, 51u}) {
        EXPECT_EQ(server.distance(s, t), rebuilt.distance(s, t));
        EXPECT_EQ(server.replacement_distance(s, t, victim),
                  rebuilt.distance(s, t, FaultSet{victim}));
      }
    }

    // Flap back: the tombstone resurrects, and answers return to the
    // original scheme's bit pattern.
    const auto res2 =
        server.apply_update(g, GraphDelta::insert(res.delta.u, res.delta.v));
    EXPECT_TRUE(res2.changed);
    EXPECT_EQ(res2.delta.edge, victim);
    EXPECT_GT(res2.carried, 0u);
    const IsolationRpts rebuilt2(g, IsolationAtw(31));
    for (Vertex s : hot) {
      expect_same_tree(*server.tree({s, {}, Direction::kOut}),
                       rebuilt2.spt(s));
      EXPECT_EQ(server.distance(s, deep), rebuilt2.distance(s, deep));
    }

    // No-op updates change nothing and cost nothing.
    const auto noop =
        server.apply_update(g, GraphDelta::insert(res.delta.u, res.delta.v));
    EXPECT_FALSE(noop.changed);
    EXPECT_EQ(noop.new_epoch, noop.old_epoch);

    // A foreign graph is rejected outright.
    Graph other = cycle(5);
    EXPECT_THROW(server.apply_update(other, GraphDelta::remove(0)),
                 std::invalid_argument);
  }
}

// Satellite: invalidation under concurrent readers. Mutator threads flap
// edges through apply_update while reader threads hold SptHandles and keep
// querying; held handles must stay valid and bit-identical to the snapshot
// taken at capture time, and post-churn answers must match a from-scratch
// rebuild -- at 1, 2 and 8 reader threads.
TEST(OracleServerDynamic, HammerReadersHoldHandlesAcrossUpdates) {
  for (int readers : {1, 2, 8}) {
    SCOPED_TRACE("readers=" + std::to_string(readers));
    Graph g = gnp_connected(50, 0.1, 40 + readers);
    const IsolationRpts pi(g, IsolationAtw(41));
    const BatchSsspEngine engine(2);
    ServerConfig cfg;
    cfg.engine = &engine;
    cfg.cache.shards = 4;
    OracleServer server(pi, cfg);

    std::atomic<bool> stop{false};
    std::vector<std::vector<std::pair<SptHandle, Spt>>> held(readers);
    std::vector<std::thread> workers;
    workers.reserve(readers);
    for (int w = 0; w < readers; ++w) {
      workers.emplace_back([&, w] {
        uint64_t r = 0;
        // Run at least a few rounds even if the mutator finishes first, so
        // every reader holds snapshots.
        while (r < 32 || !stop.load(std::memory_order_relaxed)) {
          const Vertex root =
              static_cast<Vertex>(hash_combine(w, r) % g.num_vertices());
          const auto tree = server.tree({root, {}, Direction::kOut});
          if (r % 16 == 0) held[w].emplace_back(tree, *tree);  // snapshot
          // Consume answers (cannot verify against a racing topology; the
          // rebuild check below is the correctness oracle).
          server.distance(root, static_cast<Vertex>((root + 7) %
                                                    g.num_vertices()));
          ++r;
        }
      });
    }

    // Mutator: 16 seeded flaps (remove a random present edge, then put it
    // back) while the readers hammer.
    Rng rng(99 + readers);
    size_t carried_total = 0, invalidated_total = 0;
    EdgeId out = kNoEdge;
    Vertex ou = 0, ov = 0;
    for (int f = 0; f < 16; ++f) {
      GraphDelta d;
      if (out == kNoEdge) {
        EdgeId e = static_cast<EdgeId>(rng.next_below(g.num_edges()));
        while (!g.edge_present(e))
          e = static_cast<EdgeId>(rng.next_below(g.num_edges()));
        // Warm the matching fault tree: it survives the removal of e
        // unconditionally, so every remove-flap provably carries a tree
        // forward regardless of reader/mutator interleaving.
        server.distance(0, static_cast<Vertex>(e % g.num_vertices()),
                        FaultSet{e});
        d = GraphDelta::remove(e);
      } else {
        d = GraphDelta::insert(ou, ov);
      }
      const auto res = server.apply_update(g, d);
      ASSERT_TRUE(res.changed);
      carried_total += res.carried;
      invalidated_total += res.invalidated;
      if (d.kind == GraphDelta::Kind::kRemove) {
        out = res.delta.edge;
        ou = res.delta.u;
        ov = res.delta.v;
      } else {
        out = kNoEdge;
      }
    }
    stop.store(true, std::memory_order_relaxed);
    for (auto& t : workers) t.join();

    // Old handles: still valid, still bit-identical to capture time.
    size_t snapshots = 0;
    for (const auto& per_worker : held)
      for (const auto& [handle, snapshot] : per_worker) {
        ++snapshots;
        expect_same_tree(*handle, snapshot);
      }
    EXPECT_GT(snapshots, 0u);
    EXPECT_GT(carried_total, 0u);
    (void)invalidated_total;  // may be 0 if every flap missed all trees

    // Post-churn answers match a from-scratch rebuild of the final graph.
    const IsolationRpts rebuilt(g, IsolationAtw(41));
    for (Vertex s = 0; s < g.num_vertices(); s += 5) {
      expect_same_tree(*server.tree({s, {}, Direction::kOut}),
                       rebuilt.spt(s));
      for (Vertex t = 1; t < g.num_vertices(); t += 13)
        EXPECT_EQ(server.distance(s, t), rebuilt.distance(s, t));
    }
  }
}

}  // namespace
}  // namespace restorable
