// Tests for the approximate (1+eps) tier: the engine's epsilon mode, the
// eps-slack survival/repair variants (invariant F, core/rpts.h),
// the eps-keyed cache identity, and the OracleServer escalation rules.
//
// The two load-bearing properties:
//  * eps_q == 0 requests are BIT-IDENTICAL to the exact engine at every
//    thread count and under every tiebreaking policy -- the approximate
//    tier is provably invisible when it is off.
//  * every approximate label is sandwiched: d_true <= hops <= (1+eps)^d_true
//    * d_true, with reachability preserved exactly.
#include "core/rpts.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/dijkstra.h"
#include "engine/batch_sssp.h"
#include "graph/generators.h"
#include "serve/oracle_server.h"
#include "serve/spt_cache.h"

namespace restorable {
namespace {

double stretch_bound(double eps, int32_t d_true) {
  return std::pow(1.0 + eps, static_cast<double>(d_true)) *
         static_cast<double>(d_true);
}

// Asserts the user-facing contract of an approximate tree against the exact
// hop distances (the exact tree's hops ARE d_true: distances are hop counts).
void expect_within_stretch(const Spt& approx, const Spt& exact,
                           uint32_t eps_q) {
  const double eps = dequantize_epsilon(eps_q);
  ASSERT_EQ(approx.num_vertices(), exact.num_vertices());
  for (Vertex v = 0; v < approx.num_vertices(); ++v) {
    if (exact.hops(v) == kUnreachable) {
      EXPECT_EQ(approx.hops(v), kUnreachable) << "v=" << v;
      continue;
    }
    ASSERT_NE(approx.hops(v), kUnreachable) << "v=" << v;
    EXPECT_GE(approx.hops(v), exact.hops(v)) << "v=" << v;
    EXPECT_LE(static_cast<double>(approx.hops(v)),
              stretch_bound(eps, exact.hops(v)) + 1e-9)
        << "v=" << v << " d_true=" << exact.hops(v);
  }
}

// Structural sanity of an approximate tree: every finite non-root label has
// a parent chain with strictly descending hops over present non-fault edges
// (invariant F1 -- what path_to / top_order rely on).
void expect_realizable(const Graph& g, const Spt& tree,
                       const FaultSet& faults) {
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (tree.hops(v) == kUnreachable || v == tree.root) continue;
    const Vertex p = tree.parent(v);
    const EdgeId pe = tree.parent_edge(v);
    ASSERT_NE(p, kNoVertex) << "v=" << v;
    ASSERT_NE(pe, kNoEdge) << "v=" << v;
    EXPECT_TRUE(g.edge_present(pe)) << "v=" << v;
    EXPECT_FALSE(faults.contains(pe)) << "v=" << v;
    const Edge& e = g.endpoints(pe);
    EXPECT_TRUE((e.u == p && e.v == v) || (e.v == p && e.u == v));
    EXPECT_LT(tree.hops(p), tree.hops(v)) << "v=" << v;
  }
  EXPECT_EQ(tree.hops(tree.root), 0);
}

// Invariant F2 (relaxed feasibility): for every present non-fault edge, in
// both directions, a finite label at one end implies a finite label at the
// other that the relaxation across the edge would not improve.
void expect_feasible(const Graph& g, const Spt& tree, const FaultSet& faults,
                     uint32_t eps_q) {
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!g.edge_present(e) || faults.contains(e)) continue;
    const Edge& ed = g.endpoints(e);
    for (const auto& [x, y] : {std::pair{ed.u, ed.v}, std::pair{ed.v, ed.u}}) {
      if (tree.hops(x) == kUnreachable) continue;
      EXPECT_NE(tree.hops(y), kUnreachable) << "edge " << e;
      EXPECT_FALSE(epsilon_improves(tree.hops(y), tree.hops(x) + 1, eps_q))
          << "edge " << e << ": " << x << " (" << tree.hops(x) << ") -> " << y
          << " (" << tree.hops(y) << ")";
    }
  }
}

TEST(EpsilonQuantization, FloorsAndCaps) {
  EXPECT_EQ(quantize_epsilon(0.0), 0u);
  EXPECT_EQ(quantize_epsilon(-1.0), 0u);
  // Floor-quantization: the effective epsilon never exceeds the request, so
  // the promised (1+eps)^d bound is valid verbatim.
  EXPECT_LE(dequantize_epsilon(quantize_epsilon(0.1)), 0.1);
  EXPECT_LE(dequantize_epsilon(quantize_epsilon(0.37)), 0.37);
  EXPECT_EQ(quantize_epsilon(1.0), kEpsilonDenom);
  EXPECT_EQ(quantize_epsilon(1e9), 16 * kEpsilonDenom);  // cap
  // Sub-quantum epsilons collapse to exact.
  EXPECT_EQ(quantize_epsilon(1.0 / (4.0 * kEpsilonDenom)), 0u);
}

TEST(EpsilonImproves, ExactReducesToStrictLess) {
  EXPECT_TRUE(epsilon_improves(kUnreachable, 5, 0));
  EXPECT_TRUE(epsilon_improves(6, 5, 0));
  EXPECT_FALSE(epsilon_improves(5, 5, 0));
  EXPECT_FALSE(epsilon_improves(5, 6, 0));
  // With slack: 10 vs 9 at eps = 0.25 is NOT an improvement (10 <= 1.25*9).
  const uint32_t q = quantize_epsilon(0.25);
  EXPECT_FALSE(epsilon_improves(10, 9, q));
  EXPECT_TRUE(epsilon_improves(10, 7, q));  // 10 > 1.25*7 = 8.75
}

// --- eps_q == 0 bit-identity fuzz: every policy, every thread count. -----

template <typename Policy>
void run_exact_identity_fuzz(const Graph& g, const Policy& policy) {
  std::vector<SsspRequest> reqs;
  for (Vertex r = 0; r < g.num_vertices(); r += 3) {
    reqs.push_back({r, {}, Direction::kOut, 0});
    reqs.push_back({r, FaultSet{static_cast<EdgeId>(r % g.num_edges())},
                    Direction::kOut, 0});
  }
  // Reference: the core lazy-heap Dijkstra, one request at a time.
  std::vector<Spt> want;
  for (const SsspRequest& q : reqs)
    want.push_back(tiebroken_sssp(g, policy, q.root, q.faults, q.dir).spt);
  for (int threads : {1, 2, 8}) {
    BatchSsspEngine eng(threads);
    const auto got = eng.run_batch(g, policy, reqs);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].num_vertices(), want[i].num_vertices());
      for (Vertex v = 0; v < want[i].num_vertices(); ++v) {
        EXPECT_EQ(got[i].hops(v), want[i].hops(v)) << "threads=" << threads;
        EXPECT_EQ(got[i].parent(v), want[i].parent(v))
            << "threads=" << threads;
        EXPECT_EQ(got[i].parent_edge(v), want[i].parent_edge(v));
      }
    }
  }
}

TEST(ApproxEngine, EpsZeroBitIdenticalAcrossPoliciesAndThreads) {
  for (int variant = 0; variant < 4; ++variant) {
    const Graph g = variant % 2 ? torus(4, 5 + variant)
                                : gnp_connected(26 + variant, 0.14, variant);
    run_exact_identity_fuzz(g, IsolationAtw(variant * 13 + 1));
    run_exact_identity_fuzz(g, RandomRealAtw(variant * 7 + 2,
                                             g.num_vertices()));
    run_exact_identity_fuzz(g, DeterministicAtw(g));
  }
}

// --- The stretch property: sandwich bound + realizability. ----------------

TEST(ApproxEngine, RelaxedLabelsWithinStretchBound) {
  for (int variant = 0; variant < 5; ++variant) {
    const Graph g = variant % 2 ? grid(4, 6 + variant)
                                : gnp_connected(40, 0.08, 11 + variant);
    const IsolationAtw atw(variant + 3);
    const BatchSsspEngine eng(4);
    for (double epsilon : {0.05, 0.25, 1.0}) {
      const uint32_t eps_q = quantize_epsilon(epsilon);
      std::vector<SsspRequest> reqs;
      for (Vertex r = 0; r < g.num_vertices(); r += 5) {
        reqs.push_back({r, {}, Direction::kOut, eps_q});
        reqs.push_back({r, FaultSet{static_cast<EdgeId>((r * 3) % g.num_edges())},
                        Direction::kOut, eps_q});
      }
      const auto approx = eng.run_batch(g, atw, reqs);
      for (size_t i = 0; i < reqs.size(); ++i) {
        const Spt exact = tiebroken_sssp(g, atw, reqs[i].root, reqs[i].faults,
                                         reqs[i].dir)
                              .spt;
        expect_within_stretch(approx[i], exact, eps_q);
        expect_realizable(g, approx[i], reqs[i].faults);
      }
    }
  }
}

// A fresh epsilon build never relabels a vertex: its hops are the exact
// tree's at every vertex, out and in, with and without a tree-edge fault.
TEST(ApproxEngine, FreshEpsTreeHasExactHops) {
  const Graph g = gnp_connected(120, 0.04, 17);
  const IsolationAtw atw(18);
  const BatchSsspEngine eng(2);
  const uint32_t eps_q = quantize_epsilon(1.0);
  std::vector<SsspRequest> reqs;
  for (Vertex r = 0; r < g.num_vertices(); r += 7)
    for (const Direction dir : {Direction::kOut, Direction::kIn}) {
      const Spt base = tiebroken_sssp(g, atw, r, {}, dir).spt;
      const EdgeId tree_edge = base.parent_edge((r + 1) % g.num_vertices());
      reqs.push_back({r, {}, dir, eps_q});
      reqs.push_back({r, FaultSet{tree_edge}, dir, eps_q});
    }
  const auto approx = eng.run_batch(g, atw, reqs);
  for (size_t i = 0; i < reqs.size(); ++i) {
    const Spt exact =
        tiebroken_sssp(g, atw, reqs[i].root, reqs[i].faults, reqs[i].dir).spt;
    for (Vertex v = 0; v < g.num_vertices(); ++v)
      EXPECT_EQ(approx[i].hops(v), exact.hops(v))
          << "request=" << i << " v=" << v;
  }
}

// --- eps-slack survival and repair preserve the contract under churn. -----

// Drives approximate trees of one scheme through mixed churn on `g0`: each
// round's survivors and repairs must satisfy F1, F2 and the stretch bound on
// the new graph. Schemes that cannot price a fresh label (DeterministicAtw)
// churn with re-inserts of removed edges instead of fresh chords.
void run_eps_churn(const std::string& name, const Graph& g0,
                   const std::function<std::unique_ptr<IRpts>(const Graph&)>&
                       make_scheme,
                   bool allow_fresh_inserts) {
  SCOPED_TRACE(name + " n=" + std::to_string(g0.num_vertices()));
  Graph g = g0;
  const std::unique_ptr<IRpts> pi = make_scheme(g);
  const uint32_t eps_q = quantize_epsilon(0.5);
  const BatchSsspEngine eng(2);

  std::vector<Vertex> roots;
  for (Vertex r = 0; r < g.num_vertices(); r += 3) roots.push_back(r);
  std::vector<SsspRequest> reqs;
  for (Vertex r : roots) reqs.push_back({r, {}, Direction::kOut, eps_q});
  std::vector<Spt> trees;
  for (const SptHandle& t : pi->spt_batch(reqs, &eng)) trees.push_back(*t);

  size_t survived = 0, repaired_ok = 0;
  std::vector<EdgeId> removed;
  for (int round = 0; round < 12; ++round) {
    // Mixed churn: one insert + one removal.
    std::vector<GraphDelta> deltas;
    const Vertex a = (round * 11 + 2) % g.num_vertices();
    const Vertex b = (round * 17 + 19) % g.num_vertices();
    if (!allow_fresh_inserts) {
      if (!removed.empty()) {
        const Edge& ed = g.endpoints(removed.front());
        deltas.push_back(GraphDelta::insert(ed.u, ed.v));
        removed.erase(removed.begin());
      }
    } else if (a != b && g.find_edge(a, b) == kNoEdge) {
      deltas.push_back(GraphDelta::insert(a, b));
    }
    const EdgeId victim = (round * 13 + 5) % g.num_edges();
    if (g.edge_present(victim)) removed.push_back(victim);
    deltas.push_back(GraphDelta::remove(victim));
    const DeltaBatch batch = g.apply(deltas);
    if (!batch.changed()) continue;

    // The exact hop distances on the new graph (BFS hops are d_true).
    const ArbitraryRpts bfs(g);
    for (size_t i = 0; i < trees.size(); ++i) {
      if (pi->batch_survives(batch, trees[i], {}, eps_q)) {
        ++survived;
      } else {
        RepairOutcome out = pi->repair_tree(trees[i], batch, {}, 0.5, eps_q);
        trees[i] = std::move(out.tree);
        ++repaired_ok;
      }
      // Survivor or repaired: the contract must hold on the NEW graph.
      expect_within_stretch(trees[i], bfs.spt(roots[i]), eps_q);
      expect_realizable(g, trees[i], {});
      expect_feasible(g, trees[i], {}, eps_q);
    }
  }
  // The churn mix must actually exercise both paths.
  EXPECT_GT(survived, 0u);
  EXPECT_GT(repaired_ok, 0u);
}

// A random graph, and a grid: its many equal-length routes leave slack
// labels that a later removal lowers, which only the repair's decrease
// seeds re-cascade.
TEST(ApproxRpts, SurvivalAndRepairPreserveStretchUnderChurn) {
  for (const Graph& g : {gnp_connected(36, 0.1, 21), grid(5, 8)}) {
    run_eps_churn(
        "isolation", g,
        [](const Graph& h) {
          return std::make_unique<IsolationRpts>(h, IsolationAtw(9));
        },
        /*allow_fresh_inserts=*/true);
    run_eps_churn(
        "random-real", g,
        [](const Graph& h) {
          return std::make_unique<RandomRealRpts>(
              h, RandomRealAtw(9, h.num_vertices()));
        },
        /*allow_fresh_inserts=*/true);
    run_eps_churn(
        "deterministic", g,
        [](const Graph& h) {
          return std::make_unique<DeterministicRpts>(h, DeterministicAtw(h));
        },
        /*allow_fresh_inserts=*/false);
    // The base-class approximate path (no policy arithmetic at all).
    run_eps_churn(
        "arbitrary", g,
        [](const Graph& h) { return std::make_unique<ArbitraryRpts>(h); },
        /*allow_fresh_inserts=*/true);
  }
}

TEST(ApproxRpts, EpsSlackSurvivesMoreInsertsThanExact) {
  Graph g = gnp_connected(40, 0.08, 33);
  const IsolationAtw atw(5);
  const IsolationRpts pi(g, atw);
  const uint32_t eps_q = quantize_epsilon(1.0);
  const BatchSsspEngine eng(2);

  std::vector<SsspRequest> reqs;
  for (Vertex r = 0; r < g.num_vertices(); r += 2)
    reqs.push_back({r, {}, Direction::kOut, eps_q});
  const std::vector<Spt> approx = eng.run_batch(g, atw, reqs);
  std::vector<Spt> exact;
  for (const auto& q : reqs)
    exact.push_back(tiebroken_sssp(g, atw, q.root, q.faults, q.dir).spt);

  size_t eps_survive = 0, exact_survive = 0;
  for (int round = 0; round < 10; ++round) {
    const Vertex a = (round * 7 + 1) % g.num_vertices();
    const Vertex b = (round * 19 + 23) % g.num_vertices();
    if (a == b || g.find_edge(a, b) != kNoEdge) continue;
    std::vector<GraphDelta> deltas{GraphDelta::insert(a, b)};
    Graph h = g;  // probe the batch without committing it
    const DeltaBatch batch = h.apply(deltas);
    for (size_t i = 0; i < reqs.size(); ++i) {
      if (pi.batch_survives(batch, approx[i], {}, eps_q)) ++eps_survive;
      if (pi.batch_survives(batch, exact[i], {})) ++exact_survive;
    }
  }
  // The slack test is a strict relaxation of the exact one, and at eps = 1
  // it should be measurably more permissive on random inserts.
  EXPECT_GE(eps_survive, exact_survive);
  EXPECT_GT(eps_survive, 0u);
}

// --- Cache identity: eps_q is part of the key; tiers coexist per shard. ---

TEST(ApproxCache, EpsKeysAreDistinctButShareShards) {
  const Graph g = gnp_connected(24, 0.15, 2);
  const IsolationRpts pi(g, IsolationAtw(4));
  const uint32_t eps_q = quantize_epsilon(0.5);
  SptCache cache(SptCache::Config{4, size_t{64} << 20});

  const SsspRequest exact_req{5, {}, Direction::kOut, 0};
  const SsspRequest approx_req{5, {}, Direction::kOut, eps_q};
  const SptKey exact_key(pi.version(), exact_req);
  const SptKey approx_key(pi.version(), approx_req);
  EXPECT_FALSE(exact_key == approx_key);
  // The shard hash ignores eps_q: both tiers of one root live on one shard
  // (so one advance_epoch pass walks both) yet key distinct entries.
  EXPECT_EQ(SptKeyHash::epoch_free(exact_key),
            SptKeyHash::epoch_free(approx_key));

  cache.insert(exact_key, pi.spt(5));
  EXPECT_EQ(cache.lookup(approx_key), nullptr);
  cache.insert(approx_key, pi.spt(5));
  EXPECT_NE(cache.lookup(approx_key), nullptr);
  EXPECT_NE(cache.lookup(exact_key), nullptr);
  EXPECT_EQ(cache.stats().entries, 2u);
}

// --- Server: approximate serving, escalation rules, stretch re-checks. ----

TEST(ApproxServer, ServesApproximatelyAndEscalatesOnDemand) {
  const Graph g = gnp_connected(40, 0.1, 17);
  const IsolationRpts pi(g, IsolationAtw(6));
  ServerConfig cfg;
  cfg.default_epsilon = 0.5;
  cfg.stretch_sample_every = 0;  // no re-checks; pure approximate serving
  OracleServer server(pi, cfg);
  const uint32_t eps_q = quantize_epsilon(0.5);
  const double eps = dequantize_epsilon(eps_q);

  for (Vertex s = 0; s < g.num_vertices(); s += 4) {
    const Spt exact = pi.spt(s);
    for (Vertex t = 0; t < g.num_vertices(); t += 7) {
      const int32_t approx = server.distance(s, t);
      if (exact.hops(t) == kUnreachable) {
        EXPECT_EQ(approx, kUnreachable);
        continue;
      }
      EXPECT_GE(approx, exact.hops(t));
      EXPECT_LE(static_cast<double>(approx),
                stretch_bound(eps, exact.hops(t)) + 1e-9);
      // require_exact escalates and answers exactly.
      EXPECT_EQ(server.distance(s, t, {}, {.require_exact = true}),
                exact.hops(t));
      // Per-query epsilon 0 answers exactly too.
      EXPECT_EQ(server.distance(s, t, {}, {.epsilon = 0.0}), exact.hops(t));
    }
  }
  const ServerStats st = server.stats();
  if constexpr (obs::kEnabled) {
    EXPECT_GT(st.approx_hit + st.miss_leader + st.miss_coalesced, 0u);
    EXPECT_GT(st.approx_hit, 0u);  // repeated roots hit the approx tier
    EXPECT_GT(st.escalated, 0u);
    EXPECT_GT(st.escalations_explicit, 0u);
    EXPECT_EQ(st.escalations_total,
              st.escalations_explicit + st.escalations_path +
                  st.escalations_stretch_recheck);
  }
}

TEST(ApproxServer, StretchRecheckReturnsExactAnswer) {
  const Graph g = grid(5, 6);
  const IsolationRpts pi(g, IsolationAtw(8));
  ServerConfig cfg;
  cfg.default_epsilon = 1.0;
  cfg.stretch_sample_every = 1;  // EVERY approximate query re-checks
  OracleServer server(pi, cfg);

  for (Vertex s = 0; s < g.num_vertices(); s += 3) {
    const Spt exact = pi.spt(s);
    for (Vertex t = 0; t < g.num_vertices(); t += 5)
      EXPECT_EQ(server.distance(s, t), exact.hops(t)) << s << "->" << t;
  }
  if constexpr (obs::kEnabled) {
    const ServerStats st = server.stats();
    EXPECT_GT(st.escalations_stretch_recheck, 0u);
    EXPECT_GT(st.stretch_samples, 0u);
    // Observed stretch is within the promised bound -- for the histogram's
    // worst sample too: (1+eps)^d * d at eps = 1 over this grid's diameter.
    const double worst_allowed =
        (stretch_bound(1.0, 9) - 9.0) * 1e6 / 9.0;  // excess ppm at d = 9
    EXPECT_LE(static_cast<double>(st.max_stretch_excess_ppm),
              worst_allowed + 1.0);
  }
}

TEST(ApproxServer, PathAndReplacementAlwaysEscalate) {
  const Graph g = gnp_connected(30, 0.12, 12);
  const IsolationRpts pi(g, IsolationAtw(3));
  ServerConfig cfg;
  cfg.default_epsilon = 0.5;
  OracleServer server(pi, cfg);

  const Path p = server.path(1, 20);
  const Path want = pi.path(1, 20);
  EXPECT_EQ(p.vertices, want.vertices);  // exact path, not an approximate one
  EXPECT_EQ(server.replacement_distance(1, 20, 0),
            OracleServer(pi, ServerConfig{}).replacement_distance(1, 20, 0));
  if constexpr (obs::kEnabled) {
    EXPECT_GT(server.stats().escalations_path, 0u);
  }
}

TEST(ApproxServer, ApproxTierSurvivesChurnAtLeastAsWellAsExact) {
  Graph g = gnp_connected(36, 0.1, 41);
  const Graph g0 = g;
  const IsolationAtw atw(14);
  const IsolationRpts pi(g, atw);
  ServerConfig cfg;
  cfg.default_epsilon = 1.0;
  cfg.stretch_sample_every = 0;
  OracleServer server(pi, cfg);

  // Warm both tiers on the same roots.
  for (Vertex s = 0; s < g.num_vertices(); s += 3) {
    server.distance(s, (s + 5) % g.num_vertices());
    server.distance(s, (s + 5) % g.num_vertices(), {},
                    {.require_exact = true});
  }
  size_t carried_total = 0, invalidated_total = 0;
  for (int round = 0; round < 4; ++round) {
    const Vertex a = (round * 13 + 3) % g.num_vertices();
    const Vertex b = (round * 29 + 17) % g.num_vertices();
    if (a == b || g.find_edge(a, b) != kNoEdge) continue;
    const UpdateResult res = server.apply_update(g, GraphDelta::insert(a, b));
    carried_total += res.carried;
    invalidated_total += res.invalidated;
    // Post-churn answers still within bound.
    const Spt exact = pi.spt(3);
    const int32_t d = server.distance(3, b);
    if (exact.hops(b) != kUnreachable) {
      EXPECT_GE(d, exact.hops(b));
      EXPECT_LE(static_cast<double>(d),
                stretch_bound(1.0, exact.hops(b)) + 1e-9);
    }
  }
  EXPECT_GT(carried_total, 0u);
  (void)invalidated_total;

  // The same schedule on servers that each read one tier only: the ε
  // tier's slack survival test carries at least the exact tier's share of
  // the trees the inserts adjudicate.
  const auto carried_fraction = [&](double epsilon) {
    Graph h = g0;
    const IsolationRpts ph(h, atw);
    ServerConfig one_tier = cfg;
    one_tier.default_epsilon = epsilon;
    OracleServer tier(ph, one_tier);
    for (Vertex s = 0; s < h.num_vertices(); s += 3)
      tier.distance(s, (s + 5) % h.num_vertices());
    size_t carried = 0, adjudicated = 0;
    for (int round = 0; round < 4; ++round) {
      const Vertex a = (round * 13 + 3) % h.num_vertices();
      const Vertex b = (round * 29 + 17) % h.num_vertices();
      if (a == b || h.find_edge(a, b) != kNoEdge) continue;
      const UpdateResult res = tier.apply_update(h, GraphDelta::insert(a, b));
      carried += res.carried;
      adjudicated += res.carried + res.invalidated;
    }
    EXPECT_GT(adjudicated, 0u) << "epsilon=" << epsilon;
    return adjudicated ? static_cast<double>(carried) /
                             static_cast<double>(adjudicated)
                       : 0.0;
  };
  EXPECT_GE(carried_fraction(1.0), carried_fraction(0.0));
}

}  // namespace
}  // namespace restorable
