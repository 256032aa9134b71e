// Tests for the parallel batch-SSSP engine (src/engine/): the workspace
// sweep must be element-wise identical to the reference tiebroken_sssp,
// results must be in request order at every thread count, and the thread
// pool must execute every index exactly once.
#include "engine/batch_sssp.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/dijkstra.h"
#include "core/rpts.h"
#include "engine/thread_pool.h"
#include "graph/generators.h"
#include "rp/subset_rp.h"

namespace restorable {
namespace {

// A mixed request load over g: every direction, fault-free and single-fault
// roots spread over the graph.
std::vector<SsspRequest> mixed_requests(const Graph& g) {
  std::vector<SsspRequest> reqs;
  const Vertex n = g.num_vertices();
  const EdgeId m = g.num_edges();
  for (int i = 0; i < 12; ++i) {
    const Vertex root = static_cast<Vertex>((i * 7) % n);
    const Direction dir = i % 2 ? Direction::kIn : Direction::kOut;
    FaultSet faults;
    if (i % 3 == 1) faults.insert(static_cast<EdgeId>((i * 5) % m));
    if (i % 3 == 2) {
      faults.insert(static_cast<EdgeId>((i * 11) % m));
      faults.insert(static_cast<EdgeId>((i * 13 + 1) % m));
    }
    reqs.push_back({root, std::move(faults), dir});
  }
  return reqs;
}

template <typename Policy>
void expect_batch_matches_reference(const Graph& g, const Policy& policy) {
  const auto reqs = mixed_requests(g);

  // Reference: direct sequential calls to the lazy-heap implementation.
  std::vector<Spt> want;
  want.reserve(reqs.size());
  for (const SsspRequest& r : reqs)
    want.push_back(tiebroken_sssp(g, policy, r.root, r.faults, r.dir).spt);

  for (int threads : {1, 2, 8}) {
    const BatchSsspEngine engine(threads);
    const auto got = engine.run_batch(g, policy, reqs);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < reqs.size(); ++i) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " request=" + std::to_string(i));
      EXPECT_EQ(got[i].root, want[i].root);
      EXPECT_EQ(got[i].dir, want[i].dir);
      ASSERT_EQ(got[i].num_vertices(), want[i].num_vertices());
      for (Vertex v = 0; v < want[i].num_vertices(); ++v) {
        EXPECT_EQ(got[i].hops(v), want[i].hops(v));
        EXPECT_EQ(got[i].parent(v), want[i].parent(v));
        EXPECT_EQ(got[i].parent_edge(v), want[i].parent_edge(v));
      }
    }
  }
}

TEST(BatchSsspEngine, MatchesReferenceIsolationPolicy) {
  for (uint64_t seed : {1u, 2u}) {
    const Graph g = gnp_connected(60, 0.08, seed);
    expect_batch_matches_reference(g, IsolationAtw(seed + 10));
  }
  expect_batch_matches_reference(torus(6, 6), IsolationAtw(3));
  // Bridges: faults that disconnect exercise the unreachable paths.
  expect_batch_matches_reference(dumbbell(8, 3), IsolationAtw(4));
}

// Weight range 0 makes every tie collide: the sweep's "first strict
// minimum in adjacency order" must pick the reference parent pass's arc.
// The sparse graph runs many more, and longer, hop layers.
TEST(BatchSsspEngine, MatchesReferenceCollidingTiesAndDeepLayers) {
  expect_batch_matches_reference(gnp_connected(60, 0.08, 3),
                                 IsolationAtw(5, /*weight_range=*/0));
  expect_batch_matches_reference(grid(7, 9), IsolationAtw(6, 0));
  expect_batch_matches_reference(sparse_connected(2000, 3, 7), IsolationAtw(8));
}

TEST(BatchSsspEngine, MatchesReferenceDeterministicPolicy) {
  const Graph g = gnp_connected(40, 0.1, 5);
  expect_batch_matches_reference(g, DeterministicAtw(g));
  const Graph t = theta_graph(4, 4);
  expect_batch_matches_reference(t, DeterministicAtw(t));
}

TEST(BatchSsspEngine, MatchesReferenceRandomRealPolicy) {
  const Graph g = gnp_connected(50, 0.09, 6);
  expect_batch_matches_reference(g, RandomRealAtw(7, g.num_vertices()));
}

TEST(BatchSsspEngine, WorkspaceSurvivesGraphSwitches) {
  // One engine, alternating graphs of different sizes: the per-thread
  // workspaces must resize and reset correctly between runs.
  const Graph a = gnp_connected(80, 0.06, 11);
  const Graph b = cycle(9);
  const IsolationAtw pol(12);
  const BatchSsspEngine engine(2);
  for (int round = 0; round < 3; ++round) {
    const Graph& g = round % 2 ? b : a;
    const auto reqs = mixed_requests(g);
    const auto got = engine.run_batch(g, pol, reqs);
    for (size_t i = 0; i < reqs.size(); ++i) {
      const auto want =
          tiebroken_sssp(g, pol, reqs[i].root, reqs[i].faults, reqs[i].dir);
      for (Vertex v = 0; v < want.spt.num_vertices(); ++v) {
        EXPECT_EQ(got[i].hops(v), want.spt.hops(v));
        EXPECT_EQ(got[i].parent(v), want.spt.parent(v));
      }
    }
  }
}

// A policy that throws from an accumulate once its budget runs out (a
// negative budget never does).
struct ThrowingAtw {
  using Tie = IsolationAtw::Tie;
  IsolationAtw inner{3};
  mutable int budget = -1;
  Tie zero() const { return inner.zero(); }
  void accumulate(Tie& t, EdgeId label, bool forward) const {
    if (budget >= 0 && budget-- == 0) throw std::runtime_error("budget");
    inner.accumulate(t, label, forward);
  }
  int compare(const Tie& a, const Tie& b) const {
    return inner.compare(a, b);
  }
};

// A sweep that throws half way leaves its workspace clean (the reset runs
// on the way out), so the next sweep on it is exact.
TEST(BatchSsspEngine, WorkspaceCleanAfterThrow) {
  const Graph g = gnp_connected(60, 0.08, 9);
  ThrowingAtw policy;
  DijkstraWorkspace<ThrowingAtw> ws;
  Spt out;
  policy.budget = 40;
  EXPECT_THROW(
      tiebroken_sssp_into(g, policy, 0, {}, Direction::kOut, ws, out),
      std::runtime_error);
  policy.budget = -1;
  for (const Vertex root : {Vertex{0}, Vertex{17}}) {
    tiebroken_sssp_into(g, policy, root, {}, Direction::kOut, ws, out);
    const Spt want = tiebroken_sssp(g, policy, root, {}, Direction::kOut).spt;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(out.hops(v), want.hops(v)) << "root=" << root << " v=" << v;
      EXPECT_EQ(out.parent_edge(v), want.parent_edge(v));
    }
  }
}

TEST(BatchSsspEngine, EmptyBatch) {
  const Graph g = cycle(5);
  const BatchSsspEngine engine(4);
  EXPECT_TRUE(engine.run_batch(g, IsolationAtw(1), {}).empty());
}

TEST(SptBatch, RptsOverrideMatchesSequentialSpt) {
  const Graph g = gnp_connected(45, 0.1, 21);
  const IsolationRpts pi(g, IsolationAtw(22));
  const auto reqs = mixed_requests(g);
  const BatchSsspEngine engine(2);
  const auto got = pi.spt_batch(reqs, &engine);
  ASSERT_EQ(got.size(), reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    const Spt want = tiebroken_sssp(g, pi.policy(), reqs[i].root,
                                    reqs[i].faults, reqs[i].dir)
                         .spt;
    for (Vertex v = 0; v < want.num_vertices(); ++v) {
      EXPECT_EQ(got[i]->hops(v), want.hops(v));
      EXPECT_EQ(got[i]->parent(v), want.parent(v));
      EXPECT_EQ(got[i]->parent_edge(v), want.parent_edge(v));
    }
  }
}

TEST(SptBatch, DefaultImplementationCoversArbitraryRpts) {
  // ArbitraryRpts has no policy, so it exercises IRpts' generic fan-out.
  const Graph g = gnp_connected(30, 0.12, 31);
  const ArbitraryRpts pi(g);
  const auto reqs = mixed_requests(g);
  const BatchSsspEngine engine(4);
  const auto got = pi.spt_batch(reqs, &engine);
  ASSERT_EQ(got.size(), reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    const Spt want = pi.spt(reqs[i].root, reqs[i].faults, reqs[i].dir);
    for (Vertex v = 0; v < want.num_vertices(); ++v) {
      EXPECT_EQ(got[i]->hops(v), want.hops(v));
      EXPECT_EQ(got[i]->parent(v), want.parent(v));
    }
  }
}

// Regression: a root >= n used to write hops[root] past the end of the
// label arrays (heap-buffer-overflow under ASan) in the reference Dijkstra,
// the engine's workspace sweep and ArbitraryRpts' BFS; a fault id >= m
// matched no arc, so the fault-free tree was served (and cached) under a
// key naming a fault that does not exist. Each of those entries throws
// std::out_of_range instead; spt_batch rethrows it on the caller, and the
// engine keeps serving afterwards.
TEST(SptBatch, RejectsOutOfRangeRoot) {
  const Graph g = gnp_connected(30, 0.12, 41);
  const IsolationRpts pi(g, IsolationAtw(42));
  const ArbitraryRpts arb(g);
  const Vertex n = g.num_vertices();
  const EdgeId m = g.num_edges();
  const BatchSsspEngine engine(2);
  const std::vector<SsspRequest> bad{{0, {}, Direction::kOut},
                                     {n, {}, Direction::kIn}};
  EXPECT_THROW(pi.spt(n), std::out_of_range);
  EXPECT_THROW(pi.spt(n + 7), std::out_of_range);
  EXPECT_THROW(pi.spt_batch(bad, &engine), std::out_of_range);
  EXPECT_THROW(arb.spt(n), std::out_of_range);
  EXPECT_THROW(arb.spt_batch(bad, &engine), std::out_of_range);

  const FaultSet bad_faults{1, m};
  const std::vector<SsspRequest> bad_fault{{0, {}, Direction::kOut},
                                           {3, bad_faults, Direction::kIn}};
  EXPECT_THROW(tiebroken_sssp(g, pi.policy(), 0, bad_faults, Direction::kOut),
               std::out_of_range);
  EXPECT_THROW(pi.spt(0, bad_faults), std::out_of_range);
  EXPECT_THROW(pi.spt(0, FaultSet{m + 9}), std::out_of_range);
  EXPECT_THROW(pi.spt_batch(bad_fault, &engine), std::out_of_range);
  EXPECT_THROW(arb.spt(0, bad_faults), std::out_of_range);
  EXPECT_THROW(arb.spt_batch(bad_fault, &engine), std::out_of_range);

  // The boundary root and edge are valid, and the engine's workspaces are
  // clean.
  const auto ok = pi.spt_batch(
      std::vector<SsspRequest>{{n - 1, FaultSet{m - 1}, Direction::kOut}},
      &engine);
  const Spt want =
      tiebroken_sssp(g, pi.policy(), n - 1, FaultSet{m - 1}, Direction::kOut)
          .spt;
  for (Vertex v = 0; v < n; ++v) {
    EXPECT_EQ(ok[0]->hops(v), want.hops(v));
    EXPECT_EQ(ok[0]->parent_edge(v), want.parent_edge(v));
  }
  EXPECT_EQ(arb.spt(n - 1).hops(n - 1), 0);
}

TEST(ThreadPool, EveryIndexExactlyOnce) {
  const ThreadPool pool(4);
  constexpr size_t kCount = 10000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.parallel_for(kCount, [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  const ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(8, [&](size_t i) {
    pool.parallel_for(8, [&](size_t j) {
      hits[i * 8 + j].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (size_t k = 0; k < hits.size(); ++k) EXPECT_EQ(hits[k].load(), 1);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  const ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<size_t> sum{0};
    pool.parallel_for(100, [&](size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

// A throw on a worker lane fails the job, not the process: parallel_for
// rethrows on the caller after the drain, and the pool stays usable.
TEST(ThreadPool, WorkerExceptionRethrowsOnCaller) {
  const ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    EXPECT_THROW(pool.parallel_for(64,
                                   [](size_t i) {
                                     throw std::runtime_error(
                                         "index " + std::to_string(i));
                                   }),
                 std::runtime_error);
    std::vector<std::atomic<int>> hits(100);
    pool.parallel_for(hits.size(), [&](size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
  }
  // Only the worker lanes throw (the slowed caller leaves them indices to
  // grab): the exception still surfaces on the caller.
  const std::thread::id caller = std::this_thread::get_id();
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](size_t) {
                                   if (std::this_thread::get_id() != caller)
                                     throw std::runtime_error("worker");
                                   std::this_thread::sleep_for(
                                       std::chrono::microseconds(200));
                                 }),
               std::runtime_error);
}

// End-to-end: the heavy consumers must produce thread-count-independent
// results when handed engines of different widths.
TEST(BatchSsspEngine, ConsumersAreThreadCountInvariant) {
  const Graph g = gnp_connected(70, 0.07, 41);
  const IsolationRpts pi(g, IsolationAtw(42));
  const std::vector<Vertex> sources{0, 13, 27, 44, 61};

  const BatchSsspEngine e1(1), e2(2), e8(8);
  const auto r1 = subset_replacement_paths(pi, sources, &e1);
  const auto r2 = subset_replacement_paths(pi, sources, &e2);
  const auto r8 = subset_replacement_paths(pi, sources, &e8);
  ASSERT_EQ(r1.pairs.size(), r2.pairs.size());
  ASSERT_EQ(r1.pairs.size(), r8.pairs.size());
  for (size_t p = 0; p < r1.pairs.size(); ++p) {
    EXPECT_EQ(r1.pairs[p].base_path, r2.pairs[p].base_path);
    EXPECT_EQ(r1.pairs[p].base_path, r8.pairs[p].base_path);
    EXPECT_EQ(r1.pairs[p].replacement, r2.pairs[p].replacement);
    EXPECT_EQ(r1.pairs[p].replacement, r8.pairs[p].replacement);
  }
  EXPECT_EQ(r1.tree_edges_total, r8.tree_edges_total);
}

}  // namespace
}  // namespace restorable
