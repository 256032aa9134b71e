// Tests for the parallel batch-SSSP engine (src/engine/): the workspace
// Dijkstra must be element-wise identical to the reference tiebroken_sssp,
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

// exact_tie: whether Policy::Tie supports exact (==) comparison in tests.
template <typename Policy>
void expect_batch_matches_reference(const Graph& g, const Policy& policy,
                                    bool exact_tie) {
  const auto reqs = mixed_requests(g);

  // Reference: direct sequential calls to the lazy-heap implementation.
  std::vector<DijkstraResult<Policy>> want;
  want.reserve(reqs.size());
  for (const SsspRequest& r : reqs)
    want.push_back(tiebroken_sssp(g, policy, r.root, r.faults, r.dir));

  for (int threads : {1, 2, 8}) {
    const BatchSsspEngine engine(threads);
    const auto got = engine.run_batch(g, policy, reqs);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < reqs.size(); ++i) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " request=" + std::to_string(i));
      EXPECT_EQ(got[i].spt.root, want[i].spt.root);
      EXPECT_EQ(got[i].spt.dir, want[i].spt.dir);
      ASSERT_EQ(got[i].spt.num_vertices(), want[i].spt.num_vertices());
      for (Vertex v = 0; v < want[i].spt.num_vertices(); ++v) {
        EXPECT_EQ(got[i].spt.hops(v), want[i].spt.hops(v));
        EXPECT_EQ(got[i].spt.parent(v), want[i].spt.parent(v));
        EXPECT_EQ(got[i].spt.parent_edge(v), want[i].spt.parent_edge(v));
      }
      ASSERT_EQ(got[i].tie.size(), want[i].tie.size());
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        EXPECT_EQ(policy.compare(got[i].tie[v], want[i].tie[v]), 0)
            << "tie mismatch at vertex " << v;
        if (exact_tie) EXPECT_EQ(got[i].tie[v], want[i].tie[v]);
      }
    }
  }
}

TEST(BatchSsspEngine, MatchesReferenceIsolationPolicy) {
  for (uint64_t seed : {1u, 2u}) {
    const Graph g = gnp_connected(60, 0.08, seed);
    expect_batch_matches_reference(g, IsolationAtw(seed + 10),
                                   /*exact_tie=*/true);
  }
  expect_batch_matches_reference(torus(6, 6), IsolationAtw(3),
                                 /*exact_tie=*/true);
  // Bridges: faults that disconnect exercise the unreachable paths.
  expect_batch_matches_reference(dumbbell(8, 3), IsolationAtw(4),
                                 /*exact_tie=*/true);
}

TEST(BatchSsspEngine, MatchesReferenceDeterministicPolicy) {
  const Graph g = gnp_connected(40, 0.1, 5);
  expect_batch_matches_reference(g, DeterministicAtw(g), /*exact_tie=*/true);
  const Graph t = theta_graph(4, 4);
  expect_batch_matches_reference(t, DeterministicAtw(t), /*exact_tie=*/true);
}

TEST(BatchSsspEngine, MatchesReferenceRandomRealPolicy) {
  const Graph g = gnp_connected(50, 0.09, 6);
  // Long-double ties are compared through the policy (compare == 0), not
  // bitwise; hops/parents must still be identical.
  expect_batch_matches_reference(g, RandomRealAtw(7, g.num_vertices()),
                                 /*exact_tie=*/false);
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
        EXPECT_EQ(got[i].spt.hops(v), want.spt.hops(v));
        EXPECT_EQ(got[i].spt.parent(v), want.spt.parent(v));
      }
      EXPECT_EQ(got[i].tie, want.tie);
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
    const Spt want = pi.spt(reqs[i].root, reqs[i].faults, reqs[i].dir);
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
  EXPECT_EQ(r1.union_graph_edges_total, r8.union_graph_edges_total);
}

}  // namespace
}  // namespace restorable
