// Tests for the RCU-style epoch-pinned serving path (serve/generation.h):
// GenerationManager pin/publish/retire accounting, the max-two-generations
// reader-starvation bound (a pin held across two successive apply_updates
// keeps the old generation alive and blocks the SECOND publish, never a
// reader), bit-identical answers through pinned snapshots, and a
// 1/2/8-thread hammer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "serve/generation.h"
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

std::unique_ptr<const Generation> make_generation(const IRpts& pi) {
  return Generation::of(pi, pi.graph().snapshot());
}

TEST(GenerationManager, PublishRetireAccounting) {
  Graph g = gnp_connected(24, 0.15, 7);
  const IsolationRpts pi(g, IsolationAtw(3));

  GenerationManager mgr(make_generation(pi));
  auto s = mgr.stats();
  EXPECT_EQ(s.published, 1u);
  EXPECT_EQ(s.retired, 0u);
  EXPECT_EQ(s.live, 1u);

  // No pins: the displaced generation drains instantly, and the NEXT
  // publish retires it (publisher-side retirement).
  mgr.publish(make_generation(pi));
  s = mgr.stats();
  EXPECT_EQ(s.published, 2u);
  EXPECT_EQ(s.live, 2u);  // one current + one (already drained) draining
  mgr.publish(make_generation(pi));
  s = mgr.stats();
  EXPECT_EQ(s.published, 3u);
  EXPECT_EQ(s.retired, 1u);
  EXPECT_EQ(s.publish_waits, 0u);  // nothing ever pinned: no waiting
}

TEST(GenerationManager, PinObservesCurrentAndSurvivesUnpublish) {
  Graph g = gnp_connected(24, 0.15, 8);
  const IsolationRpts pi(g, IsolationAtw(4));

  GenerationManager mgr(make_generation(pi));
  auto pin = mgr.pin();
  ASSERT_TRUE(pin);
  const uint64_t epoch0 = pin->epoch();
  const Spt before = pin->scheme->spt(0);

  // Mutate the LIVE graph and publish the new world; the pin still sees the
  // frozen old one, bit-identically.
  GraphDelta d = GraphDelta::remove(before.parent_edge(1) != kNoEdge
                                        ? before.parent_edge(1)
                                        : EdgeId{0});
  ASSERT_TRUE(g.apply(d));
  mgr.publish(make_generation(pi));

  EXPECT_EQ(pin->epoch(), epoch0);
  expect_same_tree(pin->scheme->spt(0), before);

  // A fresh pin lands on the new generation.
  auto pin2 = mgr.pin();
  EXPECT_EQ(pin2->epoch(), g.epoch());

  // Copying a pin re-pins the SAME (old, draining) generation, and the
  // generation drains only when the LAST copy releases.
  auto clone = pin;
  EXPECT_EQ(clone->epoch(), epoch0);
  { auto drop = std::move(pin); }  // release the original
  expect_same_tree(clone->scheme->spt(0), before);
}

TEST(GenerationManager, SecondPublishWaitsForPinnedReader) {
  Graph g = gnp_connected(24, 0.15, 9);
  const IsolationRpts pi(g, IsolationAtw(5));

  GenerationManager mgr(make_generation(pi));
  auto pin = mgr.pin();  // pins generation 0

  mgr.publish(make_generation(pi));  // gen 1: displaces gen 0, no wait

  // gen 2 must wait for gen 0 (two publishes ago) to drain -- the max-two-
  // generations bound. The pin makes it block until released.
  std::atomic<bool> done{false};
  std::thread publisher([&] {
    mgr.publish(make_generation(pi));
    done.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(done.load(std::memory_order_acquire));
  // The pinned world is still fully valid while the publisher waits.
  EXPECT_EQ(pin->scheme->spt(0).root, 0u);

  { auto drop = std::move(pin); }  // unpin: the drain completes
  publisher.join();
  EXPECT_TRUE(done.load(std::memory_order_acquire));
  const auto s = mgr.stats();
  EXPECT_EQ(s.published, 3u);
  EXPECT_EQ(s.retired, 1u);
  EXPECT_GE(s.publish_waits, 1u);
}

// Pins are often released on a thread other than the one that took them
// (batcher flights): a clone handed to another thread
// keeps its generation alive until that thread releases it, and the
// publish two after it waits for exactly that release.
TEST(GenerationManager, CloneReleasedOnAnotherThreadBlocksSecondPublish) {
  Graph g = gnp_connected(24, 0.15, 10);
  const IsolationRpts pi(g, IsolationAtw(5));
  GenerationManager mgr(make_generation(pi));

  // A thread pins, clones, hands the clone over and releases its own pin.
  GenerationManager::Pin handed;
  std::thread([&] {
    const GenerationManager::Pin mine = mgr.pin();
    handed = mine;
  }).join();
  const uint64_t epoch0 = handed->epoch();
  const size_t edges0 = handed->graph->num_present_edges();

  GraphDelta cut = GraphDelta::remove(0);
  ASSERT_TRUE(g.apply(cut));
  mgr.publish(make_generation(pi));  // displaces the handed generation
  std::atomic<bool> done{false};
  std::thread publisher([&] {
    mgr.publish(make_generation(pi));  // must wait for the clone
    done.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(done.load(std::memory_order_acquire));
  EXPECT_EQ(handed->epoch(), epoch0);
  EXPECT_EQ(handed->graph->num_present_edges(), edges0);

  std::thread([p = std::move(handed)] {}).join();  // released over there
  publisher.join();
  EXPECT_TRUE(done.load(std::memory_order_acquire));
  const auto s = mgr.stats();
  EXPECT_EQ(s.retired, 1u);
  EXPECT_GE(s.publish_waits, 1u);
  EXPECT_EQ(s.pins_now, 0u);
}

// The hand-off hammer: producers pin, clone and queue the clones; other
// threads verify and release them, while a publisher flaps an edge and
// publishes in a loop. A queued clone's generation must stay readable --
// same epoch, same CSR -- until its release, and every pin must be
// accounted for at the end.
TEST(GenerationManager, ClonesReleasedOnOtherThreadsWhilePublishing) {
  Graph g = gnp_connected(32, 0.15, 12);
  const IsolationRpts pi(g, IsolationAtw(9));
  GenerationManager mgr(make_generation(pi));
  const Edge flapped = g.endpoints(0);

  struct Handoff {
    GenerationManager::Pin pin;
    uint64_t epoch;
    size_t degree;  // of the flapped edge's endpoint, read at pin time
  };
  std::mutex mu;
  std::vector<Handoff> queue;
  std::atomic<bool> stop{false};
  std::atomic<size_t> verified{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&] {  // producer
      for (int r = 0; r < 256 || !stop.load(std::memory_order_relaxed); ++r) {
        const GenerationManager::Pin pin = mgr.pin();
        Handoff h{pin, pin->epoch(), pin->graph->degree(flapped.u)};
        std::lock_guard<std::mutex> lock(mu);
        if (queue.size() < 64) queue.push_back(std::move(h));
      }
    });
    threads.emplace_back([&] {  // consumer
      for (;;) {
        std::vector<Handoff> taken;
        {
          std::lock_guard<std::mutex> lock(mu);
          taken.swap(queue);
        }
        if (taken.empty()) {
          if (stop.load(std::memory_order_acquire)) break;
          std::this_thread::yield();
          continue;
        }
        for (Handoff& h : taken) {
          ASSERT_EQ(h.pin->epoch(), h.epoch);
          ASSERT_EQ(h.pin->graph->degree(flapped.u), h.degree);
          verified.fetch_add(1, std::memory_order_relaxed);
          h.pin = GenerationManager::Pin();  // released on this thread
        }
      }
    });
  }

  for (int f = 0; f < 200; ++f) {
    GraphDelta d = f % 2 == 0 ? GraphDelta::remove(0)
                              : GraphDelta::insert(flapped.u, flapped.v);
    EXPECT_TRUE(g.apply(d));  // not ASSERT: the threads must be joined
    mgr.publish(make_generation(pi));
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  for (Handoff& h : queue) h.pin = GenerationManager::Pin();

  EXPECT_GT(verified.load(), 0u);
  const auto s = mgr.stats();
  EXPECT_EQ(s.published, 201u);
  EXPECT_EQ(s.retired, 199u);
  EXPECT_EQ(s.pins_now, 0u);
}

// The ISSUE-mandated retirement test, end-to-end through the server: a
// reader holds a pin across TWO successive apply_updates calls; the old
// generation must stay valid (and its trees bit-identical) until unpin, and
// only the SECOND update may block on it.
TEST(OracleServerEpochPinned, PinHeldAcrossTwoUpdates) {
  Graph g = gnp_connected(48, 0.12, 11);
  const IsolationRpts pi(g, IsolationAtw(6));
  OracleServer server(pi);

  // Warm a handle, then pin the current generation.
  const SptHandle h0 = server.tree({0, {}, Direction::kOut});
  const Spt h0_copy = *h0;
  auto pin = server.generations()->pin();
  const uint64_t epoch0 = pin->epoch();
  const Spt pinned_tree = pin->scheme->spt(3);

  // Update 1: returns promptly (only the generation from two publishes ago
  // is ever waited for, and there is none).
  EdgeId victim = kNoEdge;
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    if (g.edge_present(e)) { victim = e; break; }
  ASSERT_NE(victim, kNoEdge);
  const auto res1 = server.apply_update(g, GraphDelta::remove(victim));
  ASSERT_TRUE(res1.changed);

  // Update 2 must block while our pin keeps generation `epoch0` alive.
  std::atomic<bool> done{false};
  std::thread updater([&] {
    const auto res2 =
        server.apply_update(g, GraphDelta::insert(res1.delta.u, res1.delta.v));
    EXPECT_TRUE(res2.changed);
    done.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(done.load(std::memory_order_acquire));

  // While the updater waits: the pinned generation is untouched -- same
  // epoch, bit-identical recompute -- and queries (which pin the CURRENT
  // generation) are not blocked by the waiting mutator.
  EXPECT_EQ(pin->epoch(), epoch0);
  expect_same_tree(pin->scheme->spt(3), pinned_tree);
  EXPECT_GE(server.distance(0, 1), -1);  // completes, no deadlock

  { auto drop = std::move(pin); }  // unpin: update 2 may proceed
  updater.join();
  ASSERT_TRUE(done.load(std::memory_order_acquire));

  // Held handles never move: bit-identical across both updates.
  expect_same_tree(*h0, h0_copy);

  // Post-churn answers match a from-scratch rebuild (the flap healed the
  // topology, but epochs advanced twice).
  const IsolationRpts rebuilt(g, IsolationAtw(6));
  for (Vertex s = 0; s < g.num_vertices(); s += 7)
    expect_same_tree(*server.tree({s, {}, Direction::kOut}), rebuilt.spt(s));

  const auto gs = server.generations()->stats();
  EXPECT_EQ(gs.published, 3u);  // initial + two updates
  EXPECT_GE(gs.publish_waits, 1u);
}

// Hammer variant of the retirement test: readers pin, hold the pin across
// whatever publishes land meanwhile, verify the pinned world never moves,
// release, repeat -- at 1, 2 and 8 threads (the container may have fewer
// cores; the interleavings still exercise pin migration and drains).
TEST(OracleServerEpochPinned, HammerPinsAcrossPublishes) {
  for (const int readers : {1, 2, 8}) {
    SCOPED_TRACE("readers=" + std::to_string(readers));
    Graph g = gnp_connected(64, 0.10, 100 + readers);
    const IsolationRpts pi(g, IsolationAtw(17));
    OracleServer server(pi);

    std::atomic<bool> stop{false};
    std::atomic<size_t> verified{0};
    std::vector<std::thread> workers;
    workers.reserve(readers);
    for (int w = 0; w < readers; ++w) {
      workers.emplace_back([&, w] {
        uint64_t r = 0;
        GenerationManager::Pin held;
        Spt reference;
        while (r < 64 || !stop.load(std::memory_order_relaxed)) {
          const Vertex root =
              static_cast<Vertex>(hash_combine(w, r) % g.num_vertices());
          if (held && r % 8 == 4) {
            // The pin has now been held across up to a full flap (two
            // publishes): its frozen world must be byte-for-byte unmoved.
            const Spt again = held->scheme->spt(reference.root);
            ASSERT_EQ(again.num_vertices(), reference.num_vertices());
            for (Vertex v = 0; v < reference.num_vertices(); ++v) {
              ASSERT_EQ(again.hops(v), reference.hops(v));
              ASSERT_EQ(again.parent(v), reference.parent(v));
            }
            verified.fetch_add(1, std::memory_order_relaxed);
            held = GenerationManager::Pin();  // release: let drains proceed
          } else if (!held && r % 8 == 0) {
            held = server.generations()->pin();
            reference = held->scheme->spt(root);
          }
          server.distance(root,
                          static_cast<Vertex>((root + 3) % g.num_vertices()));
          ++r;
        }
      });
    }

    // Mutator: 16 seeded flaps, exactly as the dynamic hammer does.
    Rng rng(7 + readers);
    EdgeId out = kNoEdge;
    Vertex ou = 0, ov = 0;
    for (int f = 0; f < 16; ++f) {
      GraphDelta d;
      if (out == kNoEdge) {
        EdgeId e = static_cast<EdgeId>(rng.next_below(g.num_edges()));
        while (!g.edge_present(e))
          e = static_cast<EdgeId>(rng.next_below(g.num_edges()));
        d = GraphDelta::remove(e);
      } else {
        d = GraphDelta::insert(ou, ov);
      }
      const auto res = server.apply_update(g, d);
      ASSERT_TRUE(res.changed);
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
    EXPECT_GT(verified.load(), 0u);

    // Quiescent bookkeeping: 17 generations were published (initial + 16
    // flaps); all but the live window must have been retired.
    const auto gs = server.generations()->stats();
    EXPECT_EQ(gs.published, 17u);
    EXPECT_GE(gs.retired, gs.published - 2);
    EXPECT_LE(gs.live, 2u);

    // Post-churn answers match a from-scratch rebuild.
    const IsolationRpts rebuilt(g, IsolationAtw(17));
    for (Vertex s = 0; s < g.num_vertices(); s += 9)
      expect_same_tree(*server.tree({s, {}, Direction::kOut}),
                       rebuilt.spt(s));
  }
}

}  // namespace
}  // namespace restorable
