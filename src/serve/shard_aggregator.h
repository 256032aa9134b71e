// The aggregating front-end of the sharded serving tier.
//
// A ShardAggregator owns N OracleShards (serve/oracle_shard.h), a
// ShardRouter assigning every root to exactly one of them, and -- the
// point of this layer -- a per-destination-shard OUTBOX in which routed
// sub-queries are staged and flushed as one batched submission per shard,
// on capacity or timeout (FrontEndConfig). This is the CoalescingBatcher
// idea lifted one level up, and the same per-destination staging pattern
// grappa's RDMAAggregator applies to tiny messages and `congest/` applies
// to per-sender message queues: k tiny cross-shard queries become one
// serve_batch() per touched shard, so each shard sees ONE enroll + ONE
// engine flush instead of k independent trickles.
//
// Flush rules (docs/ARCHITECTURE.md "Sharded serving"):
//   * capacity -- the stager that fills an outbox to flush_capacity detaches
//     and serves the batch itself;
//   * timeout  -- every staging caller waits for its own result with a
//     flush_timeout_us deadline, and on expiry detaches whatever is staged
//     (its own entry included) and serves it: bounded staging latency with
//     no background flusher thread;
//   * explicit -- a multi-root query (tree_batch) stages ALL its sub-queries
//     first, then flushes every outbox it touched immediately, piggybacking
//     any concurrently staged singles. A k-root query therefore costs at
//     most min(k, N) submissions -- deterministically, even single-threaded.
//
// Epoch-coherent updates: apply_updates() applies the delta batch to the
// shared graph ONCE, then fans the SAME DeltaBatch + snapshot out to every
// shard (OracleShard::absorb_update) under the exclusive side of a
// fan-out gate that queries hold shared ONLY while collecting their
// generation pins. A multi-shard query therefore sees all-old or all-new,
// never a mix: all shards advance, then the router unblocks the new epoch
// (routed_epoch() bumps, the gate reopens), and only afterwards does each
// shard repair/prewarm its invalidated trees (repair_deferred) -- readers
// never wait on prewarming. Staged outbox entries carry pins taken before
// the fan-out and simply compute on the old generation; the SptCache's
// stale-epoch insert rejection keeps their straggler publishes out of the
// store.
//
// Everything is in-process: shards are objects, not processes, so CI runs
// the full three-layer stack (shard_test, bench serve_sharded) and answers
// are bit-identical at any shard count -- sharding repartitions work, never
// changes the scheme.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <vector>

#include "core/rpts.h"
#include "engine/batch_sssp.h"
#include "obs/metrics.h"
#include "serve/oracle_shard.h"
#include "serve/shard_router.h"

namespace restorable {

struct FrontEndConfig {
  size_t num_shards = 1;
  uint32_t num_slots = ShardRouter::kDefaultSlots;
  // false: sub-queries bypass the outboxes and go straight to
  // OracleShard::serve_batch, one submission per sub-batch (the measurable
  // baseline of the aggregation layer).
  bool enable_aggregation = true;
  // Outbox flush knobs (see the flush rules above).
  size_t flush_capacity = 16;
  uint64_t flush_timeout_us = 200;
  // Total engine worker threads across the fleet: each shard gets an owned
  // BatchSsspEngine slice of max(1, total_engine_threads / num_shards)
  // threads -- the NUMA story's single-machine shape (one pool per shard).
  // 0 = shards use `shard.engine` as given (typically the process-shared
  // engine).
  size_t total_engine_threads = 0;
  // Per-shard template. cache.byte_budget is PER SHARD (the caller divides
  // a global budget by num_shards if that is the intent);
  // metrics_prefix/metrics/tracer are overwritten per shard so the whole
  // fleet reports into one registry ("shard0.server", "shard1.cache", ...).
  ServerConfig shard;
  // Registry for the whole fleet + the front-end's own `frontend`
  // component. nullptr = the aggregator owns a private one.
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
};

// Front-end counters (also registered as the `frontend` metrics component).
struct FrontEndStats {
  uint64_t queries = 0;      // front-end API calls
  uint64_t subqueries = 0;   // routed per-shard tree fetches
  uint64_t submissions = 0;  // serve_batch calls issued to shards
  // Per-sub-query outcome classes, the front-end half of FetchOutcome:
  // remote_hit = resolved from the owning shard's cache; aggregated = miss
  // side, rode a batched per-shard submission (staged flush, or the direct
  // sub-batch when aggregation is disabled). Sums to subqueries.
  uint64_t remote_hits = 0;
  uint64_t aggregated = 0;
  uint64_t flush_capacity_trigger = 0;
  uint64_t flush_timeout_trigger = 0;
  uint64_t flush_explicit_trigger = 0;
  uint64_t fanouts = 0;  // epoch-coherent update fan-outs completed
};

class ShardAggregator {
 public:
  explicit ShardAggregator(const IRpts& pi, FrontEndConfig config = {});
  ~ShardAggregator();

  ShardAggregator(const ShardAggregator&) = delete;
  ShardAggregator& operator=(const ShardAggregator&) = delete;

  const IRpts& scheme() const { return *pi_; }
  size_t num_shards() const { return shards_.size(); }
  OracleShard& shard(size_t i) { return *shards_[i]; }
  const ShardRouter& router() const { return router_; }
  // Epoch the router has unblocked: every shard has absorbed up to here.
  uint64_t routed_epoch() const {
    return routed_epoch_.load(std::memory_order_acquire);
  }

  // ---- Query surface (routed; same semantics as OracleShard's, including
  // ---- std::out_of_range for vertices or fault edge ids outside the graph).

  SptHandle tree(const SsspRequest& req);
  // Multi-root batch: decomposed per shard, merged in request order.
  std::vector<SptHandle> tree_batch(std::span<const SsspRequest> requests);
  int32_t distance(Vertex s, Vertex t, const FaultSet& faults = {});
  Path path(Vertex s, Vertex t, const FaultSet& faults = {});
  // Stability fast path as in OracleShard; both fetches ride one pin on the
  // owning shard (base and fault tree of one query share an epoch).
  int32_t replacement_distance(Vertex s, Vertex t, EdgeId e);

  // ---- Update surface: ONE graph apply, fleet-wide epoch-coherent fan-out.
  // Returns the front-end's own accounting with per-shard counters summed
  // (carried/invalidated/prewarmed/repaired across the fleet).
  UpdateResult apply_update(Graph& graph, GraphDelta delta);
  UpdateResult apply_updates(Graph& graph, std::span<const GraphDelta> deltas);

  FrontEndStats stats() const;
  obs::MetricsRegistry& metrics() const { return *metrics_; }

 private:
  // One staged sub-query: the request, the pin it was routed under (taken
  // while holding the fan-out gate shared, so it is epoch-coherent with the
  // rest of its query), and the flush-filled result.
  struct Staged {
    SsspRequest req;
    GenerationManager::Pin pin;
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    SptHandle tree;
    std::exception_ptr error;
    FetchObs obs;
  };
  struct Outbox {
    std::mutex mu;
    std::vector<std::shared_ptr<Staged>> staged;
  };

  // Detach `ob`'s staged entries under its lock; empty when someone else
  // got there first.
  std::vector<std::shared_ptr<Staged>> detach(Outbox& ob);
  // Serve a detached batch on shard k: groups by pinned generation (one
  // serve_batch per group; entries staged across a fan-out may span two)
  // and resolves every entry.
  void flush_batch(size_t k, std::vector<std::shared_ptr<Staged>> batch);
  // Stage one sub-query into shard k's outbox and wait for its result,
  // flushing on capacity (this stager filled the box) or timeout (waited
  // flush_timeout_us without resolution). Returns the staged entry, done.
  std::shared_ptr<Staged> stage_and_wait(size_t k, const SsspRequest& req,
                                         GenerationManager::Pin pin);
  // Unstaged submission of one sub-batch (aggregation off / explicit path).
  std::vector<SptHandle> submit(size_t k,
                                std::span<const SsspRequest> requests,
                                const GenerationManager::Pin& pin,
                                std::vector<FetchObs>* obs);
  // Pins shard k's current generation under the fan-out gate and checks the
  // query's inputs against it (Generation::check_query).
  GenerationManager::Pin pin_checked(size_t k, Vertex s, Vertex t,
                                     std::span<const EdgeId> faults);
  // One routed single-tree fetch through the configured path (outbox or
  // direct), booking remote_hit/aggregated. The pin must have been taken
  // under the fan-out gate.
  SptHandle fetch_routed(size_t k, const SsspRequest& req,
                         const GenerationManager::Pin& pin);
  void book_subquery(const FetchObs& fo);
  void register_providers();

  const IRpts* pi_;
  FrontEndConfig config_;
  ShardRouter router_;
  // Declared before shards_ so the registry outlives them: every shard's
  // destructor unregisters its components from metrics_, which must still
  // be alive then (same reason owned engines precede shards -- a shard's
  // batcher flushes into its engine until the moment it dies).
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_;
  std::vector<std::unique_ptr<BatchSsspEngine>> engines_;
  std::vector<std::unique_ptr<OracleShard>> shards_;
  std::vector<std::unique_ptr<Outbox>> outboxes_;

  // Fan-out gate: queries hold it SHARED only while collecting generation
  // pins (so one query's pins are all-old or all-new across shards);
  // apply_updates holds it EXCLUSIVE across graph.apply + every shard's
  // absorb_update. Staging, flushing, and computing all happen outside the
  // gate, so a publish never waits on an engine batch -- only on pin
  // collection, which is a few atomic fetch_adds.
  std::shared_mutex fanout_mu_;
  // Serializes mutators across the fleet AND covers repair_deferred, which
  // reads the live CSR after the gate reopens.
  std::mutex mutator_mu_;
  std::atomic<uint64_t> routed_epoch_{0};

  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> subqueries_{0};
  std::atomic<uint64_t> submissions_{0};
  std::atomic<uint64_t> remote_hits_{0};
  std::atomic<uint64_t> aggregated_{0};
  std::atomic<uint64_t> flush_capacity_{0};
  std::atomic<uint64_t> flush_timeout_{0};
  std::atomic<uint64_t> flush_explicit_{0};
  std::atomic<uint64_t> fanouts_{0};

  // Declared LAST: unregistered before anything the provider reads dies.
  std::vector<obs::Registration> registrations_;
};

}  // namespace restorable
