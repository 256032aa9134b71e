// The routing front-end of the sharded serving tier.
//
// A ShardAggregator owns N OracleShards (serve/oracle_shard.h) and a
// ShardRouter assigning every root to exactly one of them. Every routed
// query goes straight to its owning shard's serve_batch(): a single-root
// query (tree, distance, path) is one submission per fetch, and a
// multi-root tree_batch is decomposed per shard and submitted once per
// touched shard, so a k-root query costs at most min(k, N) submissions.
// There is no staging at the front-end: concurrent requests for the same
// tree meet in the owning shard's single-flight CoalescingBatcher, which
// computes it once (docs/ARCHITECTURE.md "Sharded serving").
//
// Epoch-coherent updates: apply_updates() applies the delta batch to the
// shared graph ONCE, then fans the SAME DeltaBatch + snapshot out to every
// shard (OracleShard::absorb_update) under the exclusive side of a
// fan-out gate that queries hold shared ONLY while collecting their
// generation pins. A multi-shard query therefore sees all-old or all-new,
// never a mix: all shards advance, then the router unblocks the new epoch
// (routed_epoch() bumps, the gate reopens), and only afterwards does each
// shard repair/prewarm its invalidated trees (repair_deferred) -- readers
// never wait on prewarming. Submissions whose pins were taken before the
// fan-out simply compute on the old generation; the SptCache's stale-epoch
// insert rejection keeps their straggler publishes out of the store.
//
// Everything is in-process: shards are objects, not processes, so CI runs
// the full three-layer stack (shard_test, bench serve_sharded) and answers
// are bit-identical at any shard count -- sharding repartitions work, never
// changes the scheme.
#pragma once

#include <atomic>
#include <cstdint>
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
  // side, computed (or joined a flight) inside the shard's submission.
  // Sums to subqueries.
  uint64_t remote_hits = 0;
  uint64_t aggregated = 0;
  uint64_t fanouts = 0;  // epoch-coherent update fan-outs completed
  uint64_t stability_fast_paths = 0;  // answered from the base tree alone
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
  // Exact tier. As in OracleShard, F != {} reads the base tree first, and
  // the (s, F) tree only if F meets the selected path; both ride one pin.
  int32_t distance(Vertex s, Vertex t, const FaultSet& faults = {});
  Path path(Vertex s, Vertex t, const FaultSet& faults = {});
  // distance(s, t, {e}).
  int32_t replacement_distance(Vertex s, Vertex t, EdgeId e);

  // ---- Update surface: ONE graph apply, fleet-wide epoch-coherent fan-out.
  // Returns the front-end's own accounting with per-shard counters summed
  // (carried/invalidated/prewarmed/repaired across the fleet).
  UpdateResult apply_update(Graph& graph, GraphDelta delta);
  UpdateResult apply_updates(Graph& graph, std::span<const GraphDelta> deltas);

  FrontEndStats stats() const;
  obs::MetricsRegistry& metrics() const { return *metrics_; }

 private:
  // Pins shard k's current generation under the fan-out gate and checks the
  // query's inputs against it (Generation::check_query).
  GenerationManager::Pin pin_checked(size_t k, Vertex s, Vertex t,
                                     std::span<const EdgeId> faults);
  // One routed single-tree fetch: one serve_batch submission on shard k,
  // booking remote_hit/aggregated. The pin must have been taken under the
  // fan-out gate.
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

  // Fan-out gate: queries hold it SHARED only while collecting generation
  // pins (so one query's pins are all-old or all-new across shards);
  // apply_updates holds it EXCLUSIVE across graph.apply + every shard's
  // absorb_update. Submissions and their computes happen outside the gate,
  // so a publish never waits on an engine batch -- only on pin collection,
  // which is a few atomic fetch_adds.
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
  std::atomic<uint64_t> fanouts_{0};
  obs::ShardedCount stability_hits_;  // bumped per query: thread-sharded

  // Declared LAST: unregistered before anything the provider reads dies.
  std::vector<obs::Registration> registrations_;
};

}  // namespace restorable
