// The routing front-end of the sharded serving tier.
//
// A ShardAggregator owns N OracleShards (serve/oracle_shard.h), ONE
// GenerationManager they all serve on, and a ShardRouter assigning every
// root to exactly one shard. Every exact answer for (s, t, F) is read from
// a tree rooted at s, and the router hashes the root alone, so a
// single-root query (tree, distance, path, replacement_distance) is a
// single-shard query: the front-end forwards it to the owning shard, which
// answers it in full (ε tier, escalation, tracing and all). The front-end
// keeps only what spans shards: tree_batch, decomposed per shard under one
// pin and submitted once per touched shard (a k-root query costs at most
// min(k, N) submissions), and apply_updates. There is no staging at the
// front-end: concurrent requests for the same tree meet in the owning
// shard's single-flight CoalescingBatcher, which computes it once
// (docs/ARCHITECTURE.md "Sharded serving").
//
// Epoch-coherent updates: apply_updates() applies the delta batch to the
// shared graph ONCE, advances every shard's cache to the new epoch, then
// publishes ONE generation on the fleet's manager, and only afterwards
// repairs each shard's invalidated trees -- readers never wait on
// prewarming. A query reads through one pin on that manager, so it sees
// all-old or all-new on every shard it touches, never a mix, with no lock
// on the query path. Fetches whose pin predates the publish simply compute
// on the old generation; each SptCache's stale-epoch insert rejection keeps
// their straggler publishes out of the store.
//
// Everything is in-process: shards are objects, not processes, so CI runs
// the full three-layer stack (shard_test, perfbench cold_miss) and answers
// are bit-identical at any shard count -- sharding repartitions work, never
// changes the scheme.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/rpts.h"
#include "engine/batch_sssp.h"
#include "obs/metrics.h"
#include "serve/generation.h"
#include "serve/oracle_shard.h"
#include "serve/shard_router.h"

namespace restorable {

struct FrontEndConfig {
  size_t num_shards = 1;
  // Total engine worker threads across the fleet: each shard gets an owned
  // BatchSsspEngine slice of max(1, total_engine_threads / num_shards)
  // threads -- the NUMA story's single-machine shape (one pool per shard).
  // 0 = shards use `shard.engine` as given (typically the process-shared
  // engine).
  size_t total_engine_threads = 0;
  // Per-shard template. cache.byte_budget is PER SHARD (the caller divides
  // a global budget by num_shards if that is the intent). shard.metrics is
  // the fleet's registry (nullptr = the aggregator owns a private one):
  // every shard reports into it under a "shard<i>." prefix, beside the
  // front-end's `frontend` and the fleet's `generations` components.
  // shard.tracer is shared by every shard.
  ServerConfig shard;
};

// Front-end counters (also registered as the `frontend` metrics component).
struct FrontEndStats {
  uint64_t queries = 0;  // front-end API calls, point queries included
  // The fan-out half: tree_batch sub-queries and the serve_batch calls that
  // carried them. Point queries are the owning shard's and count there.
  uint64_t subqueries = 0;
  uint64_t submissions = 0;
  // Per-sub-query outcome classes, the front-end half of FetchOutcome:
  // remote_hit = resolved from the owning shard's cache; aggregated = miss
  // side, computed (or joined a flight) inside the shard's submission.
  // Sums to subqueries.
  uint64_t remote_hits = 0;
  uint64_t aggregated = 0;
  uint64_t fanouts = 0;  // epoch-coherent update fan-outs completed
  // Exact fault distances answered from the base tree alone, summed over
  // the shards' `server.stability_fast_paths`.
  uint64_t stability_fast_paths = 0;
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
  // Epoch of the fleet's published generation: every shard's cache has
  // advanced up to here.
  uint64_t routed_epoch() const { return gens_->pin()->epoch(); }

  // ---- Point queries: forwarded to the owning shard, with OracleShard's
  // ---- semantics (std::out_of_range for inputs outside the graph).

  SptHandle tree(const SsspRequest& req);
  int32_t distance(Vertex s, Vertex t, const FaultSet& faults = {},
                   const QueryOpts& opts = {});
  Path path(Vertex s, Vertex t, const FaultSet& faults = {});
  int32_t replacement_distance(Vertex s, Vertex t, EdgeId e);

  // Multi-root batch: decomposed per shard under one pin, merged in request
  // order. One bad request throws std::out_of_range before any shard is
  // asked.
  std::vector<SptHandle> tree_batch(std::span<const SsspRequest> requests);

  // ---- Update surface: ONE graph apply, ONE publish for the whole fleet.
  // Returns the front-end's own accounting with per-shard counters summed
  // (carried/invalidated/prewarmed/repaired across the fleet).
  UpdateResult apply_update(Graph& graph, GraphDelta delta);
  UpdateResult apply_updates(Graph& graph, std::span<const GraphDelta> deltas);

  FrontEndStats stats() const;
  obs::MetricsRegistry& metrics() const { return *metrics_; }

 private:
  OracleShard& owner(Vertex root) {
    return *shards_[router_.shard_of(pi_->scheme_id(), root)];
  }
  void register_providers();

  const IRpts* pi_;
  FrontEndConfig config_;
  ShardRouter router_;
  // Declared before shards_ so the registry outlives them: every shard's
  // destructor unregisters its components from metrics_, which must still
  // be alive then (same reason owned engines precede shards -- a shard's
  // batcher flushes into its engine until the moment it dies -- and the
  // manager does: pending flights hold pins on it until their shard dies).
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_;
  std::vector<std::unique_ptr<BatchSsspEngine>> engines_;
  std::unique_ptr<GenerationManager> gens_;  // the fleet's one manager
  std::vector<std::unique_ptr<OracleShard>> shards_;

  // Serializes the fleet's updates: the repair phase reads the live CSR
  // after the publish, so the next mutation must not land mid-repair.
  std::mutex mutator_mu_;

  obs::ShardedCount queries_;  // bumped per query: thread-sharded
  std::atomic<uint64_t> subqueries_{0};
  std::atomic<uint64_t> submissions_{0};
  std::atomic<uint64_t> remote_hits_{0};
  std::atomic<uint64_t> aggregated_{0};
  std::atomic<uint64_t> fanouts_{0};

  // Declared LAST: unregistered before anything the provider reads dies.
  std::vector<obs::Registration> registrations_;
};

}  // namespace restorable
