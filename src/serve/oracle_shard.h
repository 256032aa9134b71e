// The query-execution core of the serving stack: one shard.
//
// An OracleShard owns the full single-node serving stack for one scheme --
// a sharded SPT cache (serve/spt_cache.h), a single-flight coalescing
// batcher (serve/coalescing_batcher.h), and an RCU generation manager
// (serve/generation.h; a fleet's shards share one) -- and answers mixed
// (s, t, F) queries from any number of threads:
//
//   distance(s, t, F)              hops of pi(s, t | F), with a stability
//                                  fast path: if the selected fault-free
//                                  path avoids F, the base tree answers
//                                  without computing the fault tree.
//   path(s, t, F)                  the selected path itself
//   replacement_distance(s, t, e)  the exact distance(s, t, {e})
//
// Every query reduces to tree fetches through the batcher, so repeated
// roots hit the cache, concurrent identical misses coalesce into one
// Dijkstra, and distinct misses ride the engine as one batch.
//
// Live topology churn: apply_updates(graph, deltas) mutates the scheme's
// graph, bumps the composite (scheme_id, epoch) version, and walks the
// cache ONCE: trees the batch provably cannot change (IRpts::batch_survives)
// are rekeyed to the new epoch zero-copy, affected trees are invalidated
// (and repaired/pre-warmed as one engine batch), and dead-version strays
// are aged out. The oracle keeps serving correct answers across edge
// inserts/removals without a full rebuild or cache flush; handles held by
// in-flight readers stay valid and bit-identical throughout (see SptHandle).
//
// Concurrency: queries are LOCK-FREE against updates. Each query pins the
// current generation -- a frozen CSR snapshot plus a scheme view rebound to
// it (serve/generation.h) -- with one fetch_add on its own thread's counter
// cell, and every read (version, CSR, Dijkstra) goes through that pin; the
// live graph is never touched by a reader. apply_updates builds the next
// generation off to the side and installs it with one pointer swap; the
// displaced generation is retired once its last pin drains. Out-of-range
// vertices or fault edge ids throw std::out_of_range
// (Generation::check_query). Protocol spec: docs/CONCURRENCY.md.
//
// Sharded serving (docs/ARCHITECTURE.md "Sharded serving"): N shards of
// this class, each owning the roots a ShardRouter assigns to it, sit behind
// a ShardAggregator front-end and share ONE GenerationManager, so a single
// pin covers the whole fleet. The shard is the only query implementation:
// the front-end forwards every single-root query to the owning shard's
// tree / distance / path / replacement_distance, and splits a multi-root
// query into one pinned serve_batch() per touched shard. An update runs
// one sequence for the whole fleet: graph.apply, every shard's cache
// advance, ONE publish, every shard's repair. OracleServer
// (serve/oracle_server.h) is the N=1 case: a subclass adding nothing,
// which owns its generation manager and runs the same sequence alone.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/rpts.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/coalescing_batcher.h"
#include "serve/generation.h"
#include "serve/spt_cache.h"

namespace restorable {

// Outcome class of one tree fetch on the query path -- the label every
// per-query latency sample is attributed under (docs/OBSERVABILITY.md has
// the full taxonomy; the update-path classes `repaired` / `recomputed` live
// in UpdateResult and the `server` component's update.* metrics).
enum class FetchOutcome : uint8_t {
  kBaseHit = 0,     // fault-free EXACT tree served from the cache
  kFaultHit,        // exact fault tree served from the cache
  kMissCoalesced,   // miss that joined a flight another request started
  kMissLeader,      // miss that started its flight (first request for key)
  kApproxHit,       // approximate-tier (eps_q > 0) tree served from the
                    // cache (base and fault trees alike)
  kEscalated,       // an EXACT fetch performed on behalf of an escalated
                    // query (path/replacement reconstruction, require_exact,
                    // or a sampled stretch re-check), whatever its hit/miss
                    // fate -- its cost belongs to the escalation tier
};
inline constexpr size_t kNumFetchOutcomes = 6;
const char* fetch_outcome_name(FetchOutcome o);

// Why a query left the approximate tier for the exact one. Counted under
// server.escalations.* in the metrics document.
enum class EscalationReason : uint8_t {
  kPath = 0,         // path / replacement queries always escalate
  kExplicit,         // QueryOpts::require_exact on an approximate-tier server
  kStretchRecheck,   // sampled 1-in-N exact re-check of an approximate answer
};
inline constexpr size_t kNumEscalationReasons = 3;

// Per-query options of the approximate tier.
struct QueryOpts {
  // Requested stretch slack: answers are within (1+epsilon)^d_true of exact.
  // Negative = use ServerConfig::default_epsilon; NaN is rejected
  // (std::invalid_argument). The effective value is floor-quantized and
  // clamped (core/spt.h), so the promised bound always holds.
  double epsilon = -1.0;
  // Force the exact tier for this query (counted as an explicit escalation
  // when the server would otherwise have served approximately).
  bool require_exact = false;
};

struct ServerConfig {
  // Shards + budget + protected fraction. byte_budget = 0 retains no tree:
  // every fetch recomputes, though concurrent identical misses still share
  // one flight.
  SptCache::Config cache;
  // After an update the server repairs the invalidated trees eagerly as
  // one engine batch (incremental repair where the affected region is
  // small, from-scratch recompute otherwise), so the first
  // post-update queries on the hot keys hit instead of paying the rebuild
  // inline. This is the ceiling on the affected region an incremental
  // repair may grow to, as a fraction of the vertex count, before the
  // repair falls back to a full recompute (see IRpts::repair_tree); >= 1
  // never falls back. The constructor throws std::invalid_argument for a
  // NaN, infinite or negative value.
  double repair_fraction = kDefaultRepairFraction;
  // Approximate tier default: distance queries that do not specify their own
  // QueryOpts::epsilon are served from (1+epsilon)-stretch trees (engine
  // relaxed mode; core/spt.h quantization). 0 = the server is exact-only and
  // nothing below changes behavior. Path and replacement queries ALWAYS
  // escalate to the exact tier (path reconstruction needs a real tree walk).
  // The constructor throws std::invalid_argument for a NaN or negative value.
  double default_epsilon = 0.0;
  // Every Nth approximate distance answer is re-checked against the exact
  // tier: the query is escalated (reason `stretch_recheck`), the EXACT
  // answer is returned, and the observed excess is recorded into the
  // server's stretch.excess_ppm histogram / stretch.max_excess_ppm gauge.
  // 0 disables sampling.
  uint32_t stretch_sample_every = 256;
  const BatchSsspEngine* engine = nullptr;  // nullptr = shared engine
  // External metrics registry to register this server's components into
  // (must outlive the server). nullptr = the server owns a private one,
  // reachable via metrics(). Component names are fixed (server / cache /
  // batcher / generations / engine; a ShardAggregator prefixes each shard's
  // with "shard<i>."), so give each server its own registry unless you only
  // ever read the merged document.
  obs::MetricsRegistry* metrics = nullptr;
  // Sampled per-query trace collector (must outlive the server). nullptr =
  // tracing off; unsampled queries then pay nothing at all.
  obs::Tracer* tracer = nullptr;
};

// What one apply_update / apply_updates did, for telemetry and tests.
struct UpdateResult {
  GraphDelta delta;        // first delta as applied (edge/endpoints/label
                           // filled); see `batch` for the full record
  DeltaBatch batch;        // all deltas + the batch's net effect
  bool changed = false;    // false = no-op mutation (nothing else happened)
  uint64_t old_epoch = 0;
  uint64_t new_epoch = 0;
  size_t carried = 0;      // cached trees rekeyed forward zero-copy
  size_t invalidated = 0;  // cached trees the batch may have changed
  size_t purged_stale = 0; // dead-version entries aged out
  // Invalidated trees re-admitted eagerly by the update's repair batch,
  // counting only entries actually re-populated -- never null slots.
  // `repaired` of them came from the incremental repair path; the
  // remaining prewarmed - repaired fell back to from-scratch recomputes.
  size_t prewarmed = 0;
  size_t repaired = 0;

  // The record of `batch` (as Graph::apply returned it) before any cache
  // work: delta, epochs and `changed` filled, every counter zero.
  static UpdateResult of(DeltaBatch batch);
};

// Composite server counters, taken through ONE MetricsRegistry::snapshot()
// pass (see OracleShard::stats() for the consistency contract).
struct ServerStats {
  uint64_t queries = 0;
  uint64_t updates = 0;
  uint64_t stability_fast_paths = 0;
  // bytes_direct + the batcher's computed_bytes, composed from the SAME
  // snapshot document -- the torn two-clock read the old accessor pair
  // allowed cannot happen here.
  uint64_t bytes_materialized = 0;
  // Query-path outcome classes (counts of tree fetches per class).
  uint64_t base_hit = 0;
  uint64_t fault_hit = 0;
  uint64_t miss_coalesced = 0;
  uint64_t miss_leader = 0;
  uint64_t approx_hit = 0;
  uint64_t escalated = 0;
  // Approximate-tier escalation accounting (queries, not fetches: one
  // escalated query may perform several exact fetches).
  uint64_t escalations_total = 0;
  uint64_t escalations_path = 0;
  uint64_t escalations_explicit = 0;
  uint64_t escalations_stretch_recheck = 0;
  // Sampled observed-stretch re-checks: how many were recorded and the worst
  // excess seen, in parts-per-million of the exact distance (0 = the sampled
  // approximate answers were all exact).
  uint64_t stretch_samples = 0;
  uint64_t max_stretch_excess_ppm = 0;
  // Latency decomposition totals across all classes, ns (per-class splits
  // and histograms live in the registry snapshot under `server`).
  uint64_t queue_wait_ns = 0;
  uint64_t coalesce_wait_ns = 0;
  uint64_t compute_ns = 0;
  // Update-path decomposition.
  uint64_t repair_ns = 0;
  uint64_t repaired = 0;    // prewarmed trees fixed by incremental repair
  uint64_t recomputed = 0;  // prewarmed trees that fell back to full runs
};

class OracleShard {
 public:
  explicit OracleShard(const IRpts& pi, ServerConfig config = {});

  const IRpts& scheme() const { return *pi_; }

  // The tree for `req` through the serving stack (shared with any
  // concurrent reader; see SptHandle for the ownership rules).
  SptHandle tree(const SsspRequest& req);

  // Hops of pi(s, t | F); kUnreachable if disconnected in G \ F. With an
  // effective epsilon > 0 (opts.epsilon, else ServerConfig::default_epsilon)
  // the answer is approximate: d_true <= answer <= (1+eps)^d_true * d_true,
  // served from the relaxed tier's own cache entries. opts.require_exact
  // escalates to the exact tier; 1-in-N answers are escalated anyway as
  // stretch re-checks (ServerConfig::stretch_sample_every) and those return
  // the exact answer. An exact answer under F != {} reads the base tree
  // first, and the (s, F) tree only if F meets the selected path.
  int32_t distance(Vertex s, Vertex t, const FaultSet& faults = {},
                   const QueryOpts& opts = {});

  // The selected path pi(s, t | F), oriented s -> t; empty if disconnected.
  Path path(Vertex s, Vertex t, const FaultSet& faults = {});

  // dist_{G \ e}(s, t): the exact-tier distance(s, t, {e}), escalating on
  // an approximate-tier server.
  int32_t replacement_distance(Vertex s, Vertex t, EdgeId e);

  // Applies one topology mutation to the scheme's graph -- `graph` must BE
  // that graph (passed explicitly because the server only holds a const
  // view; the caller owns mutability) -- and advances the serving stack to
  // the new epoch: unaffected cached trees carry forward zero-copy,
  // affected ones are invalidated and pre-warmed through the batch engine.
  // Concurrent queries are NEVER blocked: they keep computing on the
  // pinned old generation until the new one is published
  // (build-publish-retire; see docs/CONCURRENCY.md). Answers begun after
  // this returns reflect the new topology, and handles held across it stay
  // valid and bit-identical. Thread-safe against any number of concurrent
  // queriers; concurrent updaters are serialized against each other. A
  // ShardAggregator's shard throws std::logic_error: the fleet updates
  // all its shards at once (ShardAggregator::apply_updates).
  UpdateResult apply_update(Graph& graph, GraphDelta delta);

  // Batched form -- the amortized path for a burst of k topology deltas:
  // ONE atomic Graph::apply (one CSR rebuild, one epoch bump), ONE
  // advance_epoch cache walk deciding carry-forward against the batch's
  // *net* effect (an edge flapped and healed inside the batch invalidates
  // nothing), and ONE engine batch repairing the non-survivors
  // incrementally (IRpts::repair_tree) instead of recomputing them.
  // apply_update(delta) is exactly apply_updates over a single-delta span.
  UpdateResult apply_updates(Graph& graph,
                             std::span<const GraphDelta> deltas);

  // ---- Shard-facing surface (the ShardAggregator's fan-out entry point;
  // ---- equally usable by any caller wanting multi-fetch epoch coherence).

  // A pin on the current generation -- the fleet's, on a ShardAggregator
  // shard. Holding one delays generation retirement, never correctness;
  // copies re-pin the same generation.
  GenerationManager::Pin pin_generation() { return gens_->pin(); }

  // A whole per-shard sub-batch as ONE serving-stack submission: every miss
  // is enrolled before the flush starts, so the batch rides the engine as
  // one spt_batch call (plus whatever concurrent callers piled on). All
  // fetches read the pinned generation (`pin` must be non-empty). Every
  // request is validated against it first (Generation::check_query): one
  // bad root or fault id throws std::out_of_range before anything is
  // enrolled or counted. Counts requests.size() queries; each fetch is
  // classified into the usual outcome classes, with the whole batch's wall
  // time attributed to every element's latency sample (the per-element
  // cost of a batched submission IS the batch, by design). `obs`, when
  // non-null, receives each fetch's outcome + decomposition -- the
  // front-end uses it to split remote_hit from aggregated.
  std::vector<SptHandle> serve_batch(std::span<const SsspRequest> requests,
                                     const GenerationManager::Pin& pin,
                                     std::vector<FetchObs>* obs = nullptr);

  uint64_t queries_served() const { return queries_.value(); }
  // Exact fault distances answered from the base tree alone.
  uint64_t stability_fast_paths() const { return stability_hits_.value(); }
  // Total Spt bytes this server materialized (fresh Dijkstra results of
  // the batcher, plus trees the update path repaired). Cache hits and
  // coalesced waits materialize nothing -- handles alias resident trees --
  // so bytes_materialized / queries_served is the bytes-per-query cost the
  // zero-copy serving stack is judged by. NOTE: composed from two relaxed
  // counters read at two instants; for a coherent reading use stats(),
  // which composes the same two values inside one snapshot pass.
  uint64_t bytes_materialized() const;

  // The registry every component of this server reports into: `server`
  // (query counters, outcome classes, latency decomposition, update-path
  // repair split), `cache`, `batcher`, `generations`, `engine` -- each a
  // provider over that component's own relaxed atomics, so ONE snapshot()
  // yields one document covering the whole stack (or the whole sharded
  // fleet, whose shards share one registry under "shard<i>." prefixes and
  // whose one manager is the unprefixed `generations`). Never sampled on
  // the query path; snapshot() cost is borne entirely by the caller.
  obs::MetricsRegistry& metrics() const { return *metrics_; }

  // Composite counters via ONE metrics().snapshot() pass. Consistency
  // model (documented in src/obs/metrics.h): every individual value is an
  // untorn atomic read; cross-counter sums are sampled within one snapshot
  // window, so they can be off by the operations in flight during the
  // snapshot but never by more -- unlike composing queries_served(),
  // batcher()->stats() etc. at different times.
  ServerStats stats() const;

  // Never null.
  SptCache* cache() { return cache_.get(); }
  const CoalescingBatcher* batcher() const { return batcher_.get(); }

  // Never null; on a ShardAggregator shard, the fleet's one manager.
  // Exposed non-const so callers needing several coherent fetches (and
  // tests) can hold a Pin of their own; a held pin delays generation
  // retirement, never correctness.
  GenerationManager* generations() { return gens_; }
  const GenerationManager* generations() const { return gens_; }

 private:
  friend class ShardAggregator;

  // A fleet shard: serves on the fleet's `gens` (which must outlive it)
  // and registers its components as `metrics_prefix` + name, leaving the
  // `generations` component to the fleet. A null `gens` is the standalone
  // case: the shard owns a manager over the current topology.
  OracleShard(const IRpts& pi, ServerConfig config, GenerationManager* gens,
              std::string metrics_prefix);

  // Per-query observability context: the entry timestamp, the (usually
  // null) sampled trace, and its root span. Costs two clock reads + one
  // histogram record per query when metrics are enabled; nothing under
  // RESTORABLE_NO_METRICS.
  struct QueryCtx {
    uint64_t t0 = 0;
    std::unique_ptr<obs::QueryTrace> trace;
    int32_t root_span = -1;
  };
  // Per-outcome-class instruments (all wait-free; see obs/metrics.h).
  struct ClassMetrics {
    obs::Counter fetches;
    obs::Counter queue_wait_ns;
    obs::Counter coalesce_wait_ns;
    obs::Counter compute_ns;
    obs::Histogram latency_ns;  // whole-fetch latency, log2 ns buckets
  };

  QueryCtx begin_query(const char* kind);
  void end_query(QueryCtx& ctx);
  // Classified fetch through the batcher, reading the pinned generation;
  // then attributes the fetch's latency
  // decomposition to its outcome class and appends trace spans when the
  // query is sampled. `escalated` forces the kEscalated class: the fetch
  // serves a query that left the approximate tier, so its cost belongs
  // there whatever its hit/miss fate.
  SptHandle fetch_classified(const SsspRequest& req,
                             const GenerationManager::Pin& pin, QueryCtx& ctx,
                             bool escalated = false);
  // The classify/book halves of fetch_classified, reusable by serve_batch
  // (which fetches through the batcher's batch path instead).
  static FetchOutcome classify_fetch(const SsspRequest& req,
                                     const FetchObs& fo, bool escalated);
  // ctx may be null: class metrics are always booked, trace spans only with
  // a sampled ctx.
  void book_fetch(FetchOutcome outcome, const SsspRequest& req,
                  const FetchObs& fo, uint64_t f0, uint64_t dur,
                  QueryCtx* ctx);
  void register_providers();
  // Component name with this shard's prefix applied.
  std::string comp(const char* name) const;

  // The quantized epsilon this query runs at: opts.epsilon if set (>= 0),
  // else the server default; zero when opts.require_exact.
  uint32_t effective_eps_q(const QueryOpts& opts) const;
  void note_escalation(EscalationReason reason);
  // True for 1-in-stretch_sample_every calls (always false when disabled).
  bool stretch_probe_fires();
  void record_stretch(int32_t exact_hops, int32_t approx_hops);

  // Exact hops of pi(s, t | F): the base tree (s, {}) answers alone when F
  // misses its selected s~t path (the stability fast path), else the (s, F)
  // tree does. Both fetches book under `escalated` (see fetch_classified).
  int32_t exact_distance(Vertex s, Vertex t, const FaultSet& faults,
                         const GenerationManager::Pin& pin, QueryCtx& ctx,
                         bool escalated);

  // The update sequence, shared by a standalone server (shards = {this})
  // and a fleet: ONE graph.apply, every shard's cache advance_epoch, ONE
  // publish of the generation built from the new snapshot onto `gens`,
  // then every shard's repair. The caller holds the mutator lock that
  // excludes other updates of `gens`' shards. The shards' counters are
  // summed into the result.
  static UpdateResult run_update(std::span<OracleShard* const> shards,
                                 GenerationManager& gens, Graph& graph,
                                 std::span<const GraphDelta> deltas);
  void repair_invalidated(const DeltaBatch& batch,
                          std::vector<SptCache::Invalidated>& invalidated,
                          UpdateResult& res);

  const IRpts* pi_;
  ServerConfig config_;
  std::string metrics_prefix_;  // "" standalone, "shard<i>." in a fleet
  // Null on a fleet shard. Declared before the cache and batcher so it is
  // destroyed LAST: pending flights in the batcher hold generation pins,
  // which must be released before the manager asserts quiescence (a fleet
  // declares its manager before its shards for the same reason).
  // Heap-allocated so the pin cells every query writes share no cache line
  // with the fields every query reads.
  std::unique_ptr<GenerationManager> owned_gens_;
  GenerationManager* gens_;  // never null: owned_gens_ or the fleet's
  // Serializes a standalone server's updates (run_update): the
  // build-publish-retire sequence and the repair batch read the LIVE
  // graph, which is safe exactly because no reader does and no second
  // mutator runs. A fleet holds its own mutator lock instead.
  std::mutex mutator_mu_;
  std::unique_ptr<SptCache> cache_;             // never null
  std::unique_ptr<CoalescingBatcher> batcher_;  // never null
  // Bumped by queries, so thread-sharded: a hit writes no shared line.
  obs::ShardedCount queries_;
  std::atomic<uint64_t> updates_{0};
  obs::ShardedCount stability_hits_;
  std::atomic<uint64_t> direct_bytes_{0};  // trees the update path repaired

  // --- Observability (src/obs/). All instruments are wait-free; the
  // registry is only touched at construction and in snapshot().
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;  // if config has none
  obs::MetricsRegistry* metrics_;  // never null after construction
  obs::Tracer* tracer_;            // null = tracing off
  ClassMetrics class_metrics_[kNumFetchOutcomes];
  obs::Histogram query_latency_ns_;  // whole-query latency, all kinds
  // Approximate-tier accounting. The probe countdowns decide behavior --
  // which queries re-check -- so they survive RESTORABLE_NO_METRICS; the
  // rest are obs instruments. One countdown per thread cell: each fires
  // on its first query and then every stretch_sample_every-th.
  struct alignas(64) ProbeCountdown {
    std::atomic<uint32_t> left{0};
  };
  ProbeCountdown stretch_probe_[obs::detail::kThreadCells];
  std::atomic<uint64_t> max_stretch_excess_ppm_{0};
  obs::Counter escalations_total_;
  obs::Counter escalations_by_reason_[kNumEscalationReasons];
  obs::Histogram stretch_excess_ppm_;  // observed excess over exact, ppm
  obs::Counter repair_ns_;           // update-path repair/prewarm wall time
  obs::Counter apply_ns_;            // wall time of the changed updates
  obs::Counter repaired_;            // prewarmed via incremental repair
  obs::Counter recomputed_;          // prewarmed via full recompute
  // Declared LAST so they are destroyed FIRST: providers read the members
  // above, so they must be unregistered before anything they read dies
  // (and before an external registry could sample a half-dead server).
  std::vector<obs::Registration> registrations_;
};

}  // namespace restorable
