// Single-flight request coalescing in front of the batch-SSSP engine.
//
// Under serving load, many threads ask for trees at once and the popular
// keys repeat: N concurrent callers of the same (root, faults, dir) must
// trigger ONE Dijkstra, and concurrent misses on different keys should ride
// the engine as ONE batch instead of N serialized runs. This is the classic
// single-flight + request-coalescing pattern, keyed by SptKey.
//
// Every fetch is epoch-pinned: the caller passes a GenerationManager pin,
// the key embeds the pinned generation's version, and the flight computes
// on that generation's frozen scheme view (serve/generation.h).
//
// Flush policy (every miss drains): a caller enqueues its misses, then
// swaps out the whole pending queue -- its own keys plus any other
// caller's enqueued since the last drain -- and executes it as one
// IRpts::spt_batch call on its own thread. If another caller's drain took
// its keys first, it just waits for those flights. Drains run
// concurrently, so a miss never queues behind a batch that is already
// computing: concurrent misses on distinct keys compute side by side (a
// one-tree batch runs inline on the caller's thread, using no engine
// worker), and a get_batch's misses ride one engine submission. Followers
// (callers whose key is already in flight) block on the in-flight entry
// and reuse its result. Every computed tree is published to the cache, so
// a key is computed at most once for the cache's retention window
// regardless of concurrency.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/spt.h"
#include "obs/metrics.h"
#include "serve/generation.h"
#include "serve/spt_cache.h"

namespace restorable {

// Per-fetch outcome + latency decomposition, reported back to the caller
// through an out-param so OracleServer can attribute time to outcome
// classes (and synthesize trace spans) without the batcher knowing about
// either. All durations are 0 under RESTORABLE_NO_METRICS (obs::now_ns()
// compiles out); the outcome label is always filled.
struct FetchObs {
  enum Outcome : uint8_t {
    kHit = 0,    // resolved from the cache (fast path or locked double-check)
    kCoalesced,  // joined a flight another caller's miss started
    kLeader,     // this caller's miss started the flight for its tree
  };
  Outcome outcome = kHit;
  // enroll -> the flush drain that picked this key up (time queued).
  uint64_t queue_wait_ns = 0;
  // Wall time of the engine group that computed this tree. For kCoalesced
  // this is attribution, not cost paid by this caller (the drain paid it);
  // the caller's own blocked time is wait_ns.
  uint64_t compute_ns = 0;
  // Time this caller spent blocked in await() (0 for hits; ~0 when the
  // caller's own drain computed its tree).
  uint64_t wait_ns = 0;
};

class CoalescingBatcher {
 public:
  // Batch-size histogram: bucket k counts flushes of size in
  // [2^k, 2^(k+1)), i.e. bucket 0 = size 1, bucket 1 = 2-3, bucket 2 =
  // 4-7, ... Fixed width covers any realistic flush (2^15 trees).
  static constexpr size_t kHistBuckets = 16;

  struct Stats {
    uint64_t requests = 0;        // get()/get_batch() tree fetches
    uint64_t coalesced = 0;       // joined an already-in-flight computation
    uint64_t computed = 0;        // trees actually run on the engine
    uint64_t computed_bytes = 0;  // memory_bytes() of those trees -- the
                                  // bytes-materialized cost of all misses,
                                  // comparable with direct_bytes
    uint64_t flushes = 0;         // pending-queue drains (one engine batch
                                  // per generation present in the drain;
                                  // almost always one)
    uint64_t max_batch = 0;       // largest single flush
    uint64_t max_queue_depth = 0; // pending-queue high-water mark
    // Flush sizes in obs::Histogram's log2 buckets (bucket 0 = size 0-1,
    // bucket k = [2^k, 2^(k+1))); a thin view over the shared obs::Histogram
    // that now backs it. Zeroed under RESTORABLE_NO_METRICS.
    uint64_t batch_hist[kHistBuckets] = {};
    uint64_t batch_hist_sum = 0;  // sum of recorded flush sizes (== computed)
  };

  // A cache whose budget retains nothing (byte_budget = 0) still gets
  // single-flight deduplication of concurrent requests.
  explicit CoalescingBatcher(SptCache& cache,
                             const BatchSsspEngine* engine = nullptr)
      : cache_(&cache), engine_(engine) {}

  CoalescingBatcher(const CoalescingBatcher&) = delete;
  CoalescingBatcher& operator=(const CoalescingBatcher&) = delete;

  // The tree for `req` in the generation `pin` holds (which must be
  // non-empty), from cache, an in-flight computation, or a fresh engine
  // batch this caller or a concurrent one drains. Thread-safe; blocks only
  // while the tree is genuinely being computed. The key is derived from
  // the pinned generation's version and the flight CARRIES a clone of the
  // pin, so the compute runs against that generation's frozen snapshot even
  // if a publish lands between enroll and drain -- a drain races no epoch
  // bump, it just keeps the generation it started on alive until its last
  // flight resolves. Because the epoch is part of the key, flights from
  // different generations never coalesce with each other; one drain groups
  // them by generation and issues one engine batch per group. If the
  // compute batch throws (e.g. bad_alloc), the exception propagates to
  // every caller waiting on that batch and the batcher stays serviceable
  // for later requests. `obs`, when non-null, receives the fetch's outcome
  // + latency decomposition.
  SptHandle get(const SsspRequest& req, const GenerationManager::Pin& pin,
                FetchObs* obs = nullptr);

  // Batch variant: registers every miss before flushing once, so the whole
  // batch rides one engine submission (plus whatever concurrent callers
  // piled on). Results in request order, all from `pin`'s generation --
  // this is what OracleShard::serve_batch rides, so a whole per-shard
  // sub-batch from the front-end is one epoch-coherent engine submission.
  // `obs`, when non-null, is resized to requests.size() and receives each
  // fetch's outcome + latency decomposition.
  std::vector<SptHandle> get_batch(std::span<const SsspRequest> requests,
                                   const GenerationManager::Pin& pin,
                                   std::vector<FetchObs>* obs = nullptr);

  Stats stats() const;

 private:
  struct InFlight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    SptHandle tree;
    std::exception_ptr error;  // set instead of tree when the batch threw
    // Decomposition for everyone who shares this flight; written by the
    // draining caller under `mu` before done = true, read by waiters under
    // `mu`.
    uint64_t queue_wait_ns = 0;
    uint64_t compute_ns = 0;
  };

  // Outcome of registering one miss: `hit` resolved on the locked cache
  // double-check, else the in-flight entry to wait on, and whether this
  // miss started it.
  struct Enrollment {
    SptHandle hit;
    std::shared_ptr<InFlight> fl;
    bool started = false;
  };

  // One not-yet-flushed miss. `pin` keeps the generation whose version
  // keyed this flight alive until the flush resolves it; the flush computes
  // on pin->scheme.
  struct Pending {
    SptKey key;
    SsspRequest req;
    GenerationManager::Pin pin;
    uint64_t enqueue_ns = 0;  // when enroll queued it (queue-wait start)
  };

  Enrollment enroll(const SptKey& key, const SsspRequest& req,
                    const GenerationManager::Pin& pin);
  // Swaps out the pending queue and computes it; returns at once when it
  // is empty (another caller's drain took it).
  void drain();
  static SptHandle await(InFlight& fl, FetchObs* obs);

  SptCache* cache_;  // never null
  const BatchSsspEngine* engine_;

  mutable std::mutex mu_;
  std::unordered_map<SptKey, std::shared_ptr<InFlight>, SptKeyHash> inflight_;
  // Not-yet-drained misses; each drain swaps out the whole queue.
  std::vector<Pending> pending_;
  // Flush-shape telemetry. The high-water mark is mutated only under mu_
  // (enroll already holds it); the batch-size histogram is the shared
  // wait-free obs::Histogram (recorded outside the lock).
  uint64_t max_queue_depth_ = 0;
  obs::Histogram batch_hist_{kHistBuckets};

  // Counters are atomics so the cache-hit fast path never touches mu_ (the
  // sharded cache is the only lock a steady-state hit takes); the one a hit
  // bumps is thread-sharded, so a hit writes no line other readers write.
  obs::ShardedCount requests_;
  std::atomic<uint64_t> coalesced_{0};
  std::atomic<uint64_t> computed_{0};
  std::atomic<uint64_t> computed_bytes_{0};
  std::atomic<uint64_t> flushes_{0};
  std::atomic<uint64_t> largest_batch_{0};
};

}  // namespace restorable
