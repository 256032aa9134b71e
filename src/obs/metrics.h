// Wait-free metrics for the serving path: sharded counters, gauges,
// fixed log2-bucket histograms, and a pull-model registry.
//
// The read path is lock-free (a pin writes only the calling thread's own
// counter cell; a hit costs one cache shard mutex that predates this layer),
// so any telemetry on the query path must be wait-free, and it must not
// write a cache line that other serving threads write too, or it silently
// destroys the scaling the serving stack is built for. Every instrument here
// satisfies that:
//
//   Counter    add() is ONE relaxed fetch_add on this thread's
//              cache-line-padded cell -- no CAS loop, no lock, no line
//              shared with another serving thread beyond shard collisions
//              (more than kThreadCells threads). value() sums the cells
//              (snapshot-path only). ShardedCount is the same instrument
//              without the compile-out, for counts a component reports
//              through its own Stats.
//   Gauge      set()/add() are one relaxed store/fetch_add on one atomic.
//   Histogram  record() is two relaxed fetch_adds (bucket + sum) on this
//              thread's padded cell; snapshot() sums the cells. Buckets
//              are the log2 scheme the CoalescingBatcher's batch-size
//              histogram established: bucket 0 counts values in [0, 2),
//              bucket k >= 1 counts [2^k, 2^(k+1)), and the last bucket
//              absorbs everything larger. tests/obs_test.cc pins
//              bucket_of() to the batcher's original loop bit-for-bit.
//
// A thread's cell is detail::thread_shard(): a round-robin cell handed out on
// the thread's first instrument call and kept in a constant-initialized
// header thread_local, so finding the cell costs one TLS load.
//
// The registry is pull-model: components do NOT push samples anywhere.
// They register a named provider -- a callback that reads their own relaxed
// atomics into a ComponentSnapshot -- and MetricsRegistry::snapshot() runs
// every provider in one pass, producing ONE document covering the whole
// serving stack (cache, batcher, generations, engine, server). Component
// Stats structs keep their public accessors; the registry is the unified
// export surface over the same underlying counters, not a second store.
//
// Consistency model (the contract OracleServer::stats() documents through):
// each individual cell read in a snapshot is an atomic read -- never torn
// -- but values are sampled while writers keep running, so cross-counter
// invariants (hits + misses == requests, histogram sum vs a separate
// counter) may be off by the handful of operations in flight at the sample
// instant. All counters are monotone, so a snapshot is a consistent
// *window*: every value lies between the true totals at the snapshot's
// start and end. One snapshot() call = one such window for every component
// at once, which is strictly stronger than composing per-component stats()
// calls made at different times.
//
// Compile-out: -DRESTORABLE_NO_METRICS makes kEnabled false, turning every
// instrument mutation (except ShardedCount's) and obs::now_ns() into a
// no-op the optimizer deletes; the registry and providers still function
// (component Stats read their own non-obs atomics and ShardedCounts), so
// snapshots stay well-formed with the obs-backed values reading zero.
// A build with it set is the baseline that bounds the enabled path's
// overhead (perfbench's hot_read on both builds).
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/json.h"
#include "util/table.h"
#include "util/timing.h"

namespace restorable::obs {

#ifdef RESTORABLE_NO_METRICS
inline constexpr bool kEnabled = false;
#else
inline constexpr bool kEnabled = true;
#endif

// The monotonic clock behind every obs timestamp; compiles out with the
// rest of the hot path (a query must not pay two clock_gettime calls in a
// build that asked for zero metrics cost).
inline uint64_t now_ns() {
  if constexpr (kEnabled) return ::restorable::now_ns();
  return 0;
}

namespace detail {
// Number of padded per-thread cells every sharded instrument keeps. Threads
// beyond it share cells (still exact: cells are atomic), only contended.
inline constexpr size_t kThreadCells = 16;  // power of two

// Stable per-thread cell assignment: threads get round-robin cells on first
// use, so a serving thread always hits the same padded cell (no false
// sharing with its neighbors, no rehash cost per increment). The
// thread_local is constant-initialized (0 = unassigned, else cell + 1), so
// reading it needs no initialization guard: one TLS load and a branch.
inline std::atomic<size_t> next_thread_shard{0};
inline thread_local size_t thread_shard_plus1 = 0;

inline size_t thread_shard() noexcept {
  size_t s = thread_shard_plus1;
  if (s == 0) [[unlikely]] {
    s = (next_thread_shard.fetch_add(1, std::memory_order_relaxed) &
         (kThreadCells - 1)) +
        1;
    thread_shard_plus1 = s;
  }
  return s - 1;
}

// Monotone count, thread-sharded; kGated makes it compile out with the
// rest of the instruments under RESTORABLE_NO_METRICS.
template <bool kGated>
class ShardedCounter {
 public:
  static constexpr size_t kShards = kThreadCells;

  void add(uint64_t v = 1) noexcept {
    if constexpr (kGated && !kEnabled) return;
    cells_[thread_shard()].v.fetch_add(v, std::memory_order_relaxed);
  }

  uint64_t value() const noexcept {
    uint64_t total = 0;
    for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  Cell cells_[kShards];
};
}  // namespace detail

// Monotone telemetry counter, thread-sharded. add() is wait-free: one
// relaxed fetch_add on this thread's cell. Compiles out under
// RESTORABLE_NO_METRICS.
using Counter = detail::ShardedCounter<true>;

// The same thread-sharded count, never compiled out: for counts that are
// part of a component's own Stats (queries served, batcher requests), which
// a query bumps and so must not be one shared atomic.
using ShardedCount = detail::ShardedCounter<false>;

// Last-write-wins instantaneous value. set()/add() are wait-free.
class Gauge {
 public:
  void set(int64_t v) noexcept {
    if constexpr (!kEnabled) return;
    v_.store(v, std::memory_order_relaxed);
  }
  void add(int64_t d) noexcept {
    if constexpr (!kEnabled) return;
    v_.fetch_add(d, std::memory_order_relaxed);
  }
  int64_t value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

// Fixed log2-bucket histogram, thread-sharded. record() is wait-free (two
// relaxed fetch_adds on this thread's cell); the bucket scheme is
// bit-identical to the batch-size histogram CoalescingBatcher introduced
// (its Stats::batch_hist is now a view over one of these).
class Histogram {
 public:
  // 40 buckets cover [0, 2^40) ns ~ 18 minutes: every latency this system
  // can produce, with the last bucket absorbing the rest.
  static constexpr size_t kLatencyBuckets = 40;

  explicit Histogram(size_t buckets = kLatencyBuckets)
      : num_buckets_(buckets ? buckets : 1),
        // A cell is the buckets plus the sum, rounded up to whole 64-byte
        // lines so no two threads' cells share one.
        stride_((num_buckets_ + 1 + kWordsPerLine - 1) / kWordsPerLine *
                kWordsPerLine),
        storage_(std::make_unique<std::atomic<uint64_t>[]>(
            detail::kThreadCells * stride_ + kWordsPerLine - 1)),
        cells_(line_aligned(storage_.get())) {}

  // The shared bucket rule: 0 and 1 land in bucket 0; v >= 2 lands in
  // floor(log2(v)), clamped to the last bucket. Exactly the loop
  //   bucket = 0; while ((v >> (bucket+1)) > 0 && bucket+1 < n) ++bucket;
  // the batcher used (regression-pinned by tests/obs_test.cc).
  static size_t bucket_of(uint64_t v, size_t num_buckets) noexcept {
    if (v < 2) return 0;
    const size_t b = static_cast<size_t>(std::bit_width(v)) - 1;
    return b < num_buckets ? b : num_buckets - 1;
  }
  // Smallest value bucket k counts: [lower_bound(k), lower_bound(k+1)).
  static uint64_t bucket_lower_bound(size_t k) noexcept {
    return k == 0 ? 0 : uint64_t{1} << k;
  }

  void record(uint64_t v) noexcept {
    if constexpr (!kEnabled) return;
    std::atomic<uint64_t>* cell = cells_ + detail::thread_shard() * stride_;
    cell[bucket_of(v, num_buckets_)].fetch_add(1, std::memory_order_relaxed);
    cell[num_buckets_].fetch_add(v, std::memory_order_relaxed);
  }

  size_t num_buckets() const noexcept { return num_buckets_; }

  struct Snapshot {
    std::vector<uint64_t> buckets;
    uint64_t count = 0;  // sum over buckets (internally consistent with them)
    uint64_t sum = 0;    // sampled separately; may trail/lead count slightly
  };
  // Sums the cells. `count` is DERIVED from the summed buckets, so
  // count == sum(buckets) holds within one snapshot by construction; only
  // `sum` is an independent read (see the consistency model above).
  Snapshot snapshot() const {
    Snapshot s;
    s.buckets.assign(num_buckets_, 0);
    for (size_t c = 0; c < detail::kThreadCells; ++c) {
      const std::atomic<uint64_t>* cell = cells_ + c * stride_;
      for (size_t i = 0; i < num_buckets_; ++i)
        s.buckets[i] += cell[i].load(std::memory_order_relaxed);
      s.sum += cell[num_buckets_].load(std::memory_order_relaxed);
    }
    for (uint64_t b : s.buckets) s.count += b;
    return s;
  }

 private:
  static constexpr size_t kWordsPerLine = 64 / sizeof(std::atomic<uint64_t>);

  static std::atomic<uint64_t>* line_aligned(std::atomic<uint64_t>* p) {
    const auto bits = reinterpret_cast<uintptr_t>(p);
    return p + ((64 - bits % 64) % 64) / sizeof(std::atomic<uint64_t>);
  }

  size_t num_buckets_;
  size_t stride_;  // words per cell, a multiple of one line
  std::unique_ptr<std::atomic<uint64_t>[]> storage_;
  std::atomic<uint64_t>* cells_;  // first line-aligned word of storage_
};

// ---------------------------------------------------------------------------
// Snapshot document.

struct MetricValue {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  Kind kind = Kind::kCounter;
  int64_t value = 0;              // counter/gauge value; histogram count
  uint64_t sum = 0;               // histogram only: sum of recorded values
  std::vector<uint64_t> buckets;  // histogram only: log2 buckets
};

struct ComponentSnapshot {
  std::string component;
  std::vector<MetricValue> metrics;
};

struct MetricsSnapshot {
  std::vector<ComponentSnapshot> components;

  // nullptr when absent -- callers probing optional components (no cache,
  // no batcher) branch on this.
  const MetricValue* find(std::string_view component,
                          std::string_view metric) const;
  int64_t value_or(std::string_view component, std::string_view metric,
                   int64_t fallback = 0) const {
    const MetricValue* m = find(component, metric);
    return m ? m->value : fallback;
  }
  uint64_t sum_or(std::string_view component, std::string_view metric,
                  uint64_t fallback = 0) const {
    const MetricValue* m = find(component, metric);
    return m ? m->sum : fallback;
  }

  // One flat JSON row per metric (fields: component, metric, kind, value;
  // histograms add sum + a comma-joined bucket list). `tag` -- when given --
  // is invoked right after each row() to stamp scenario fields (bench,
  // family, threads, ...) onto every row; util/json stays the one JSON
  // emitter in the tree.
  void to_json(JsonRows& rows,
               const std::function<void(JsonRows&)>& tag = nullptr) const;

  // Human-readable export via util/table.
  Table to_table() const;
};

// ---------------------------------------------------------------------------
// Registry.

class MetricsRegistry;

// RAII registration: dropping it removes the provider, so a component can
// never be sampled after it died (OracleServer declares its registrations
// after the components they read, destroying them first).
class Registration {
 public:
  Registration() = default;
  Registration(Registration&& o) noexcept : reg_(o.reg_), id_(o.id_) {
    o.reg_ = nullptr;
  }
  Registration& operator=(Registration&& o) noexcept {
    if (this != &o) {
      release();
      reg_ = o.reg_;
      id_ = o.id_;
      o.reg_ = nullptr;
    }
    return *this;
  }
  Registration(const Registration&) = delete;
  Registration& operator=(const Registration&) = delete;
  ~Registration() { release(); }

 private:
  friend class MetricsRegistry;
  Registration(MetricsRegistry* reg, uint64_t id) : reg_(reg), id_(id) {}
  void release();

  MetricsRegistry* reg_ = nullptr;
  uint64_t id_ = 0;
};

// Passed to providers at snapshot time; providers append their component's
// current values through it. Providers run under the registry mutex: they
// must only read their own atomics/stats (never call back into the
// registry, never block).
class ComponentBuilder {
 public:
  void counter(std::string name, uint64_t value) {
    out_->metrics.push_back({std::move(name), MetricValue::Kind::kCounter,
                             static_cast<int64_t>(value), 0, {}});
  }
  template <bool kGated>
  void counter(std::string name, const detail::ShardedCounter<kGated>& c) {
    counter(std::move(name), c.value());
  }
  void gauge(std::string name, int64_t value) {
    out_->metrics.push_back(
        {std::move(name), MetricValue::Kind::kGauge, value, 0, {}});
  }
  void gauge(std::string name, const Gauge& g) { gauge(std::move(name), g.value()); }
  void histogram(std::string name, const Histogram& h) {
    Histogram::Snapshot s = h.snapshot();
    out_->metrics.push_back({std::move(name), MetricValue::Kind::kHistogram,
                             static_cast<int64_t>(s.count), s.sum,
                             std::move(s.buckets)});
  }
  // Raw-bucket form for components whose histogram lives as a plain array
  // snapshot (the batcher's Stats view).
  void histogram(std::string name, std::span<const uint64_t> buckets,
                 uint64_t sum = 0) {
    MetricValue m{std::move(name), MetricValue::Kind::kHistogram, 0, sum,
                  std::vector<uint64_t>(buckets.begin(), buckets.end())};
    for (uint64_t b : m.buckets) m.value += static_cast<int64_t>(b);
    out_->metrics.push_back(std::move(m));
  }

 private:
  friend class MetricsRegistry;
  explicit ComponentBuilder(ComponentSnapshot* out) : out_(out) {}
  ComponentSnapshot* out_;
};

class MetricsRegistry {
 public:
  using Provider = std::function<void(ComponentBuilder&)>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Registers `provider` under `component`; the returned handle removes it
  // when destroyed. Thread-safe. Registration order is snapshot order.
  [[nodiscard]] Registration add(std::string component, Provider provider);

  // Runs every provider once, in registration order: ONE document covering
  // every live component (the consistency window described atop this file).
  // Thread-safe against concurrent add/remove and against writers mutating
  // the underlying instruments. NEVER called on the query path.
  MetricsSnapshot snapshot() const;

  size_t component_count() const;

 private:
  friend class Registration;
  void remove(uint64_t id);

  struct Entry {
    uint64_t id;
    std::string component;
    Provider provider;
  };

  mutable std::mutex mu_;
  std::vector<Entry> entries_;
  uint64_t next_id_ = 1;
};

}  // namespace restorable::obs
