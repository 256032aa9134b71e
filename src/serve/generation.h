// Epoch-pinned generation swapping: the RCU-style core of the lock-free
// serving path.
//
// A Generation is one immutable world: a frozen CSR snapshot of the served
// graph (Graph::snapshot) plus a scheme view rebound to it
// (IRpts::snapshot_view) that answers to the live scheme's cache identity.
// Queries never touch the live graph; they pin the current generation and
// compute against its snapshot, so a concurrent Graph::apply can rebuild the
// live CSR mid-query without a data race and without a lock on the query
// path.
//
// GenerationManager is the publish/retire machinery, an SRCU-style (Linux's
// sleepable RCU) two-phase counter scheme:
//
//   readers    pin()      load word_, bump this thread's lock[phase], re-check
//                         word_ (retry if a publish intervened); lock-free
//              ~Pin       bump this thread's unlock[phase]; wait-free
//   mutator    publish()  builds happen off to the side; the swap itself is
//                         one exchange of word_. The mutator is the ONLY
//                         party that ever waits: before installing
//                         generation N+1 it drains generation N-1, so at
//                         most TWO generations are alive at any instant
//                         (current + one draining) -- the reader-starvation
//                         bound is "a reader can be behind by at most one
//                         epoch", and the memory bound is two CSR copies.
//
// word_ holds (Slot* | phase): the current generation and the phase bit its
// pins count under. Only publish writes it, and successive generations
// alternate phases, so the draining generation's pins are exactly the
// counts under the phase the current one does not use. Counts live in
// cache-line-padded per-thread cells, so a pin writes only its own thread's
// line. A pin released on another thread (a batcher flight) bumps that
// thread's unlock count; the counts only ever grow, so only the totals
// matter. publish drains a phase by summing unlock[p] (acquire), then
// lock[p] (seq_cst): equal sums mean no pin is left.
// See docs/CONCURRENCY.md for the full protocol spec, every memory order,
// and the proof sketches of the drain condition.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>

#include "core/rpts.h"
#include "graph/graph.h"
#include "obs/metrics.h"

namespace restorable {

// One immutable published world. Built entirely before publish, never
// mutated after: readers share it without synchronization.
struct Generation {
  GraphSnapshot graph;                  // frozen CSR; owns the topology
  std::unique_ptr<const IRpts> scheme;  // view over *graph, live scheme_id

  // The world `live` serves at `snap`'s epoch: the snapshot plus the
  // scheme's view rebound to it. Throws std::logic_error if the scheme
  // returns no view.
  static std::unique_ptr<const Generation> of(const IRpts& live,
                                              GraphSnapshot snap);

  uint64_t epoch() const { return graph->epoch(); }
  // (scheme_id, epoch) the generation's trees are keyed by; constant
  // because the snapshot's epoch never moves.
  SchemeVersion version() const { return scheme->version(); }

  // The input check every query front-end runs on its pinned generation:
  // throws std::out_of_range unless s and t are vertices of this
  // generation's graph and every fault is one of its edge ids.
  void check_query(Vertex s, Vertex t, std::span<const EdgeId> faults) const;
};

class GenerationManager {
  struct Slot;

 public:
  // RAII pin on one generation. Holding a Pin guarantees the generation
  // (snapshot, scheme view, and every tree computed from them) stays alive;
  // copying re-pins the SAME generation (not the current one), so a query
  // that needs several fetches under one coherent epoch clones its pin.
  // Default-constructed (and moved-from) pins are empty and pin nothing.
  class Pin {
   public:
    Pin() = default;
    Pin(const Pin& other) : mgr_(other.mgr_), slot_(other.slot_) {
      if (slot_) mgr_->repin(slot_);
    }
    Pin& operator=(const Pin& other) {
      Pin copy(other);
      swap(copy);
      return *this;
    }
    Pin(Pin&& other) noexcept : mgr_(other.mgr_), slot_(other.slot_) {
      other.mgr_ = nullptr;
      other.slot_ = nullptr;
    }
    Pin& operator=(Pin&& other) noexcept {
      Pin moved(std::move(other));
      swap(moved);
      return *this;
    }
    ~Pin() {
      if (slot_) mgr_->unpin(slot_);
    }

    explicit operator bool() const { return slot_ != nullptr; }
    const Generation& operator*() const { return *get(); }
    const Generation* operator->() const { return get(); }
    const Generation* get() const;

    void swap(Pin& other) {
      std::swap(mgr_, other.mgr_);
      std::swap(slot_, other.slot_);
    }

   private:
    friend class GenerationManager;
    Pin(GenerationManager* mgr, Slot* slot) : mgr_(mgr), slot_(slot) {}

    GenerationManager* mgr_ = nullptr;
    Slot* slot_ = nullptr;
  };

  struct Stats {
    uint64_t published = 0;      // generations installed (incl. the initial)
    uint64_t retired = 0;        // generations drained and freed
    uint64_t publish_waits = 0;  // publishes that blocked on a drain
    uint64_t live = 0;           // 1 (steady state) or 2 (one draining)
    // Pin occupancy at the stats() instant: locks minus unlocks over both
    // phases. A point-in-time gauge (readers keep pinning concurrently),
    // exported as such through the metrics registry.
    uint64_t pins_now = 0;
    // Total wall time publishes have spent blocked in the drain wait
    // (epoch-advance latency attributable to slow readers). 0 under
    // RESTORABLE_NO_METRICS.
    uint64_t publish_wait_ns = 0;
  };

  // Takes ownership of the initial generation; it is published immediately.
  explicit GenerationManager(std::unique_ptr<const Generation> initial);

  GenerationManager(const GenerationManager&) = delete;
  GenerationManager& operator=(const GenerationManager&) = delete;

  // Caller contract: no outstanding pins (asserted in debug builds).
  ~GenerationManager();

  // Pins the current generation: one RMW on this thread's own counter cell
  // between two loads of word_; it loops only while publishes land in that
  // window. Never takes a lock.
  Pin pin();

  // Installs `next` as the current generation. Serialized internally (safe
  // from concurrent mutators, though OracleServer already serializes);
  // blocks only while the PREVIOUS draining generation still has pinned
  // readers -- the max-two-generations bound. Readers pinning concurrently
  // see either the old or the new generation, each fully constructed.
  void publish(std::unique_ptr<const Generation> next);

  Stats stats() const;

  // Registers stats() as `component` of `registry`: counters published,
  // retired, publish_waits, publish_wait_ns; gauges live, pins_now. The
  // manager must outlive the registration.
  [[nodiscard]] obs::Registration register_metrics(
      obs::MetricsRegistry& registry, std::string component) const;

 private:
  struct Slot {
    std::unique_ptr<const Generation> gen;
    // The phase this generation's pins count under; set before the slot is
    // published, never changed after.
    uint32_t phase = 0;
  };

  // One thread's pin counts, per phase, on a line of its own. Monotone:
  // a pin adds one lock, its release (on whichever thread) one unlock.
  struct alignas(64) Cell {
    std::atomic<uint64_t> lock[2] = {0, 0};
    std::atomic<uint64_t> unlock[2] = {0, 0};
  };
  static constexpr size_t kCells = obs::detail::kThreadCells;

  static Slot* slot_of(uintptr_t word) {
    return reinterpret_cast<Slot*>(word & ~uintptr_t{1});
  }
  Cell& my_cell() { return cells_[obs::detail::thread_shard()]; }

  void unpin(Slot* slot) {
    // release: this reader's reads of the generation happen-before the
    // drain scan that observes the unlock (its acquire load).
    my_cell().unlock[slot->phase].fetch_add(1, std::memory_order_release);
  }
  void repin(Slot* slot) {
    // The cloning thread already holds a pin on `slot`, and that pin's
    // release is ordered after this bump, so a drain scan that could count
    // the original as released sees the clone first; relaxed suffices.
    my_cell().lock[slot->phase].fetch_add(1, std::memory_order_relaxed);
  }
  // Locks minus unlocks under `phase`, summed over the cells unlocks first:
  // zero means no pin of that phase is outstanding.
  uint64_t outstanding(uint32_t phase) const;
  // Waits for the draining generation's pins to hit zero, then frees it.
  void retire_draining();

  // (current Slot* | its phase). Written only by publish: readers only load
  // it, so it sits on a line of its own, away from the cells they write.
  alignas(64) std::atomic<uintptr_t> word_;
  Cell cells_[kCells];

  // Mutator-side state, serialized by publish_mu_ (readers never take it).
  alignas(64) mutable std::mutex publish_mu_;
  Slot* draining_ = nullptr;

  std::atomic<uint64_t> published_{0};
  std::atomic<uint64_t> retired_{0};
  std::atomic<uint64_t> publish_waits_{0};
  std::atomic<uint64_t> publish_wait_ns_{0};
};

inline const Generation* GenerationManager::Pin::get() const {
  return slot_->gen.get();
}

}  // namespace restorable
