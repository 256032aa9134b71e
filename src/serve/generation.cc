#include "serve/generation.h"

#include <cassert>
#include <stdexcept>
#include <string>
#include <thread>

#include "obs/metrics.h"

namespace restorable {

std::unique_ptr<const Generation> Generation::of(const IRpts& live,
                                                 GraphSnapshot snap) {
  auto gen = std::make_unique<Generation>();
  gen->graph = std::move(snap);
  gen->scheme = live.snapshot_view(*gen->graph);
  if (!gen->scheme)
    throw std::logic_error("snapshot_view returned no view for scheme " +
                           live.name());
  return gen;
}

void Generation::check_query(Vertex s, Vertex t,
                             std::span<const EdgeId> faults) const {
  const Vertex n = graph->num_vertices();
  if (s >= n || t >= n)
    throw std::out_of_range("query vertex out of range: s=" +
                            std::to_string(s) + " t=" + std::to_string(t) +
                            " n=" + std::to_string(n));
  for (const EdgeId e : faults)
    if (e >= graph->num_edges())
      throw std::out_of_range("fault edge id out of range: " +
                              std::to_string(e) +
                              " m=" + std::to_string(graph->num_edges()));
}

GenerationManager::GenerationManager(
    std::unique_ptr<const Generation> initial) {
  auto* slot = new Slot{std::move(initial)};
  word_.store(reinterpret_cast<uintptr_t>(slot), std::memory_order_release);
  published_.store(1, std::memory_order_relaxed);
}

GenerationManager::~GenerationManager() {
  // Contract: no reader holds a pin at destruction (the server's own
  // destructor order guarantees it -- the batcher, which stores pins in
  // pending flights, is destroyed first).
  retire_draining();
  Slot* slot = slot_of(word_.load(std::memory_order_acquire));
  assert(outstanding(slot->phase) == 0 &&
         "GenerationManager destroyed with live pins");
  delete slot;
}

GenerationManager::Pin GenerationManager::pin() {
  Cell& cell = my_cell();
  for (;;) {
    const uintptr_t w = word_.load(std::memory_order_relaxed);
    const uint32_t phase = static_cast<uint32_t>(w & 1);
    // Dekker pair with publish: lock-then-recheck here, exchange-then-scan
    // there, all seq_cst. Either the recheck sees the word unchanged and the
    // publisher's later scan of this phase sees the lock, or the recheck
    // sees the new word and this bump is undone. The recheck also acquires
    // the release exchange that installed the slot, so everything the
    // mutator built into the generation happens-before reads through the
    // pin.
    cell.lock[phase].fetch_add(1, std::memory_order_seq_cst);
    if (word_.load(std::memory_order_seq_cst) == w)
      return Pin(this, slot_of(w));
    // A publish intervened: undo with an unlock (counts only grow), then
    // retry on the new generation. release orders the bump before it for
    // a scan that observes the undo.
    cell.unlock[phase].fetch_add(1, std::memory_order_release);
  }
}

uint64_t GenerationManager::outstanding(uint32_t phase) const {
  // Unlocks first, then locks. Every unlock counted here had its lock
  // happen before it (a pin is released after it was taken or cloned, on
  // whatever thread), and the acquire loads pair with the release unlocks,
  // so the lock sum includes the lock of every counted unlock:
  // locks >= unlocks, and equality means every counted lock was released.
  // The lock loads are seq_cst: the scan half of the Dekker pair with
  // pin()'s lock-then-recheck (a seq_cst fence before relaxed loads would
  // do the same, but ThreadSanitizer does not model fences).
  uint64_t unlocks = 0, locks = 0;
  for (const Cell& c : cells_)
    unlocks += c.unlock[phase].load(std::memory_order_acquire);
  for (const Cell& c : cells_)
    locks += c.lock[phase].load(std::memory_order_seq_cst);
  return locks - unlocks;
}

void GenerationManager::retire_draining() {
  // Callers hold publish_mu_ (or are the destructor / constructor, which
  // run without concurrent publishers by contract).
  Slot* slot = draining_;
  if (!slot) return;
  // Drain condition: no pin of the draining slot's phase is outstanding.
  // It is terminal: fresh pins land on the current generation's phase, and
  // a clone needs a live pin to clone from. Phase-mates that are not pins
  // of this slot -- a stale reader's bump awaiting its undo -- only delay
  // the drain until the undo lands.
  bool waited = false;
  uint64_t wait_start = 0;
  while (outstanding(slot->phase) != 0) {
    if (!waited) {
      waited = true;
      wait_start = obs::now_ns();
    }
    std::this_thread::yield();
  }
  if (waited) {
    publish_waits_.fetch_add(1, std::memory_order_relaxed);
    publish_wait_ns_.fetch_add(obs::now_ns() - wait_start,
                               std::memory_order_relaxed);
  }
  delete slot;
  draining_ = nullptr;
  retired_.fetch_add(1, std::memory_order_relaxed);
}

void GenerationManager::publish(std::unique_ptr<const Generation> next) {
  auto* slot = new Slot{std::move(next)};
  std::lock_guard<std::mutex> lock(publish_mu_);
  // Reader-starvation bound: wait for the generation from TWO publishes ago
  // to drain before installing this one, so at most two generations are
  // ever alive. The mutator is the only party that ever waits.
  retire_draining();
  Slot* prev = slot_of(word_.load(std::memory_order_relaxed));
  // Phases alternate, so the one the retired slot used is free again.
  slot->phase = prev->phase ^ 1;
  // The swap. seq_cst: the publisher half of the Dekker pair with pin()
  // (the drain scan of prev's phase follows it), and a release of the fully
  // built generation to pinning readers.
  word_.exchange(reinterpret_cast<uintptr_t>(slot) | slot->phase,
                 std::memory_order_seq_cst);
  draining_ = prev;
  published_.fetch_add(1, std::memory_order_relaxed);
}

GenerationManager::Stats GenerationManager::stats() const {
  Stats s;
  s.published = published_.load(std::memory_order_relaxed);
  s.retired = retired_.load(std::memory_order_relaxed);
  s.publish_waits = publish_waits_.load(std::memory_order_relaxed);
  s.publish_wait_ns = publish_wait_ns_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(publish_mu_);
    s.live = draining_ ? 2 : 1;
    s.pins_now = outstanding(0) + outstanding(1);
  }
  return s;
}

}  // namespace restorable
