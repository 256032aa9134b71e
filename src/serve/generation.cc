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

uint64_t GenerationManager::pack(Slot* slot, uint64_t count) {
  const auto bits = reinterpret_cast<uintptr_t>(slot);
  // The packed word spends 16 bits on the pin count; the pointer must fit
  // the remaining 48 (canonical user-space addresses do on x86-64/aarch64).
  assert((bits >> (64 - kCountBits)) == 0);
  assert(count <= kCountMask);
  return (static_cast<uint64_t>(bits) << kCountBits) | count;
}

GenerationManager::GenerationManager(
    std::unique_ptr<const Generation> initial) {
  auto* slot = new Slot{std::move(initial)};
  word_.store(pack(slot, 0), std::memory_order_release);
  published_.store(1, std::memory_order_relaxed);
}

GenerationManager::~GenerationManager() {
  // Contract: no reader holds a pin at destruction (the server's own
  // destructor order guarantees it -- the batcher, which stores pins in
  // pending flights, is destroyed first).
  retire_draining();
  const uint64_t w = word_.load(std::memory_order_acquire);
  assert(count_of(w) == 0 && "GenerationManager destroyed with live pins");
  delete slot_of(w);
}

GenerationManager::Pin GenerationManager::pin() {
  // Wait-free: the fetch_add both reads the current slot and counts the pin
  // in one RMW, so the publisher's exchange either sees this pin in the
  // count it transfers, or this pin already landed on the next generation.
  // acquire pairs with the release exchange in publish(): everything the
  // mutator built into the generation happens-before any read through it.
  const uint64_t w = word_.fetch_add(1, std::memory_order_acquire);
  return Pin(this, slot_of(w));
}

void GenerationManager::unpin(Slot* slot) {
  uint64_t w = word_.load(std::memory_order_relaxed);
  while (slot_of(w) == slot) {
    // Still the current generation: count down in the word. release makes
    // this reader's tree reads happen-before the publisher's eventual free
    // (the publisher's exchange acquires the word). No ABA: `slot` cannot
    // be freed and its address reused while this pin is outstanding, so
    // pointer equality really means "still current". Underflow is
    // impossible: while this (word-granted) pin is unreleased the CURRENT
    // word's count is >= 1 whenever its slot matches, and the CAS only
    // succeeds against the current word -- a stale `w` fails and reloads.
    if (word_.compare_exchange_weak(w, w - 1, std::memory_order_release,
                                    std::memory_order_relaxed))
      return;
  }
  // Unpublished while we held the pin: the publisher moved our count into
  // the slot's residual channel; count ourselves down there. release pairs
  // with the acquire load in retire_draining's drain wait.
  slot->residual.fetch_sub(1, std::memory_order_release);
}

void GenerationManager::repin(Slot* slot) {
  // The cloning thread already holds a pin on `slot`, so the generation is
  // alive and the publisher's drain condition cannot be true concurrently;
  // relaxed suffices (the clone's own unpin carries the release).
  uint64_t w = word_.load(std::memory_order_relaxed);
  while (slot_of(w) == slot) {
    if (word_.compare_exchange_weak(w, w + 1, std::memory_order_relaxed,
                                    std::memory_order_relaxed))
      return;
  }
  slot->residual.fetch_add(1, std::memory_order_relaxed);
}

void GenerationManager::retire_draining() {
  // Callers hold publish_mu_ (or are the destructor / constructor, which
  // run without concurrent publishers by contract).
  Slot* slot = draining_;
  if (!slot) return;
  // Drain condition: outstanding pins of an unpublished slot equal
  // transferred + residual (word-channel pins moved over by the swap, plus
  // residual-channel clones, minus residual-channel releases). residual ==
  // -transferred is therefore exactly "no pin outstanding", and it is
  // terminal: with no pins there is nobody left to clone one. acquire pairs
  // with the release fetch_sub in unpin, ordering every straggler's reads
  // before the free.
  bool waited = false;
  uint64_t wait_start = 0;
  while (slot->residual.load(std::memory_order_acquire) !=
         -slot->transferred) {
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
  // The swap. release publishes the fully built generation to pinning
  // readers; acquire synchronizes with the release CAS of every word-channel
  // unpin, so those readers' accesses happen-before this slot's eventual
  // free.
  const uint64_t old = word_.exchange(pack(slot, 0), std::memory_order_acq_rel);
  Slot* prev = slot_of(old);
  // Pins the swap captured migrate to the residual channel: stragglers see
  // the word pointing elsewhere and count down in prev->residual.
  // `transferred` is read only under publish_mu_, after this store.
  prev->transferred = static_cast<int64_t>(count_of(old));
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
    // Current-word pins plus whatever is still outstanding on the draining
    // slot (transferred pins minus residual releases). Both reads are
    // instantaneous samples; under publish_mu_ the draining slot cannot be
    // freed from under us.
    s.pins_now = count_of(word_.load(std::memory_order_relaxed));
    if (draining_) {
      const int64_t outstanding =
          draining_->transferred +
          draining_->residual.load(std::memory_order_relaxed);
      if (outstanding > 0) s.pins_now += static_cast<uint64_t>(outstanding);
    }
  }
  return s;
}

}  // namespace restorable
