#include "serve/coalescing_batcher.h"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <stdexcept>
#include <utility>

namespace restorable {

CoalescingBatcher::Enrollment CoalescingBatcher::enroll(
    const SptKey& key, const SsspRequest& req,
    const GenerationManager::Pin& pin) {
  std::lock_guard<std::mutex> lock(mu_);
  requests_.add();
  Enrollment e;
  auto it = inflight_.find(key);
  if (it != inflight_.end()) {
    coalesced_.fetch_add(1, std::memory_order_relaxed);
    e.fl = it->second;
    return e;
  }
  // Double-check the cache under the batcher lock: a completed flight
  // publishes to the cache BEFORE leaving inflight_, so a key absent from
  // both was never requested (or has been evicted) -- this is what makes
  // single-flight airtight against the lookup/enroll race. peek keeps the
  // caller's earlier counted lookup the only hit/miss sample for this
  // probe.
  if (cache_) {
    if ((e.hit = cache_->peek(key))) return e;
  }
  e.fl = std::make_shared<InFlight>();
  const auto ins = inflight_.emplace(key, e.fl);
  try {
    // The flight clones the caller's pin, keeping the keyed generation
    // alive until the flush resolves it -- later coalescers need no pin of
    // their own, the flight's one covers the result they share.
    pending_.push_back(Pending{key, req, pin, obs::now_ns()});
  } catch (...) {
    // Keep inflight_ and pending_ consistent: an entry in inflight_ with no
    // pending twin would make every later caller coalesce onto a flight
    // nobody will ever flush.
    inflight_.erase(ins.first);
    throw;
  }
  if (pending_.size() > max_queue_depth_) max_queue_depth_ = pending_.size();
  if (!flushing_) {
    flushing_ = true;
    e.leader = true;
  }
  return e;
}

SptHandle CoalescingBatcher::await(InFlight& fl, FetchObs* obs) {
  const uint64_t t0 = obs ? obs::now_ns() : 0;
  std::unique_lock<std::mutex> lock(fl.mu);
  fl.cv.wait(lock, [&] { return fl.done; });
  if (obs) {
    // queue_wait/compute were written by the leader under fl.mu before
    // done = true; wait_ns is this caller's own blocked time.
    obs->queue_wait_ns = fl.queue_wait_ns;
    obs->compute_ns = fl.compute_ns;
    obs->wait_ns = obs::now_ns() - t0;
  }
  if (fl.error) std::rethrow_exception(fl.error);
  return fl.tree;
}

void CoalescingBatcher::flush_loop() {
  for (;;) {
    std::vector<Pending> batch;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (pending_.empty()) {
        flushing_ = false;
        return;
      }
      // Bounded drain (max_batch_ > 0): take the oldest keys up to the cap,
      // leave the rest queued for the next iteration (their waiters stay
      // parked on their in-flight entries, so nothing is lost -- latency is
      // just paid in installments instead of one unbounded batch).
      const size_t take = max_batch_ > 0
                              ? std::min(max_batch_, pending_.size())
                              : pending_.size();
      batch.assign(std::make_move_iterator(pending_.begin()),
                   std::make_move_iterator(pending_.begin() +
                                           static_cast<ptrdiff_t>(take)));
      pending_.erase(pending_.begin(),
                     pending_.begin() + static_cast<ptrdiff_t>(take));
      flushes_.fetch_add(1, std::memory_order_relaxed);
      computed_.fetch_add(batch.size(), std::memory_order_relaxed);
      if (batch.size() > largest_batch_.load(std::memory_order_relaxed))
        largest_batch_.store(batch.size(), std::memory_order_relaxed);
    }
    batch_hist_.record(batch.size());
    const uint64_t drain_ns = obs::now_ns();

    // One engine submission per generation present in the drain (almost
    // always exactly one; briefly two around a publish, since keys embed
    // the epoch and so never mix generations within one flight); no batcher
    // lock held, so new misses keep accumulating in pending_ meanwhile.
    // Each group computes on its own pinned frozen snapshot, so a flush
    // races no epoch bump. Everything that can throw (e.g. bad_alloc) stays
    // inside a try: a throw must fail the affected group's flights, not
    // abandon the batch, so flushing_ can never be left stuck true and no
    // waiter blocks forever.
    std::vector<SptHandle> trees(batch.size());
    std::vector<std::exception_ptr> errors(batch.size());
    std::vector<uint64_t> compute_ns(batch.size(), 0);
    std::vector<const Generation*> groups;
    for (const Pending& p : batch) {
      if (std::find(groups.begin(), groups.end(), p.pin.get()) == groups.end())
        groups.push_back(p.pin.get());
    }
    for (const Generation* gen : groups) {
      std::vector<size_t> members;
      std::vector<SsspRequest> reqs;
      for (size_t i = 0; i < batch.size(); ++i) {
        if (batch[i].pin.get() != gen) continue;
        members.push_back(i);
        reqs.push_back(batch[i].req);
      }
      try {
        const uint64_t c0 = obs::now_ns();
        auto group_trees = gen->scheme->spt_batch(reqs, engine_, nullptr);
        const uint64_t c_dur = obs::now_ns() - c0;
        for (size_t k = 0; k < members.size(); ++k) {
          trees[members[k]] = std::move(group_trees[k]);
          compute_ns[members[k]] = c_dur;
        }
      } catch (...) {
        for (size_t i : members) errors[i] = std::current_exception();
      }
    }

    for (size_t i = 0; i < batch.size(); ++i) {
      SptHandle tree;
      std::exception_ptr item_error = errors[i];
      if (!item_error) {
        // Publication can allocate (cache nodes) and so can throw too; such
        // a throw must fail THIS flight, not abandon the rest of the batch.
        try {
          tree = std::move(trees[i]);
          // A null slot (a buggy or lossy spt_batch override) must fail
          // THIS flight with a real exception, not crash the leader on the
          // memory_bytes() dereference below -- a dead leader leaves
          // flushing_ stuck true and strands every queued waiter forever.
          if (!tree)
            throw std::runtime_error(
                "CoalescingBatcher: spt_batch returned a null tree");
          // Publish to the cache (zero-copy admission of the same handle); a
          // budget-rejected insert returns null, in which case waiters still
          // get the computed tree.
          computed_bytes_.fetch_add(tree->memory_bytes(),
                                    std::memory_order_relaxed);
          if (cache_)
            if (auto resident = cache_->insert(batch[i].key, tree))
              tree = std::move(resident);
        } catch (...) {
          item_error = std::current_exception();
          tree = nullptr;
        }
      }

      std::shared_ptr<InFlight> fl;
      {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = inflight_.find(batch[i].key);
        fl = it->second;
        inflight_.erase(it);
      }
      {
        std::lock_guard<std::mutex> lock(fl->mu);
        fl->tree = std::move(tree);
        fl->error = item_error;
        fl->queue_wait_ns =
            drain_ns > batch[i].enqueue_ns ? drain_ns - batch[i].enqueue_ns : 0;
        fl->compute_ns = compute_ns[i];
        fl->done = true;
      }
      fl->cv.notify_all();
    }
  }
}

SptHandle CoalescingBatcher::get(const SsspRequest& req,
                                 const GenerationManager::Pin& pin,
                                 FetchObs* obs) {
  const SptKey key(pin->version(), req);
  if (cache_) {
    // Hit fast path: shard lock only, no batcher mutex.
    if (auto tree = cache_->lookup(key)) {
      requests_.add();
      return tree;  // obs->outcome stays kHit
    }
  }
  Enrollment e = enroll(key, req, pin);
  if (e.hit) return e.hit;  // locked double-check hit: still kHit
  if (obs)
    obs->outcome = e.leader ? FetchObs::kLeader : FetchObs::kCoalesced;
  if (e.leader) flush_loop();
  return await(*e.fl, obs);
}

std::vector<SptHandle> CoalescingBatcher::get_batch(
    std::span<const SsspRequest> requests, const GenerationManager::Pin& pin,
    std::vector<FetchObs>* obs) {
  if (obs) obs->assign(requests.size(), FetchObs{});
  const SchemeVersion version = pin->version();
  std::vector<SptHandle> out(requests.size());
  std::vector<std::pair<size_t, std::shared_ptr<InFlight>>> waits;
  bool leader = false;
  for (size_t i = 0; i < requests.size(); ++i) {
    const SptKey key(version, requests[i]);
    if (cache_) {
      if ((out[i] = cache_->lookup(key))) {
        requests_.add();
        continue;  // obs stays kHit
      }
    }
    Enrollment e = enroll(key, requests[i], pin);
    if (e.hit) {
      out[i] = std::move(e.hit);
      continue;  // locked double-check hit: still kHit
    }
    if (obs)
      (*obs)[i].outcome =
          e.leader ? FetchObs::kLeader : FetchObs::kCoalesced;
    waits.emplace_back(i, std::move(e.fl));
    leader |= e.leader;
  }
  // All misses are enqueued before the flush starts, so they form one batch.
  if (leader) flush_loop();
  for (auto& [i, fl] : waits) out[i] = await(*fl, obs ? &(*obs)[i] : nullptr);
  return out;
}

CoalescingBatcher::Stats CoalescingBatcher::stats() const {
  Stats s;
  s.requests = requests_.value();
  s.coalesced = coalesced_.load(std::memory_order_relaxed);
  s.computed = computed_.load(std::memory_order_relaxed);
  s.computed_bytes = computed_bytes_.load(std::memory_order_relaxed);
  s.flushes = flushes_.load(std::memory_order_relaxed);
  s.max_batch = largest_batch_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.max_queue_depth = max_queue_depth_;
  }
  const obs::Histogram::Snapshot h = batch_hist_.snapshot();
  for (size_t i = 0; i < kHistBuckets && i < h.buckets.size(); ++i)
    s.batch_hist[i] = h.buckets[i];
  s.batch_hist_sum = h.sum;
  return s;
}

}  // namespace restorable
