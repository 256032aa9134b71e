#include "serve/spt_cache.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "util/random.h"

namespace restorable {

size_t SptKeyHash::epoch_free(const SptKey& k) {
  uint64_t h = hash_combine(k.scheme_id, k.root);
  h = hash_combine(h, static_cast<uint64_t>(k.dir) + 1);
  for (EdgeId e : k.faults) h = hash_combine(h, static_cast<uint64_t>(e) + 1);
  return static_cast<size_t>(h);
}

size_t SptKeyHash::operator()(const SptKey& k) const {
  // eps_q joins here, NOT in epoch_free: the exact and approximate tiers of
  // one root share a shard (they coexist; advance_epoch walks both in one
  // pass) while remaining distinct map entries.
  return static_cast<size_t>(hash_combine(
      hash_combine(epoch_free(k), k.epoch + 1),
      static_cast<uint64_t>(k.eps_q) + 1));
}

SptCache::SptCache(Config config) {
  const size_t shards = std::max<size_t>(1, config.shards);
  byte_budget_ = config.byte_budget;
  per_shard_budget_ = byte_budget_ / shards;
  protected_fraction_ = std::clamp(config.protected_fraction, 0.0, 1.0);
  protected_budget_ = static_cast<size_t>(
      static_cast<double>(per_shard_budget_) * protected_fraction_);
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

size_t SptCache::entry_bytes(const SptKey& key, const Spt& tree) {
  // Tree storage + key storage + LRU node / hash slot overhead. The constant
  // is a deliberate overestimate so tiny budgets degrade to "cache nothing"
  // rather than "account nothing".
  return tree.memory_bytes() + sizeof(Entry) +
         key.faults.capacity() * sizeof(EdgeId) + 64;
}

SptHandle SptCache::lookup(const SptKey& key) {
  Shard& s = shard_for(key);
  const bool base = key.is_base();
  std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.map.find(key);
  if (it == s.map.end()) {
    ++s.misses;
    if (base) ++s.base_misses;
    return nullptr;
  }
  ++s.hits;
  if (base) ++s.base_hits;
  LruList& list = list_of(s, it->second->prot);
  list.splice(list.begin(), list, it->second);  // refresh to MRU
  return it->second->tree;
}

SptHandle SptCache::peek(const SptKey& key) {
  Shard& s = shard_for(key);
  std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.map.find(key);
  if (it == s.map.end()) return nullptr;
  // Deliberately NO splice-to-MRU: peek is a non-query probe (the batcher's
  // double-check, tests) and must not perturb the eviction order.
  return it->second->tree;
}

SptHandle SptCache::insert(const SptKey& key, Spt tree) {
  return insert(key, std::make_shared<const Spt>(std::move(tree)));
}

size_t SptCache::evict_back(Shard& s, LruList& list) {
  const Entry& victim = list.back();
  const size_t bytes = victim.bytes;
  s.map.erase(victim.key);
  list.pop_back();
  ++s.evictions;
  return bytes;
}

SptHandle SptCache::insert(const SptKey& key, SptHandle tree) {
  Shard& s = shard_for(key);
  // Admission class: base trees are protected only when segmentation is on;
  // with protected_fraction == 0 every entry shares the probationary list,
  // which is then exactly the old flat LRU.
  const bool prot = protected_budget_ > 0 && key.is_base();
  const size_t bytes = entry_bytes(key, *tree);
  std::lock_guard<std::mutex> lock(s.mu);
  // Stale-epoch rejection: a serving straggler pinned to a displaced
  // generation would publish a dead entry no lookup can ever reach (the
  // serving layer is already at a newer epoch), stranding its bytes --
  // protected segment included -- until the next bump.
  const auto latest = s.latest_epoch.find(key.scheme_id);
  if (latest != s.latest_epoch.end() && key.epoch < latest->second) {
    ++s.rejected_stale;
    return nullptr;
  }
  const auto it = s.map.find(key);
  if (it != s.map.end()) {
    // First writer wins; the racing tree is bit-identical by determinism.
    LruList& list = list_of(s, it->second->prot);
    list.splice(list.begin(), list, it->second);
    return it->second->tree;
  }
  LruList& list = list_of(s, prot);
  list.push_front(Entry{key, std::move(tree), bytes, prot});
  s.map.emplace(key, list.begin());
  (prot ? s.prot_bytes : s.prob_bytes) += bytes;
  ++s.inserts;
  s.peak_bytes = std::max(s.peak_bytes, s.prot_bytes + s.prob_bytes);

  if (prot) {
    // A base tree may use the whole shard slice: reclaim probationary bytes
    // first (fault trees are the scan class), then fall back to evicting
    // older base trees.
    while (s.prot_bytes + s.prob_bytes > per_shard_budget_ &&
           !s.prob_lru.empty())
      s.prob_bytes -= evict_back(s, s.prob_lru);
    while (s.prot_bytes > per_shard_budget_ && !s.prot_lru.empty())
      s.prot_bytes -= evict_back(s, s.prot_lru);
  } else {
    // Fault trees are confined to the unprotected remainder of the slice
    // AND to whatever the resident base trees leave of the total (base
    // trees may legitimately fill past their nominal fraction): however
    // hard a fault-scan churns, it can only evict other fault trees, never
    // a resident base tree, and the shard's total never exceeds its slice.
    const size_t prob_budget = per_shard_budget_ - protected_budget_;
    while ((s.prob_bytes > prob_budget ||
            s.prot_bytes + s.prob_bytes > per_shard_budget_) &&
           !s.prob_lru.empty())
      s.prob_bytes -= evict_back(s, s.prob_lru);
  }

  // The fresh tree may itself have been evicted (its segment's slice is
  // smaller than the entry); the caller's handle keeps it alive either way.
  const auto kept = s.map.find(key);
  return kept == s.map.end() ? nullptr : kept->second->tree;
}

size_t SptCache::invalidate(
    uint64_t scheme_id,
    const std::function<bool(const SptKey&, const Spt&)>& pred) {
  size_t erased = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (LruList* list : {&shard->prot_lru, &shard->prob_lru}) {
      for (auto it = list->begin(); it != list->end();) {
        if (it->key.scheme_id != scheme_id ||
            (pred && !pred(it->key, *it->tree))) {
          ++it;
          continue;
        }
        (it->prot ? shard->prot_bytes : shard->prob_bytes) -= it->bytes;
        shard->map.erase(it->key);
        it = list->erase(it);
        ++shard->invalidated;
        ++erased;
      }
    }
  }
  return erased;
}

SptCache::AdvanceStats SptCache::advance_epoch(
    uint64_t scheme_id, uint64_t old_epoch, uint64_t new_epoch,
    const std::function<bool(const SptKey&, const Spt&)>& survives,
    std::vector<Invalidated>* invalidated_out) {
  AdvanceStats out;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    // Arm insert's stale-epoch rejection before touching the entries: any
    // insert that serializes after this walk on the shard lock sees the
    // advanced epoch.
    uint64_t& latest = shard->latest_epoch[scheme_id];
    latest = std::max(latest, new_epoch);
    for (LruList* list : {&shard->prot_lru, &shard->prob_lru}) {
      for (auto it = list->begin(); it != list->end();) {
        Entry& e = *it;
        if (e.key.scheme_id != scheme_id || e.key.epoch == new_epoch) {
          ++it;
          continue;
        }
        const bool current = e.key.epoch == old_epoch;
        if (current && survives && survives(e.key, *e.tree)) {
          // Zero-copy carry-forward: rekey the resident entry in place (the
          // shard hash ignores epochs, so it stays on this shard) and keep
          // its LRU position and byte accounting as-is.
          shard->map.erase(e.key);
          e.key.epoch = new_epoch;
          if (!shard->map.emplace(e.key, it).second) {
            // A twin is already resident at the new epoch (a racing insert
            // between the mutation and this walk); it is bit-identical by
            // determinism, so keep it and drop the redundant survivor --
            // stale, not invalidated: nothing needs recomputing.
            (e.prot ? shard->prot_bytes : shard->prob_bytes) -= e.bytes;
            it = list->erase(it);
            ++shard->purged_stale;
            ++out.purged_stale;
            continue;
          }
          ++shard->carried_forward;
          ++out.carried;
          ++it;
          continue;
        }
        if (current && invalidated_out) {
          SptKey rekeyed = e.key;
          rekeyed.epoch = new_epoch;
          invalidated_out->push_back({std::move(rekeyed), e.tree});
        }
        (e.prot ? shard->prot_bytes : shard->prob_bytes) -= e.bytes;
        shard->map.erase(e.key);
        it = list->erase(it);
        if (current) {
          ++shard->invalidated;
          ++out.invalidated;
        } else {
          // Dead-version aging: whatever epoch this stray came from, it can
          // never be looked up again -- reclaim it even from the protected
          // segment.
          ++shard->purged_stale;
          ++out.purged_stale;
        }
      }
    }
  }
  return out;
}

void SptCache::clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->prot_lru.clear();
    shard->prob_lru.clear();
    shard->map.clear();
    shard->prot_bytes = 0;
    shard->prob_bytes = 0;
  }
}

SptCache::Stats SptCache::stats() const {
  Stats out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    out.hits += shard->hits;
    out.misses += shard->misses;
    out.base_hits += shard->base_hits;
    out.base_misses += shard->base_misses;
    out.inserts += shard->inserts;
    out.evictions += shard->evictions;
    out.rejected_stale += shard->rejected_stale;
    out.carried_forward += shard->carried_forward;
    out.invalidated += shard->invalidated;
    out.purged_stale += shard->purged_stale;
    out.entries += shard->map.size();
    out.bytes += shard->prot_bytes + shard->prob_bytes;
    out.sum_shard_peak_bytes += shard->peak_bytes;
    out.protected_entries += shard->prot_lru.size();
    out.protected_bytes += shard->prot_bytes;
  }
  return out;
}

}  // namespace restorable
