#include "serve/shard_aggregator.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

namespace restorable {

ShardAggregator::ShardAggregator(const IRpts& pi, FrontEndConfig config)
    : pi_(&pi),
      config_(std::move(config)),
      router_(config_.num_shards, config_.num_slots) {
  if (config_.total_engine_threads > 0) {
    const size_t per_shard =
        std::max<size_t>(1, config_.total_engine_threads / config_.num_shards);
    for (size_t i = 0; i < config_.num_shards; ++i)
      engines_.push_back(std::make_unique<BatchSsspEngine>(
          static_cast<int>(per_shard)));
  }
  metrics_ = config_.metrics;
  if (!metrics_) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  for (size_t i = 0; i < config_.num_shards; ++i) {
    ServerConfig sc = config_.shard;
    sc.metrics = metrics_;
    sc.tracer = config_.tracer;
    sc.metrics_prefix = "shard" + std::to_string(i) + ".";
    if (!engines_.empty()) sc.engine = engines_[i].get();
    shards_.push_back(std::make_unique<OracleShard>(pi, std::move(sc)));
    outboxes_.push_back(std::make_unique<Outbox>());
  }
  routed_epoch_.store(pi_->version().epoch, std::memory_order_release);
  register_providers();
}

ShardAggregator::~ShardAggregator() = default;

void ShardAggregator::register_providers() {
  registrations_.push_back(
      metrics_->add("frontend", [this](obs::ComponentBuilder& b) {
        b.counter("queries", queries_.load(std::memory_order_relaxed));
        b.counter("subqueries", subqueries_.load(std::memory_order_relaxed));
        b.counter("submissions",
                  submissions_.load(std::memory_order_relaxed));
        b.counter("remote_hits",
                  remote_hits_.load(std::memory_order_relaxed));
        b.counter("aggregated", aggregated_.load(std::memory_order_relaxed));
        b.counter("flush.capacity",
                  flush_capacity_.load(std::memory_order_relaxed));
        b.counter("flush.timeout",
                  flush_timeout_.load(std::memory_order_relaxed));
        b.counter("flush.explicit",
                  flush_explicit_.load(std::memory_order_relaxed));
        b.counter("fanouts", fanouts_.load(std::memory_order_relaxed));
        b.gauge("shards", static_cast<int64_t>(shards_.size()));
        b.gauge("routed_epoch",
                static_cast<int64_t>(
                    routed_epoch_.load(std::memory_order_relaxed)));
      }));
}

void ShardAggregator::book_subquery(const FetchObs& fo) {
  // The front-end half of the outcome taxonomy: a routed sub-query that the
  // owning shard's cache resolved is a remote_hit; one that rode a staged
  // flush or direct submission shows up as aggregated. The shard's own
  // classes (miss_leader etc.) carry the compute decomposition.
  if (fo.outcome == FetchObs::kHit)
    remote_hits_.fetch_add(1, std::memory_order_relaxed);
  else
    aggregated_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<std::shared_ptr<ShardAggregator::Staged>> ShardAggregator::detach(
    Outbox& ob) {
  std::vector<std::shared_ptr<Staged>> out;
  std::lock_guard<std::mutex> lock(ob.mu);
  out.swap(ob.staged);
  return out;
}

void ShardAggregator::flush_batch(size_t k,
                                  std::vector<std::shared_ptr<Staged>> batch) {
  if (batch.empty()) return;
  // One serve_batch per pinned generation present in the drain (almost
  // always one; briefly two around a fan-out, since entries staged before
  // and after the gate carry different pins and must not share an engine
  // submission's snapshot).
  std::vector<const Generation*> groups;
  for (const auto& st : batch) {
    if (std::find(groups.begin(), groups.end(), st->pin.get()) == groups.end())
      groups.push_back(st->pin.get());
  }
  for (const Generation* g : groups) {
    std::vector<size_t> members;
    std::vector<SsspRequest> reqs;
    for (size_t i = 0; i < batch.size(); ++i) {
      if (batch[i]->pin.get() != g) continue;
      members.push_back(i);
      reqs.push_back(batch[i]->req);
    }
    submissions_.fetch_add(1, std::memory_order_relaxed);
    std::vector<FetchObs> obs;
    try {
      auto trees =
          shards_[k]->serve_batch(reqs, batch[members.front()]->pin, &obs);
      for (size_t j = 0; j < members.size(); ++j) {
        batch[members[j]]->tree = std::move(trees[j]);
        batch[members[j]]->obs = obs[j];
      }
    } catch (...) {
      // Fail the whole group's entries, never strand a waiter: a staged
      // entry must always resolve to a tree or an exception.
      for (const size_t j : members)
        batch[j]->error = std::current_exception();
    }
  }
  for (const auto& st : batch) {
    {
      std::lock_guard<std::mutex> lock(st->mu);
      st->done = true;
    }
    st->cv.notify_all();
  }
}

std::shared_ptr<ShardAggregator::Staged> ShardAggregator::stage_and_wait(
    size_t k, const SsspRequest& req, GenerationManager::Pin pin) {
  Outbox& ob = *outboxes_[k];
  auto st = std::make_shared<Staged>();
  st->req = req;
  st->pin = std::move(pin);
  bool at_capacity = false;
  {
    std::lock_guard<std::mutex> lock(ob.mu);
    ob.staged.push_back(st);
    at_capacity = ob.staged.size() >= config_.flush_capacity;
  }
  if (at_capacity) {
    // Capacity rule: the stager that filled the box serves the batch (its
    // own entry rides along). detach() may come back empty if a concurrent
    // trigger won the race -- then our entry is in THAT batch and the wait
    // below resolves it.
    flush_capacity_.fetch_add(1, std::memory_order_relaxed);
    flush_batch(k, detach(ob));
  }
  const auto deadline = std::chrono::microseconds(config_.flush_timeout_us);
  std::unique_lock<std::mutex> lock(st->mu);
  while (!st->done) {
    if (st->cv.wait_for(lock, deadline, [&] { return st->done; })) break;
    // Timeout rule: nobody flushed within the staging budget, so this
    // waiter detaches whatever is staged (its own entry included) and
    // serves it. If another trigger detached our entry meanwhile, the
    // detach is empty/foreign and we just wait again -- whoever holds the
    // batch always resolves it.
    lock.unlock();
    auto batch = detach(ob);
    if (!batch.empty()) {
      flush_timeout_.fetch_add(1, std::memory_order_relaxed);
      flush_batch(k, std::move(batch));
    }
    lock.lock();
  }
  return st;
}

std::vector<SptHandle> ShardAggregator::submit(
    size_t k, std::span<const SsspRequest> requests,
    const GenerationManager::Pin& pin, std::vector<FetchObs>* obs) {
  submissions_.fetch_add(1, std::memory_order_relaxed);
  return shards_[k]->serve_batch(requests, pin, obs);
}

SptHandle ShardAggregator::fetch_routed(size_t k, const SsspRequest& req,
                                        const GenerationManager::Pin& pin) {
  subqueries_.fetch_add(1, std::memory_order_relaxed);
  if (!config_.enable_aggregation) {
    std::vector<FetchObs> obs;
    auto out = submit(k, std::span<const SsspRequest>(&req, 1), pin, &obs);
    book_subquery(obs[0]);
    return std::move(out[0]);
  }
  const auto st = stage_and_wait(k, req, pin);
  if (st->error) std::rethrow_exception(st->error);
  book_subquery(st->obs);
  return st->tree;
}

GenerationManager::Pin ShardAggregator::pin_checked(
    size_t k, Vertex s, Vertex t, std::span<const EdgeId> faults) {
  GenerationManager::Pin pin;
  {
    // Gate held ONLY for the pin grab: coherence, not compute.
    std::shared_lock<std::shared_mutex> gate(fanout_mu_);
    pin = shards_[k]->pin_generation();
  }
  pin->check_query(s, t, faults);
  return pin;
}

SptHandle ShardAggregator::tree(const SsspRequest& req) {
  const size_t k = router_.shard_of(pi_->scheme_id(), req.root);
  const auto pin = pin_checked(k, req.root, req.root, req.faults.ids());
  queries_.fetch_add(1, std::memory_order_relaxed);
  return fetch_routed(k, req, pin);
}

std::vector<SptHandle> ShardAggregator::tree_batch(
    std::span<const SsspRequest> requests) {
  if (requests.empty()) {
    queries_.fetch_add(1, std::memory_order_relaxed);
    return {};
  }
  const ShardRouter::Plan plan =
      router_.decompose(pi_->scheme_id(), requests);
  // All pins under ONE shared hold of the gate: the whole multi-shard query
  // reads one fleet-wide epoch, all-old or all-new.
  std::vector<GenerationManager::Pin> pins(shards_.size());
  {
    std::shared_lock<std::shared_mutex> gate(fanout_mu_);
    for (const size_t k : plan.touched) pins[k] = shards_[k]->pin_generation();
  }
  for (const size_t k : plan.touched)
    for (const SsspRequest& req : plan.by_shard[k])
      pins[k]->check_query(req.root, req.root, req.faults.ids());
  queries_.fetch_add(1, std::memory_order_relaxed);
  subqueries_.fetch_add(requests.size(), std::memory_order_relaxed);
  std::vector<SptHandle> out(requests.size());
  if (!config_.enable_aggregation) {
    // The unaggregated baseline: every routed sub-query is its own
    // submission, exactly what a naive front-end would do -- k roots cost k
    // serve_batch calls. This is the contrast the aggregation layer's >= 2x
    // submission reduction is measured against (bench serve_sharded).
    for (size_t i = 0; i < requests.size(); ++i) {
      const size_t k = router_.shard_of(pi_->scheme_id(), requests[i].root);
      std::vector<FetchObs> obs;
      auto sub = submit(k, std::span<const SsspRequest>(&requests[i], 1),
                        pins[k], &obs);
      out[i] = std::move(sub[0]);
      book_subquery(obs[0]);
    }
    return out;
  }
  // Explicit flush rule: stage EVERY sub-query first (no capacity triggers
  // -- the flush is imminent and bigger batches are the point), then flush
  // each touched outbox once, piggybacking concurrently staged singles. A
  // k-root query costs at most min(k, shards) submissions, deterministically.
  std::vector<std::shared_ptr<Staged>> mine;
  mine.reserve(requests.size());
  for (const size_t k : plan.touched) {
    Outbox& ob = *outboxes_[k];
    std::lock_guard<std::mutex> lock(ob.mu);
    for (const SsspRequest& req : plan.by_shard[k]) {
      auto st = std::make_shared<Staged>();
      st->req = req;
      st->pin = pins[k];
      ob.staged.push_back(st);
      mine.push_back(st);
    }
  }
  for (const size_t k : plan.touched) {
    auto batch = detach(*outboxes_[k]);
    if (batch.empty()) continue;  // a concurrent trigger took ours along
    flush_explicit_.fetch_add(1, std::memory_order_relaxed);
    flush_batch(k, std::move(batch));
  }
  // Entries a concurrent capacity/timeout trigger carried off resolve under
  // that trigger's flush; everything self-flushed above is already done.
  size_t m = 0;
  std::exception_ptr first_error;
  for (const size_t k : plan.touched) {
    for (size_t j = 0; j < plan.by_shard[k].size(); ++j, ++m) {
      const auto& st = mine[m];
      {
        std::unique_lock<std::mutex> lock(st->mu);
        st->cv.wait(lock, [&] { return st->done; });
      }
      if (st->error && !first_error) first_error = st->error;
      book_subquery(st->obs);
      out[plan.origin[k][j]] = st->tree;
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  return out;
}

int32_t ShardAggregator::distance(Vertex s, Vertex t,
                                  const FaultSet& faults) {
  const size_t k = router_.shard_of(pi_->scheme_id(), s);
  const auto pin = pin_checked(k, s, t, faults.ids());
  queries_.fetch_add(1, std::memory_order_relaxed);
  // The front-end serves the exact tier; the approximate tier stays a
  // per-shard concern (ServerConfig::default_epsilon on direct shard use).
  return fetch_routed(k, {s, faults, Direction::kOut}, pin)->hops(t);
}

Path ShardAggregator::path(Vertex s, Vertex t, const FaultSet& faults) {
  const size_t k = router_.shard_of(pi_->scheme_id(), s);
  const auto pin = pin_checked(k, s, t, faults.ids());
  queries_.fetch_add(1, std::memory_order_relaxed);
  return fetch_routed(k, {s, faults, Direction::kOut}, pin)->path_to(t);
}

int32_t ShardAggregator::replacement_distance(Vertex s, Vertex t, EdgeId e) {
  // Both fetches share one root, hence one shard and one pin: the base and
  // fault tree of a single query always read the same epoch.
  const size_t k = router_.shard_of(pi_->scheme_id(), s);
  const auto pin = pin_checked(k, s, t, {&e, 1});
  queries_.fetch_add(1, std::memory_order_relaxed);
  const SptHandle base = fetch_routed(k, {s, {}, Direction::kOut}, pin);
  if (!base->reachable(t)) return kUnreachable;
  // Stability fast path, as in OracleShard::replacement_distance: a fault
  // off the selected path leaves the distance unchanged.
  bool on_path = false;
  for (Vertex x = t; x != s; x = base->parent(x)) {
    if (base->parent_edge(x) == e) {
      on_path = true;
      break;
    }
  }
  if (!on_path) return base->hops(t);
  return fetch_routed(k, {s, FaultSet{e}, Direction::kOut}, pin)->hops(t);
}

UpdateResult ShardAggregator::apply_update(Graph& graph, GraphDelta delta) {
  return apply_updates(graph, std::span<const GraphDelta>(&delta, 1));
}

UpdateResult ShardAggregator::apply_updates(
    Graph& graph, std::span<const GraphDelta> deltas) {
  if (&graph != &pi_->graph())
    throw std::invalid_argument(
        "apply_updates: graph is not the served scheme's graph");
  // The mutator lock outlives the gate on purpose: it also covers the
  // repair phase below, which reads the live CSR after the gate reopens --
  // the next mutation must not land mid-repair.
  std::lock_guard<std::mutex> mutator(mutator_mu_);
  UpdateResult res;
  std::vector<UpdateResult> per_shard(shards_.size());
  std::vector<std::vector<SptCache::Invalidated>> deferred(shards_.size());
  {
    // Exclusive gate: ONE graph apply for the whole fleet, then every shard
    // absorbs the SAME batch + snapshot. No query can collect pins while
    // the fleet is mid-fan-out, so multi-shard queries see all-old or
    // all-new -- never a mix.
    std::unique_lock<std::shared_mutex> gate(fanout_mu_);
    res = UpdateResult::of(graph.apply(deltas));
    if (!res.changed) return res;
    const GraphSnapshot snap = graph.snapshot();
    for (size_t i = 0; i < shards_.size(); ++i)
      per_shard[i] = shards_[i]->absorb_update(res.batch, snap, &deferred[i]);
    // Every shard has advanced: the router unblocks the new epoch.
    routed_epoch_.store(res.new_epoch, std::memory_order_release);
  }
  fanouts_.fetch_add(1, std::memory_order_relaxed);
  // Repair/prewarm AFTER the fleet is coherent and queries flow again:
  // readers never wait on prewarming (they recompute cold keys on demand at
  // worst). Still under the mutator lock -- see above.
  for (size_t i = 0; i < shards_.size(); ++i)
    shards_[i]->repair_deferred(res.batch, deferred[i], per_shard[i]);
  for (const UpdateResult& r : per_shard) {
    res.carried += r.carried;
    res.invalidated += r.invalidated;
    res.purged_stale += r.purged_stale;
    res.prewarmed += r.prewarmed;
    res.repaired += r.repaired;
  }
  return res;
}

FrontEndStats ShardAggregator::stats() const {
  FrontEndStats s;
  s.queries = queries_.load(std::memory_order_relaxed);
  s.subqueries = subqueries_.load(std::memory_order_relaxed);
  s.submissions = submissions_.load(std::memory_order_relaxed);
  s.remote_hits = remote_hits_.load(std::memory_order_relaxed);
  s.aggregated = aggregated_.load(std::memory_order_relaxed);
  s.flush_capacity_trigger = flush_capacity_.load(std::memory_order_relaxed);
  s.flush_timeout_trigger = flush_timeout_.load(std::memory_order_relaxed);
  s.flush_explicit_trigger = flush_explicit_.load(std::memory_order_relaxed);
  s.fanouts = fanouts_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace restorable
