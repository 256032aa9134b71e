#include "serve/shard_aggregator.h"

#include <algorithm>
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
        b.counter("fanouts", fanouts_.load(std::memory_order_relaxed));
        b.counter("stability_fast_paths", stability_hits_);
        b.gauge("shards", static_cast<int64_t>(shards_.size()));
        b.gauge("routed_epoch",
                static_cast<int64_t>(
                    routed_epoch_.load(std::memory_order_relaxed)));
      }));
}

void ShardAggregator::book_subquery(const FetchObs& fo) {
  // The front-end half of the outcome taxonomy: a routed sub-query that the
  // owning shard's cache resolved is a remote_hit; one the shard computed
  // (or joined a flight for) shows up as aggregated. The shard's own
  // classes (miss_leader etc.) carry the compute decomposition.
  if (fo.outcome == FetchObs::kHit)
    remote_hits_.fetch_add(1, std::memory_order_relaxed);
  else
    aggregated_.fetch_add(1, std::memory_order_relaxed);
}

SptHandle ShardAggregator::fetch_routed(size_t k, const SsspRequest& req,
                                        const GenerationManager::Pin& pin) {
  subqueries_.fetch_add(1, std::memory_order_relaxed);
  submissions_.fetch_add(1, std::memory_order_relaxed);
  std::vector<FetchObs> obs;
  auto out = shards_[k]->serve_batch(std::span<const SsspRequest>(&req, 1),
                                     pin, &obs);
  book_subquery(obs[0]);
  return std::move(out[0]);
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
  // One submission per touched shard: a k-root query costs at most
  // min(k, shards) serve_batch calls.
  std::vector<SptHandle> out(requests.size());
  for (const size_t k : plan.touched) {
    submissions_.fetch_add(1, std::memory_order_relaxed);
    std::vector<FetchObs> obs;
    auto trees = shards_[k]->serve_batch(plan.by_shard[k], pins[k], &obs);
    for (size_t j = 0; j < trees.size(); ++j) {
      book_subquery(obs[j]);
      out[plan.origin[k][j]] = std::move(trees[j]);
    }
  }
  return out;
}

int32_t ShardAggregator::distance(Vertex s, Vertex t,
                                  const FaultSet& faults) {
  // Both fetches share one root, hence one shard and one pin: the base and
  // fault tree of a single query always read the same epoch.
  const size_t k = router_.shard_of(pi_->scheme_id(), s);
  const auto pin = pin_checked(k, s, t, faults.ids());
  queries_.fetch_add(1, std::memory_order_relaxed);
  // The front-end serves the exact tier; the approximate tier stays a
  // per-shard concern (ServerConfig::default_epsilon on direct shard use).
  const SptHandle base = fetch_routed(k, {s, {}, Direction::kOut}, pin);
  if (faults.empty()) return base->hops(t);
  // Stability fast path (Spt::path_avoids), as in OracleShard.
  if (base->path_avoids(t, faults)) {
    stability_hits_.add();
    return base->hops(t);
  }
  return fetch_routed(k, {s, faults, Direction::kOut}, pin)->hops(t);
}

Path ShardAggregator::path(Vertex s, Vertex t, const FaultSet& faults) {
  const size_t k = router_.shard_of(pi_->scheme_id(), s);
  const auto pin = pin_checked(k, s, t, faults.ids());
  queries_.fetch_add(1, std::memory_order_relaxed);
  return fetch_routed(k, {s, faults, Direction::kOut}, pin)->path_to(t);
}

int32_t ShardAggregator::replacement_distance(Vertex s, Vertex t, EdgeId e) {
  return distance(s, t, FaultSet{e});
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
  s.fanouts = fanouts_.load(std::memory_order_relaxed);
  s.stability_fast_paths = stability_hits_.value();
  return s;
}

}  // namespace restorable
