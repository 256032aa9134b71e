#include "serve/shard_aggregator.h"

#include <algorithm>
#include <string>
#include <utility>

namespace restorable {

ShardAggregator::ShardAggregator(const IRpts& pi, FrontEndConfig config)
    : pi_(&pi),
      config_(std::move(config)),
      router_(config_.num_shards),
      gens_(std::make_unique<GenerationManager>(
          Generation::of(pi, pi.graph().snapshot()))) {
  if (config_.total_engine_threads > 0) {
    const size_t per_shard =
        std::max<size_t>(1, config_.total_engine_threads / config_.num_shards);
    for (size_t i = 0; i < config_.num_shards; ++i)
      engines_.push_back(std::make_unique<BatchSsspEngine>(
          static_cast<int>(per_shard)));
  }
  metrics_ = config_.shard.metrics;
  if (!metrics_) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  for (size_t i = 0; i < config_.num_shards; ++i) {
    ServerConfig sc = config_.shard;
    sc.metrics = metrics_;
    if (!engines_.empty()) sc.engine = engines_[i].get();
    shards_.push_back(std::unique_ptr<OracleShard>(new OracleShard(
        pi, std::move(sc), gens_.get(), "shard" + std::to_string(i) + ".")));
  }
  register_providers();
}

ShardAggregator::~ShardAggregator() = default;

void ShardAggregator::register_providers() {
  registrations_.push_back(gens_->register_metrics(*metrics_, "generations"));
  registrations_.push_back(
      metrics_->add("frontend", [this](obs::ComponentBuilder& b) {
        b.counter("queries", queries_);
        b.counter("subqueries", subqueries_.load(std::memory_order_relaxed));
        b.counter("submissions",
                  submissions_.load(std::memory_order_relaxed));
        b.counter("remote_hits",
                  remote_hits_.load(std::memory_order_relaxed));
        b.counter("aggregated", aggregated_.load(std::memory_order_relaxed));
        b.counter("fanouts", fanouts_.load(std::memory_order_relaxed));
        b.gauge("shards", static_cast<int64_t>(shards_.size()));
        b.gauge("routed_epoch", static_cast<int64_t>(routed_epoch()));
      }));
}

// Point queries: the owning shard answers in full; the front-end only
// counts the call once it returned (a rejected input counts nowhere).

SptHandle ShardAggregator::tree(const SsspRequest& req) {
  SptHandle t = owner(req.root).tree(req);
  queries_.add();
  return t;
}

int32_t ShardAggregator::distance(Vertex s, Vertex t, const FaultSet& faults,
                                  const QueryOpts& opts) {
  const int32_t d = owner(s).distance(s, t, faults, opts);
  queries_.add();
  return d;
}

Path ShardAggregator::path(Vertex s, Vertex t, const FaultSet& faults) {
  Path p = owner(s).path(s, t, faults);
  queries_.add();
  return p;
}

int32_t ShardAggregator::replacement_distance(Vertex s, Vertex t, EdgeId e) {
  const int32_t d = owner(s).replacement_distance(s, t, e);
  queries_.add();
  return d;
}

std::vector<SptHandle> ShardAggregator::tree_batch(
    std::span<const SsspRequest> requests) {
  if (requests.empty()) {
    queries_.add();
    return {};
  }
  const ShardRouter::Plan plan =
      router_.decompose(pi_->scheme_id(), requests);
  // ONE pin for every shard: the fleet shares one manager, so the whole
  // multi-shard query reads one epoch, all-old or all-new.
  const GenerationManager::Pin pin = gens_->pin();
  for (const SsspRequest& req : requests)
    pin->check_query(req.root, req.root, req.faults.ids());
  queries_.add();
  subqueries_.fetch_add(requests.size(), std::memory_order_relaxed);
  // One submission per touched shard: a k-root query costs at most
  // min(k, shards) serve_batch calls.
  std::vector<SptHandle> out(requests.size());
  for (const size_t k : plan.touched) {
    submissions_.fetch_add(1, std::memory_order_relaxed);
    std::vector<FetchObs> obs;
    auto trees = shards_[k]->serve_batch(plan.by_shard[k], pin, &obs);
    for (size_t j = 0; j < trees.size(); ++j) {
      // The front-end half of the outcome taxonomy: a sub-query the owning
      // shard's cache resolved is a remote_hit; one the shard computed (or
      // joined a flight for) is aggregated. The shard's own classes
      // (miss_leader etc.) carry the compute decomposition.
      (obs[j].outcome == FetchObs::kHit ? remote_hits_ : aggregated_)
          .fetch_add(1, std::memory_order_relaxed);
      out[plan.origin[k][j]] = std::move(trees[j]);
    }
  }
  return out;
}

UpdateResult ShardAggregator::apply_update(Graph& graph, GraphDelta delta) {
  return apply_updates(graph, std::span<const GraphDelta>(&delta, 1));
}

UpdateResult ShardAggregator::apply_updates(
    Graph& graph, std::span<const GraphDelta> deltas) {
  std::vector<OracleShard*> fleet;
  for (const auto& shard : shards_) fleet.push_back(shard.get());
  std::lock_guard<std::mutex> mutator(mutator_mu_);
  UpdateResult res = OracleShard::run_update(fleet, *gens_, graph, deltas);
  if (res.changed) fanouts_.fetch_add(1, std::memory_order_relaxed);
  return res;
}

FrontEndStats ShardAggregator::stats() const {
  FrontEndStats s;
  s.queries = queries_.value();
  s.subqueries = subqueries_.load(std::memory_order_relaxed);
  s.submissions = submissions_.load(std::memory_order_relaxed);
  s.remote_hits = remote_hits_.load(std::memory_order_relaxed);
  s.aggregated = aggregated_.load(std::memory_order_relaxed);
  s.fanouts = fanouts_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_)
    s.stability_fast_paths += shard->stability_fast_paths();
  return s;
}

}  // namespace restorable
