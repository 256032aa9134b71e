#include "serve/oracle_shard.h"

#include <cmath>
#include <mutex>
#include <stdexcept>

#include "util/timing.h"

namespace restorable {

const char* fetch_outcome_name(FetchOutcome o) {
  switch (o) {
    case FetchOutcome::kBaseHit:
      return "base_hit";
    case FetchOutcome::kFaultHit:
      return "fault_hit";
    case FetchOutcome::kMissCoalesced:
      return "miss_coalesced";
    case FetchOutcome::kMissLeader:
      return "miss_leader";
    case FetchOutcome::kApproxHit:
      return "approx_hit";
    case FetchOutcome::kEscalated:
      return "escalated";
    case FetchOutcome::kRemoteHit:
      return "remote_hit";
    case FetchOutcome::kAggregated:
      return "aggregated";
  }
  return "?";
}

namespace {
const char* escalation_reason_name(EscalationReason r) {
  switch (r) {
    case EscalationReason::kPath:
      return "path";
    case EscalationReason::kExplicit:
      return "explicit";
    case EscalationReason::kStretchRecheck:
      return "stretch_recheck";
  }
  return "?";
}

// The constructor's config check: a repair ceiling must be a finite,
// non-negative fraction, and the default epsilon a non-negative number (a
// huge one is clamped by quantize_epsilon).
ServerConfig validated(ServerConfig config) {
  if (!std::isfinite(config.repair_fraction) || config.repair_fraction < 0.0)
    throw std::invalid_argument(
        "ServerConfig::repair_fraction must be finite and >= 0");
  if (std::isnan(config.default_epsilon) || config.default_epsilon < 0.0)
    throw std::invalid_argument(
        "ServerConfig::default_epsilon must be a number >= 0");
  return config;
}
}  // namespace

UpdateResult UpdateResult::of(DeltaBatch batch) {
  UpdateResult res;
  res.batch = std::move(batch);
  if (!res.batch.deltas.empty()) res.delta = res.batch.deltas.front();
  res.old_epoch = res.batch.old_epoch;
  res.new_epoch = res.batch.new_epoch;
  res.changed = res.batch.changed();
  return res;
}

OracleShard::OracleShard(const IRpts& pi, ServerConfig config)
    : pi_(&pi),
      config_(validated(std::move(config))),
      // Generation 0: the current topology.
      gens_(std::make_unique<GenerationManager>(
          Generation::of(pi, pi.graph().snapshot()))) {
  if (config_.enable_cache)
    cache_ = std::make_unique<SptCache>(config_.cache);
  if (config_.enable_coalescing)
    batcher_ = std::make_unique<CoalescingBatcher>(
        cache_.get(), config_.engine, config_.max_batch);
  metrics_ = config_.metrics;
  if (!metrics_) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  tracer_ = config_.tracer;
  register_providers();
}

std::string OracleShard::comp(const char* name) const {
  return config_.metrics_prefix + name;
}

void OracleShard::register_providers() {
  registrations_.push_back(
      metrics_->add(comp("server"), [this](obs::ComponentBuilder& b) {
        b.counter("queries", queries_);
        b.counter("updates", updates_.load(std::memory_order_relaxed));
        b.counter("stability_fast_paths", stability_hits_);
        b.counter("bytes_direct",
                  direct_bytes_.load(std::memory_order_relaxed));
        for (size_t i = 0; i < kNumFetchOutcomes; ++i) {
          const std::string cls =
              fetch_outcome_name(static_cast<FetchOutcome>(i));
          const ClassMetrics& m = class_metrics_[i];
          b.counter(cls + ".fetches", m.fetches);
          b.counter(cls + ".queue_wait_ns", m.queue_wait_ns);
          b.counter(cls + ".coalesce_wait_ns", m.coalesce_wait_ns);
          b.counter(cls + ".compute_ns", m.compute_ns);
          b.histogram(cls + ".latency_ns", m.latency_ns);
        }
        b.histogram("query.latency_ns", query_latency_ns_);
        // Approximate tier: why queries escalated, and the observed stretch
        // of sampled approximate answers (excess over exact, ppm).
        b.counter("escalations_total", escalations_total_);
        for (size_t i = 0; i < kNumEscalationReasons; ++i)
          b.counter(std::string("escalations.") +
                        escalation_reason_name(
                            static_cast<EscalationReason>(i)),
                    escalations_by_reason_[i]);
        b.histogram("stretch.excess_ppm", stretch_excess_ppm_);
        b.gauge("stretch.max_excess_ppm",
                static_cast<int64_t>(
                    max_stretch_excess_ppm_.load(std::memory_order_relaxed)));
        b.counter("update.apply_ns", apply_ns_);
        b.counter("update.repair_ns", repair_ns_);
        b.counter("update.repaired", repaired_);
        b.counter("update.recomputed", recomputed_);
      }));
  if (cache_) {
    registrations_.push_back(
        metrics_->add(comp("cache"), [this](obs::ComponentBuilder& b) {
          const SptCache::Stats s = cache_->stats();
          b.counter("hits", s.hits);
          b.counter("misses", s.misses);
          b.counter("inserts", s.inserts);
          b.counter("evictions", s.evictions);
          b.counter("carried_forward", s.carried_forward);
          b.counter("invalidated", s.invalidated);
          b.counter("purged_stale", s.purged_stale);
          b.counter("rejected_stale", s.rejected_stale);
          b.counter("base_hits", s.base_hits);
          b.counter("base_misses", s.base_misses);
          b.gauge("entries", static_cast<int64_t>(s.entries));
          b.gauge("bytes", static_cast<int64_t>(s.bytes));
          b.gauge("sum_shard_peak_bytes",
                  static_cast<int64_t>(s.sum_shard_peak_bytes));
          b.gauge("protected_entries",
                  static_cast<int64_t>(s.protected_entries));
          b.gauge("protected_bytes",
                  static_cast<int64_t>(s.protected_bytes));
        }));
  }
  if (batcher_) {
    registrations_.push_back(
        metrics_->add(comp("batcher"), [this](obs::ComponentBuilder& b) {
          const CoalescingBatcher::Stats s = batcher_->stats();
          b.counter("requests", s.requests);
          b.counter("coalesced", s.coalesced);
          b.counter("computed", s.computed);
          b.counter("computed_bytes", s.computed_bytes);
          b.counter("flushes", s.flushes);
          b.gauge("max_batch", static_cast<int64_t>(s.max_batch));
          b.gauge("max_queue_depth",
                  static_cast<int64_t>(s.max_queue_depth));
          b.histogram("batch_size",
                      std::span<const uint64_t>(
                          s.batch_hist, CoalescingBatcher::kHistBuckets),
                      s.batch_hist_sum);
        }));
  }
  registrations_.push_back(
      metrics_->add(comp("generations"), [this](obs::ComponentBuilder& b) {
        const GenerationManager::Stats s = gens_->stats();
        b.counter("published", s.published);
        b.counter("retired", s.retired);
        b.counter("publish_waits", s.publish_waits);
        b.counter("publish_wait_ns", s.publish_wait_ns);
        b.gauge("live", static_cast<int64_t>(s.live));
        b.gauge("pins_now", static_cast<int64_t>(s.pins_now));
      }));
  registrations_.push_back(
      metrics_->add(comp("engine"), [this](obs::ComponentBuilder& b) {
        // NOTE: with no configured engine this reads the process-wide
        // shared() engine -- totals cover every consumer in the process.
        const BatchSsspEngine::Stats s =
            BatchSsspEngine::or_shared(config_.engine).stats();
        b.counter("batches", s.batches);
        b.counter("requests", s.requests);
      }));
}

SptHandle OracleShard::fetch_tree(const SsspRequest& req,
                                  const GenerationManager::Pin& pin,
                                  FetchObs* obs) {
  if (batcher_) return batcher_->get(req, pin, obs);
  const SptKey key(pin->version(), req);
  if (cache_) {
    if (auto t = cache_->lookup(key)) return t;  // obs->outcome stays kHit
  }
  // Direct compute: this caller does the work itself, the closest analogue
  // of a batcher leader.
  if (obs) obs->outcome = FetchObs::kLeader;
  const uint64_t c0 = obs::now_ns();
  SptHandle t;
  if (req.eps_q) {
    // The virtual spt() has no epsilon parameter; the batch interface is the
    // epsilon-aware entry point (Rpts routes it through the engine's epsilon
    // mode). A scheme whose spt_batch ignores eps_q returns exact trees
    // under the approximate key -- sound, just stretch-free.
    t = pin->scheme->spt_batch(std::span<const SsspRequest>(&req, 1),
                               config_.engine, nullptr)[0];
  } else {
    t = std::make_shared<const Spt>(
        pin->scheme->spt(req.root, req.faults, req.dir));
  }
  if (obs) obs->compute_ns = obs::now_ns() - c0;
  direct_bytes_.fetch_add(t->memory_bytes(), std::memory_order_relaxed);
  if (cache_) {
    // A straggler pinned to a just-retired epoch may reach here after the
    // mutator advanced the cache; the stale-epoch rejection inside insert
    // (serve/spt_cache.h) is the publish-side guard that keeps its tree
    // out of the store without costing it the answer.
    if (auto resident = cache_->insert(key, t)) return resident;
  }
  return t;
}

namespace {
// RAII scope timer into an obs::Counter (compiles out with obs::now_ns()).
class CounterTimer {
 public:
  explicit CounterTimer(obs::Counter* c) : c_(c), t0_(obs::now_ns()) {}
  CounterTimer(const CounterTimer&) = delete;
  CounterTimer& operator=(const CounterTimer&) = delete;
  ~CounterTimer() { c_->add(obs::now_ns() - t0_); }

 private:
  obs::Counter* c_;
  uint64_t t0_;
};
}  // namespace

OracleShard::QueryCtx OracleShard::begin_query(const char* kind) {
  QueryCtx ctx;
  if constexpr (!obs::kEnabled) return ctx;
  ctx.t0 = obs::now_ns();
  if (tracer_) {
    ctx.trace = tracer_->maybe_start();
    if (ctx.trace) {
      ctx.root_span = ctx.trace->begin("query");
      ctx.trace->attr(ctx.root_span, "kind", std::string(kind));
    }
  }
  return ctx;
}

void OracleShard::end_query(QueryCtx& ctx) {
  if constexpr (!obs::kEnabled) return;
  query_latency_ns_.record(obs::now_ns() - ctx.t0);
  if (ctx.trace) {
    ctx.trace->end(ctx.root_span);
    tracer_->finish(std::move(ctx.trace));
  }
}

FetchOutcome OracleShard::classify_fetch(const SsspRequest& req,
                                         const FetchObs& fo, bool escalated) {
  // Class precedence: escalated fetches are attributed to the escalation
  // tier whatever their hit/miss fate; approximate-tier cache hits get their
  // own class (misses keep the miss classes -- they reflect compute cost,
  // and the batcher decomposition applies to them unchanged).
  return escalated
             ? FetchOutcome::kEscalated
             : (fo.outcome == FetchObs::kHit
                    ? (req.eps_q ? FetchOutcome::kApproxHit
                                 : (req.faults.empty()
                                        ? FetchOutcome::kBaseHit
                                        : FetchOutcome::kFaultHit))
                    : (fo.outcome == FetchObs::kLeader
                           ? FetchOutcome::kMissLeader
                           : FetchOutcome::kMissCoalesced));
}

void OracleShard::book_fetch(FetchOutcome outcome, const SsspRequest& req,
                             const FetchObs& fo, uint64_t f0, uint64_t dur,
                             QueryCtx* ctx) {
  ClassMetrics& m = class_metrics_[static_cast<size_t>(outcome)];
  m.fetches.add();
  m.latency_ns.record(dur);
  // Decomposition (zero for hits). compute_ns on kMissCoalesced is
  // attribution -- the flight's leader paid it; the coalesced caller's own
  // cost is the wait beyond queued compute, floored at 0 below.
  if (fo.queue_wait_ns) m.queue_wait_ns.add(fo.queue_wait_ns);
  if (fo.compute_ns) m.compute_ns.add(fo.compute_ns);
  // Keyed off the RAW outcome so an escalated coalesced fetch still books
  // its wait into the escalated class's decomposition.
  const uint64_t coalesce_wait =
      fo.outcome == FetchObs::kCoalesced && fo.wait_ns > fo.compute_ns
          ? fo.wait_ns - fo.compute_ns
          : 0;
  if (coalesce_wait) m.coalesce_wait_ns.add(coalesce_wait);

  if (ctx && ctx->trace) {
    const int32_t f = ctx->trace->add("fetch", ctx->root_span, f0, dur);
    ctx->trace->attr(f, "outcome", std::string(fetch_outcome_name(outcome)));
    ctx->trace->attr(f, "root", static_cast<uint64_t>(req.root));
    ctx->trace->attr(f, "faults", static_cast<uint64_t>(req.faults.size()));
    if (req.eps_q)
      ctx->trace->attr(f, "eps_q", static_cast<uint64_t>(req.eps_q));
    if (fo.outcome != FetchObs::kHit) {
      // Child spans synthesized from the decomposition durations: start
      // offsets are approximations (queue wait begins at enroll ~ f0; the
      // compute follows it), documented as such in docs/OBSERVABILITY.md.
      if (fo.queue_wait_ns)
        ctx->trace->add("queue_wait", f, f0, fo.queue_wait_ns);
      if (fo.compute_ns)
        ctx->trace->add("compute", f, f0 + fo.queue_wait_ns, fo.compute_ns);
      if (coalesce_wait)
        ctx->trace->add("coalesce_wait", f, f0 + fo.queue_wait_ns,
                        coalesce_wait);
    }
  }
}

SptHandle OracleShard::fetch_classified(const SsspRequest& req,
                                        const GenerationManager::Pin& pin,
                                        QueryCtx& ctx, bool escalated) {
  FetchObs fo;
  const uint64_t f0 = obs::now_ns();
  SptHandle tree = fetch_tree(req, pin, &fo);
  if constexpr (!obs::kEnabled) return tree;
  const uint64_t dur = obs::now_ns() - f0;
  book_fetch(classify_fetch(req, fo, escalated), req, fo, f0, dur, &ctx);
  return tree;
}

std::vector<SptHandle> OracleShard::serve_batch(
    std::span<const SsspRequest> requests, const GenerationManager::Pin& pin,
    std::vector<FetchObs>* obs) {
  for (const SsspRequest& req : requests)
    pin->check_query(req.root, req.root, req.faults.ids());
  queries_.add(requests.size());
  std::vector<FetchObs> local_obs;
  std::vector<FetchObs>& fos = obs ? *obs : local_obs;
  fos.assign(requests.size(), FetchObs{});
  const uint64_t f0 = obs::now_ns();
  std::vector<SptHandle> out;
  if (batcher_) {
    out = batcher_->get_batch(requests, pin, &fos);
  } else {
    out.resize(requests.size());
    // No batcher: fall back to per-request fetches (no coalescing to lose).
    for (size_t i = 0; i < requests.size(); ++i)
      out[i] = fetch_tree(requests[i], pin, &fos[i]);
  }
  if constexpr (obs::kEnabled) {
    // The whole batch's wall time is every element's latency sample: an
    // aggregated submission's per-element cost IS the batch it rode.
    const uint64_t dur = obs::now_ns() - f0;
    for (size_t i = 0; i < requests.size(); ++i) {
      book_fetch(classify_fetch(requests[i], fos[i], /*escalated=*/false),
                 requests[i], fos[i], f0, dur, nullptr);
      query_latency_ns_.record(dur);
    }
  }
  return out;
}

uint32_t OracleShard::effective_eps_q(const QueryOpts& opts) const {
  if (opts.require_exact) return 0;
  return opts.epsilon < 0.0 ? quantize_epsilon(config_.default_epsilon)
                            : quantize_epsilon(opts.epsilon);
}

void OracleShard::note_escalation(EscalationReason reason) {
  escalations_total_.add();
  escalations_by_reason_[static_cast<size_t>(reason)].add();
}

bool OracleShard::stretch_probe_fires() {
  const uint32_t every = config_.stretch_sample_every;
  if (every == 0) return false;
  // This thread's countdown; a load and a store, not an RMW. Threads that
  // share a cell (more than kThreadCells of them) may lose a step to a
  // race, which only stretches that cell's interval a little.
  std::atomic<uint32_t>& left =
      stretch_probe_[obs::detail::thread_shard()].left;
  const uint32_t n = left.load(std::memory_order_relaxed);
  left.store(n == 0 ? every - 1 : n - 1, std::memory_order_relaxed);
  return n == 0;
}

void OracleShard::record_stretch(int32_t exact_hops, int32_t approx_hops) {
  // Reachability is preserved exactly by the relaxed tier (invariant F in
  // core/rpts.h), so both sides are finite or both are kUnreachable; the
  // latter is a perfect answer (excess 0).
  uint64_t excess_ppm = 0;
  if (exact_hops != kUnreachable && exact_hops > 0 &&
      approx_hops > exact_hops) {
    excess_ppm = static_cast<uint64_t>(approx_hops - exact_hops) * 1000000u /
                 static_cast<uint64_t>(exact_hops);
  }
  stretch_excess_ppm_.record(excess_ppm);
  uint64_t prev = max_stretch_excess_ppm_.load(std::memory_order_relaxed);
  while (prev < excess_ppm &&
         !max_stretch_excess_ppm_.compare_exchange_weak(
             prev, excess_ppm, std::memory_order_relaxed)) {
  }
}

SptHandle OracleShard::tree(const SsspRequest& req) {
  const GenerationManager::Pin pin = gens_->pin();
  pin->check_query(req.root, req.root, req.faults.ids());
  QueryCtx ctx = begin_query("tree");
  SptHandle t = fetch_classified(req, pin, ctx);
  end_query(ctx);
  return t;
}

uint64_t OracleShard::bytes_materialized() const {
  uint64_t total = direct_bytes_.load(std::memory_order_relaxed);
  if (batcher_) total += batcher_->stats().computed_bytes;
  return total;
}

ServerStats OracleShard::stats() const {
  // ONE snapshot pass: every component's values are sampled within the same
  // window, so composites (bytes_materialized, the class sums) can never be
  // torn across two calls made at different times.
  const obs::MetricsSnapshot snap = metrics_->snapshot();
  ServerStats s;
  const std::string server = comp("server");
  const std::string batcher = comp("batcher");
  s.queries = static_cast<uint64_t>(snap.value_or(server, "queries"));
  s.updates = static_cast<uint64_t>(snap.value_or(server, "updates"));
  s.stability_fast_paths =
      static_cast<uint64_t>(snap.value_or(server, "stability_fast_paths"));
  s.bytes_materialized =
      static_cast<uint64_t>(snap.value_or(server, "bytes_direct")) +
      static_cast<uint64_t>(snap.value_or(batcher, "computed_bytes"));
  uint64_t* counts[kNumFetchOutcomes] = {
      &s.base_hit,   &s.fault_hit, &s.miss_coalesced, &s.miss_leader,
      &s.approx_hit, &s.escalated, &s.remote_hit,     &s.aggregated};
  for (size_t i = 0; i < kNumFetchOutcomes; ++i) {
    const std::string cls = fetch_outcome_name(static_cast<FetchOutcome>(i));
    *counts[i] =
        static_cast<uint64_t>(snap.value_or(server, cls + ".fetches"));
    s.queue_wait_ns += static_cast<uint64_t>(
        snap.value_or(server, cls + ".queue_wait_ns"));
    s.coalesce_wait_ns += static_cast<uint64_t>(
        snap.value_or(server, cls + ".coalesce_wait_ns"));
    s.compute_ns +=
        static_cast<uint64_t>(snap.value_or(server, cls + ".compute_ns"));
  }
  s.escalations_total =
      static_cast<uint64_t>(snap.value_or(server, "escalations_total"));
  s.escalations_path =
      static_cast<uint64_t>(snap.value_or(server, "escalations.path"));
  s.escalations_explicit =
      static_cast<uint64_t>(snap.value_or(server, "escalations.explicit"));
  s.escalations_stretch_recheck = static_cast<uint64_t>(
      snap.value_or(server, "escalations.stretch_recheck"));
  // A histogram row's `value` is its sample count (obs/metrics.h).
  s.stretch_samples =
      static_cast<uint64_t>(snap.value_or(server, "stretch.excess_ppm"));
  s.max_stretch_excess_ppm = static_cast<uint64_t>(
      snap.value_or(server, "stretch.max_excess_ppm"));
  s.repair_ns =
      static_cast<uint64_t>(snap.value_or(server, "update.repair_ns"));
  s.repaired =
      static_cast<uint64_t>(snap.value_or(server, "update.repaired"));
  s.recomputed =
      static_cast<uint64_t>(snap.value_or(server, "update.recomputed"));
  return s;
}

int32_t OracleShard::distance(Vertex s, Vertex t, const FaultSet& faults,
                              const QueryOpts& opts) {
  // A NaN epsilon would quantize to the exact tier; reject it instead.
  if (std::isnan(opts.epsilon))
    throw std::invalid_argument("QueryOpts::epsilon is NaN");
  // One pin across every fetch this query performs: an approximate answer
  // and its exact re-check always read the same epoch.
  const GenerationManager::Pin pin = gens_->pin();
  pin->check_query(s, t, faults.ids());
  queries_.add();
  QueryCtx ctx = begin_query("distance");
  const uint32_t eps_q = effective_eps_q(opts);
  // require_exact against an approximate-tier default is an explicit
  // escalation; a genuinely exact server never counts one.
  const bool explicit_escalation =
      opts.require_exact &&
      (opts.epsilon < 0.0 ? quantize_epsilon(config_.default_epsilon)
                          : quantize_epsilon(opts.epsilon)) > 0;

  int32_t ans;
  if (eps_q == 0) {
    if (explicit_escalation) note_escalation(EscalationReason::kExplicit);
    ans = fetch_classified({s, faults, Direction::kOut}, pin, ctx,
                           explicit_escalation)
              ->hops(t);
  } else {
    ans = fetch_classified({s, faults, Direction::kOut, eps_q}, pin, ctx)
              ->hops(t);
    if (stretch_probe_fires()) {
      // Sampled exact re-check: escalate, record the observed excess, and
      // return the exact answer (the caller gets a strictly better result
      // for the monitoring it funded).
      note_escalation(EscalationReason::kStretchRecheck);
      const int32_t exact =
          fetch_classified({s, faults, Direction::kOut}, pin, ctx, true)
              ->hops(t);
      record_stretch(exact, ans);
      ans = exact;
    }
  }
  end_query(ctx);
  return ans;
}

Path OracleShard::path(Vertex s, Vertex t, const FaultSet& faults) {
  const GenerationManager::Pin pin = gens_->pin();
  pin->check_query(s, t, faults.ids());
  queries_.add();
  QueryCtx ctx = begin_query("path");
  // Path reconstruction always runs on the exact tier: on an
  // approximate-tier server that is an escalation (reason `path`).
  const bool escalated = quantize_epsilon(config_.default_epsilon) > 0;
  if (escalated) note_escalation(EscalationReason::kPath);
  Path p = fetch_classified({s, faults, Direction::kOut}, pin, ctx, escalated)
               ->path_to(t);
  end_query(ctx);
  return p;
}

int32_t OracleShard::replacement_distance(Vertex s, Vertex t, EdgeId e) {
  // One pin across both fetches: the base tree and the fault tree of a
  // single query always belong to the same epoch.
  const GenerationManager::Pin pin = gens_->pin();
  pin->check_query(s, t, {&e, 1});
  queries_.add();
  QueryCtx ctx = begin_query("replacement_distance");
  // The stability fast path walks an exact parent chain, and the fault tree
  // must be exact for the selected-path test to mean anything: replacement
  // queries always escalate on an approximate-tier server.
  const bool escalated = quantize_epsilon(config_.default_epsilon) > 0;
  if (escalated) note_escalation(EscalationReason::kPath);
  auto fetch = [&](const SsspRequest& req) {
    return fetch_classified(req, pin, ctx, escalated);
  };
  auto finish = [&](int32_t ans) {
    end_query(ctx);
    return ans;
  };
  const auto base = fetch({s, {}, Direction::kOut});
  if (!base->reachable(t)) {
    // t unreachable even fault-free; removing e cannot help.
    return finish(kUnreachable);
  }
  // Stability (Definition 13): a fault off the selected path leaves the
  // selection -- hence the distance -- unchanged. Walking the O(d) parent
  // chain beats building the fault tree whenever the path avoids e.
  bool on_path = false;
  for (Vertex x = t; x != s; x = base->parent(x)) {
    if (base->parent_edge(x) == e) {
      on_path = true;
      break;
    }
  }
  if (!on_path) {
    stability_hits_.add();
    return finish(base->hops(t));
  }
  return finish(fetch({s, FaultSet{e}, Direction::kOut})->hops(t));
}

UpdateResult OracleShard::apply_update(Graph& graph, GraphDelta delta) {
  return apply_updates(graph, std::span<const GraphDelta>(&delta, 1));
}

void OracleShard::repair_invalidated(
    const DeltaBatch& batch, std::vector<SptCache::Invalidated>& invalidated,
    UpdateResult& res) {
  if (invalidated.empty() || !cache_) return;
  CounterTimer repair_timer(&repair_ns_);
  const BatchSsspEngine& eng = BatchSsspEngine::or_shared(config_.engine);
  std::vector<RepairOutcome> outcomes(invalidated.size());
  eng.parallel_for(invalidated.size(), [&](size_t i) {
    const SptCache::Invalidated& inv = invalidated[i];
    outcomes[i] = pi_->repair_tree(*inv.old_tree, batch, inv.key.fault_set(),
                                   config_.repair_fraction, inv.key.eps_q);
  });
  for (size_t i = 0; i < invalidated.size(); ++i) {
    auto tree = std::make_shared<const Spt>(std::move(outcomes[i].tree));
    direct_bytes_.fetch_add(tree->memory_bytes(),
                            std::memory_order_relaxed);
    // Count only entries actually re-populated: a null return means the
    // cache refused the entry (budget) -- queries will recompute it on
    // demand, so claiming it pre-warmed would overstate readiness.
    if (cache_->insert(invalidated[i].key, std::move(tree))) {
      ++res.prewarmed;
      if (outcomes[i].repaired) {
        ++res.repaired;
        repaired_.add();
      } else {
        recomputed_.add();
      }
    }
  }
}

UpdateResult OracleShard::apply_updates(Graph& graph,
                                        std::span<const GraphDelta> deltas) {
  if (&graph != &pi_->graph())
    throw std::invalid_argument(
        "apply_updates: graph is not the served scheme's graph");
  // Build-publish-retire. Everything here runs under the mutator mutex and
  // NEVER blocks a query: readers compute on pinned generations, and the
  // live graph -- which this function mutates and the repair batch reads --
  // is touched by nobody else. publish() in absorb_locked is the only
  // ordering point readers observe.
  std::lock_guard<std::mutex> mutator(mutator_mu_);
  CounterTimer apply_timer(&apply_ns_);
  UpdateResult res = UpdateResult::of(graph.apply(deltas));
  if (res.changed) absorb_locked(res, graph.snapshot(), nullptr);
  return res;
}

UpdateResult OracleShard::absorb_update(
    const DeltaBatch& batch, const GraphSnapshot& snap,
    std::vector<SptCache::Invalidated>* deferred) {
  std::lock_guard<std::mutex> mutator(mutator_mu_);
  CounterTimer apply_timer(&apply_ns_);
  UpdateResult res = UpdateResult::of(batch);
  if (res.changed) absorb_locked(res, snap, deferred);
  return res;
}

void OracleShard::absorb_locked(
    UpdateResult& res, GraphSnapshot snap,
    std::vector<SptCache::Invalidated>* deferred) {
  updates_.fetch_add(1, std::memory_order_relaxed);

  // Build the next generation off to the side while readers keep serving
  // the published one.
  auto next = Generation::of(*pi_, std::move(snap));

  SptCache::AdvanceStats adv;
  std::vector<SptCache::Invalidated> invalidated;
  if (cache_) {
    // Shadow-advance the cache BEFORE publishing: survivors are rekeyed to
    // the new epoch (readers pinned to the old generation miss and
    // recompute -- correct, just cold), and the per-shard latest-epoch
    // watermark is armed so a straggler publishing an old-epoch tree after
    // this point is rejected (rejected_stale) instead of poisoning the
    // store -- the publish-side guard of the RCU path. ONE walk for the
    // whole burst, judged against the batch's net effect: a flap healed
    // within the batch has no net delta and every tree survives it.
    adv = cache_->advance_epoch(
        pi_->scheme_id(), res.old_epoch, res.new_epoch,
        [&](const SptKey& key, const Spt& tree) {
          // Approximate-tier entries survive under the epsilon-slack test
          // (invariant F, core/rpts.h) -- measurably more of them carry
          // forward than exact entries under the same churn.
          return pi_->batch_survives(res.batch, tree, key.fault_set(),
                                     key.eps_q);
        },
        config_.prewarm_on_update ? &invalidated : nullptr);
  }

  // The swap: queries that pin after this point see the new topology.
  gens_->publish(std::move(next));
  res.carried = adv.carried;
  res.invalidated = adv.invalidated;
  res.purged_stale = adv.purged_stale;

  if (deferred) {
    // Epoch-coherent fan-out: hand the non-survivors back so the caller can
    // publish EVERY shard before ANY shard's repair batch runs.
    *deferred = std::move(invalidated);
    return;
  }
  // Repair the non-survivors at the new epoch as ONE engine batch --
  // incrementally where the affected region is small, from scratch
  // otherwise, bit-identical either way -- with no guard at all: the
  // mutator mutex already excludes the only other writer of the live CSR,
  // and readers never dereference it.
  repair_invalidated(res.batch, invalidated, res);
}

void OracleShard::repair_deferred(
    const DeltaBatch& batch, std::vector<SptCache::Invalidated>& invalidated,
    UpdateResult& res) {
  std::lock_guard<std::mutex> mutator(mutator_mu_);
  repair_invalidated(batch, invalidated, res);
}

}  // namespace restorable
