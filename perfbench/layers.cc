#include "layers.h"

#include <map>
#include <string_view>

#include "serve/generation.h"
#include "serve/spt_cache.h"

namespace perfbench {

namespace {

bool is_component(std::string_view comp, std::string_view name) {
  return comp == name ||
         (comp.size() > name.size() &&
          comp.substr(comp.size() - name.size()) == name &&
          comp[comp.size() - name.size() - 1] == '.');
}

// Sum of `metric` over every component named `name` (any shard prefix).
double sum_of(const obs::MetricsSnapshot& s, std::string_view name,
              std::string_view metric) {
  double total = 0;
  for (const auto& c : s.components) {
    if (!is_component(c.component, name)) continue;
    for (const auto& m : c.metrics)
      if (m.name == metric) total += static_cast<double>(m.value);
  }
  return total;
}

// Sum over every metric of `name` components whose name ends in `suffix`.
double sum_suffix(const obs::MetricsSnapshot& s, std::string_view name,
                  std::string_view suffix) {
  double total = 0;
  for (const auto& c : s.components) {
    if (!is_component(c.component, name)) continue;
    for (const auto& m : c.metrics)
      if (m.name.size() >= suffix.size() &&
          std::string_view(m.name).substr(m.name.size() - suffix.size()) ==
              suffix)
        total += static_cast<double>(m.value);
  }
  return total;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

template <typename F>
double ms_of(F&& f) {
  const uint64_t t0 = now_ns();
  f();
  return static_cast<double>(now_ns() - t0) * 1e-6;
}

}  // namespace

LayerCounters counters_from(const obs::MetricsSnapshot& before,
                            const obs::MetricsSnapshot& after,
                            const obs::MetricsSnapshot& end) {
  LayerCounters c;
  auto delta = [&](std::string_view comp, std::string_view metric) {
    return sum_of(after, comp, metric) - sum_of(before, comp, metric);
  };
  const double hits = delta("cache", "hits"), misses = delta("cache", "misses");
  c.hit_rate = ratio(hits, hits + misses);
  c.coalesced_frac =
      ratio(delta("batcher", "coalesced"), delta("batcher", "requests"));
  c.bytes_per_tree =
      ratio(sum_of(end, "cache", "bytes"), sum_of(end, "cache", "entries"));
  const double carried = sum_of(end, "cache", "carried_forward");
  c.carried_frac =
      ratio(carried, carried + sum_of(end, "cache", "invalidated"));
  const double misses_all = sum_of(end, "server", "miss_leader.fetches") +
                            sum_of(end, "server", "miss_coalesced.fetches");
  c.queue_wait_us =
      ratio(sum_suffix(end, "server", ".queue_wait_ns"), misses_all) * 1e-3;
  c.submissions_per_subquery = ratio(sum_of(end, "frontend", "submissions"),
                                     sum_of(end, "frontend", "subqueries"));
  c.timeout_flush_frac = ratio(sum_of(end, "frontend", "flush.timeout"),
                               sum_of(end, "frontend", "flush.capacity") +
                                   sum_of(end, "frontend", "flush.timeout") +
                                   sum_of(end, "frontend", "flush.explicit"));
  c.engine_batch_size = ratio(sum_of(end, "engine", "requests"),
                              sum_of(end, "engine", "batches"));
  // Drain wait per publish, measured by the live generation managers while
  // readers held pins.
  c.publish_wait_ms = ratio(delta("generations", "publish_wait_ns"),
                            delta("generations", "published")) *
                      1e-6;
  return c;
}

HitPath trace_layers(Report& report, const LayerSubject& s,
                     const LayerCounters& c) {
  const uint64_t t_start = now_ns();
  OracleShard& srv = *s.server;
  GenerationManager& gens = *srv.generations();
  SptCache& cache = *srv.cache();
  Rng rng(sub_seed(s.policy_seed, 900));
  const Vertex n = s.g0->num_vertices();
  std::vector<Vertex> targets(256);
  for (Vertex& t : targets) t = static_cast<Vertex>(rng.next_below(n));
  int64_t sink = 0;

  // ---- Hit path on the workload's server: pin, lookup, walk, and the
  // whole distance() they should add up to.
  // Probe only roots whose base tree stays resident once all are warmed (a
  // tight budget evicts some), so every probed call is a hit.
  const std::vector<Vertex> sample(
      s.roots.begin(), s.roots.begin() + std::min<size_t>(16, s.roots.size()));
  std::vector<Vertex> roots = sample;
  for (Vertex r : roots) sink += srv.distance(r, targets[0]);
  std::vector<SptKey> keys;
  std::vector<SptHandle> trees;
  for (int attempt = 0; attempt < 2 && trees.empty(); ++attempt) {
    if (attempt == 1) {
      roots.assign(1, s.roots[0]);
      sink += srv.distance(roots[0], targets[0]);
    }
    const GenerationManager::Pin pin = gens.pin();
    std::vector<Vertex> resident;
    for (Vertex r : roots) {
      const SptKey key(pin->version(), SsspRequest{r, {}, Direction::kOut});
      if (SptHandle h = cache.lookup(key)) {
        resident.push_back(r);
        keys.push_back(key);
        trees.push_back(std::move(h));
      }
    }
    roots = resident;
  }
  if (trees.empty()) {
    report.problem("no resident tree to probe the hit path with");
    return {};
  }
  const size_t k = roots.size();
  HitPath hp;
  hp.pin_ns = ns_per_call([&](int) {
    const GenerationManager::Pin p = gens.pin();
    keep(p);
  });
  hp.lookup_ns = ns_per_call([&](int i) {
    const SptHandle h = cache.lookup(keys[i % k]);
    keep(h);
  });
  hp.walk_ns = ns_per_call(
      [&](int i) { sink += trees[i % k]->hops(targets[i & 255]); });
  hp.distance_ns = ns_per_call(
      [&](int i) { sink += srv.distance(roots[i % k], targets[i & 255]); },
      500, 15);

  // ---- Instruments.
  obs::Counter counter;
  obs::Histogram hist;
  const double now_cost = ns_per_call([&](int) { sink += obs::now_ns(); });
  const double add_cost = ns_per_call([&](int) { counter.add(); });
  const double rec_cost = ns_per_call([&](int i) { hist.record(i); });

  // ---- Router.
  const ShardRouter local_router(2);
  const ShardRouter& router = s.router ? *s.router : local_router;
  const size_t ks = sample.size();
  const double shard_of_cost = ns_per_call(
      [&](int i) { sink += router.shard_of(s.scheme_id, sample[i % ks]); });

  // ---- Engine on a shadow scheme over the initial topology.
  Graph g = *s.g0;
  const auto pi = make_default_rpts(g, s.policy_seed);
  const BatchSsspEngine one(1);
  std::vector<SsspRequest> batch8;
  for (size_t i = 0; i < std::min<size_t>(8, ks); ++i)
    batch8.push_back({sample[i], {}, Direction::kOut});
  std::vector<double> engine_ms;
  for (int r = 0; r < 3; ++r)
    engine_ms.push_back(ms_of([&] { keep(pi->spt_batch(batch8, &one)); }));
  const double runs = static_cast<double>(batch8.size());
  const double engine_ns = median(engine_ms) * 1e6;

  // ---- Update path: replay the workload's batches on the shadow graph,
  // scheme and cache.
  const uint32_t eps_q = quantize_epsilon(kEpsilon);
  std::vector<SsspRequest> reqs;
  for (Vertex r : sample) reqs.push_back({r, {}, Direction::kOut});
  for (Vertex r : sample) reqs.push_back({r, {}, Direction::kOut, eps_q});
  std::vector<SptHandle> held = pi->spt_batch(reqs, &one);
  std::map<std::pair<Vertex, uint32_t>, size_t> slot_of;
  SptCache shadow;
  for (size_t i = 0; i < reqs.size(); ++i) {
    slot_of[{reqs[i].root, reqs[i].eps_q}] = i;
    shadow.insert(SptKey(pi->version(), reqs[i]), held[i]);
  }
  std::vector<double> apply_ms, snap_ms, surv_ms, surv_eps_ms, adv_ms,
      repair_ms, recompute_ms;
  const auto& history = *s.history;
  for (size_t b = 0; b < std::min<size_t>(history.size(), 40); ++b) {
    DeltaBatch db;
    apply_ms.push_back(ms_of([&] { db = g.apply(history[b]); }));
    snap_ms.push_back(ms_of([&] { keep(g.snapshot()); }));
    std::vector<char> alive(held.size(), 1);
    surv_ms.push_back(ms_of([&] {
      for (size_t i = 0; i < ks; ++i)
        alive[i] = pi->batch_survives(db, *held[i], {});
    }));
    surv_eps_ms.push_back(ms_of([&] {
      for (size_t i = ks; i < held.size(); ++i)
        alive[i] = pi->batch_survives_eps(db, *held[i], {}, eps_q);
    }));
    std::vector<SptCache::Invalidated> invalidated;
    adv_ms.push_back(ms_of([&] {
      shadow.advance_epoch(
          pi->scheme_id(), db.old_epoch, db.new_epoch,
          [&](const SptKey& key, const Spt& tree) {
            return key.eps_q ? pi->batch_survives_eps(db, tree,
                                                      key.fault_set(), key.eps_q)
                             : pi->batch_survives(db, tree, key.fault_set());
          },
          &invalidated);
    }));
    for (size_t i = 0; i < held.size(); ++i) {
      if (alive[i]) continue;
      RepairOutcome ro;
      if (i < ks) {
        repair_ms.push_back(ms_of([&] {
          ro = pi->repair_tree(*held[i], db, {}, kDefaultRepairFraction);
        }));
        recompute_ms.push_back(ms_of([&] { keep(pi->spt(reqs[i].root)); }));
      } else {
        ro = pi->repair_tree_eps(*held[i], db, {}, kDefaultRepairFraction,
                                 eps_q);
      }
      held[i] = std::make_shared<const Spt>(std::move(ro.tree));
    }
    for (const auto& inv : invalidated)
      shadow.insert(inv.key, held[slot_of.at({inv.key.root, inv.key.eps_q})]);
  }
  keep(sink);

  report.metric("generation.pin_ns", hp.pin_ns, "ns");
  report.metric("generation.publish_wait_ms", c.publish_wait_ms, "ms");
  report.metric("cache.lookup_ns", hp.lookup_ns, "ns");
  report.metric("cache.hit_rate", c.hit_rate, "ratio");
  report.metric("cache.bytes_per_tree", c.bytes_per_tree, "bytes");
  report.metric("cache.carried_frac", c.carried_frac, "ratio");
  report.metric("cache.advance_epoch_ms", median(adv_ms), "ms");
  report.metric("spt.walk_ns", hp.walk_ns, "ns");
  report.metric("server.distance_ns", hp.distance_ns, "ns");
  report.metric("server.overhead_ns", hp.overhead_ns(), "ns");
  report.metric("obs.now_ns", now_cost, "ns");
  report.metric("obs.counter_add_ns", add_cost, "ns");
  report.metric("obs.histogram_record_ns", rec_cost, "ns");
  report.metric("batcher.coalesced_frac", c.coalesced_frac, "ratio");
  report.metric("batcher.queue_wait_us", c.queue_wait_us, "us");
  report.metric("router.shard_of_ns", shard_of_cost, "ns");
  report.metric("aggregator.submissions_per_subquery",
                c.submissions_per_subquery, "ratio");
  report.metric("aggregator.timeout_flush_frac", c.timeout_flush_frac, "ratio");
  report.metric("engine.ns_per_vertex", engine_ns / (runs * n), "ns");
  report.metric("engine.ns_per_arc",
                engine_ns / (runs * 2.0 * s.g0->num_present_edges()), "ns");
  report.metric("engine.batch_size", c.engine_batch_size, "count");
  report.metric("graph.apply_ms", median(apply_ms), "ms");
  report.metric("graph.snapshot_ms", median(snap_ms), "ms");
  report.metric("rpts.survive_ms", median(surv_ms), "ms");
  report.metric("rpts.survive_eps_ms", median(surv_eps_ms), "ms");
  report.metric("rpts.repair_ms", median(repair_ms), "ms");
  report.metric("rpts.recompute_ms", median(recompute_ms), "ms");
  report.metric("rp.out_trees_ms", c.out_trees_ms, "ms");
  report.metric("trace.overhead_s",
                static_cast<double>(now_ns() - t_start) * 1e-9, "s");
  return hp;
}

}  // namespace perfbench
