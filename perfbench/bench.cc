// The repository benchmark: three workloads over the serving stack, each
// also building the paper's offline applications, one process each, at
// most min(4, nproc) threads.
//
//   perfbench --workload <hot_read|cold_miss|churn_mixed>
//             --seed <n> --seconds <s> --trace <0|1> [--self-test 1]
//
// Every workload runs the same four stages on its own stack, so every
// end-to-end metric is measured on every workload (README.md has the
// per-workload meaning of each):
//   read    closed loop at the workload's full driver count -> qps, p50, p99
//   read1   the same stream on one driver                  -> qps_1t
//   update  k = 4 topology batches                         -> update_p50/p90
//   build   subset-rp, f = 1 preserver, f = 1 labels       -> *_s
// Set-up (graph generation, scheme construction, warm-up) is repeated three
// times; setup_s is their median. Sampled answers are verified after the
// clock stops; --trace 1 adds the per-layer replay (layers.h) and prints
// the per-layer metrics instead of the end-to-end ones. run.py runs this
// driver several times per benchmark run and combines the results.
#include <array>
#include <cstring>
#include <thread>

#include "graph/generators.h"
#include "harness.h"
#include "layers.h"
#include "offline.h"
#include "serve/oracle_server.h"
#include "serve/shard_aggregator.h"

namespace perfbench {
namespace {

constexpr size_t kMB = size_t{1} << 20;
constexpr int kSetupReps = 3;

// Shares of --seconds given to the read windows; update batches and builds
// run a fixed amount of work between them.
constexpr double kReadShare = 0.45;
constexpr double kRead1Share = 0.30;
constexpr int kReadRounds = 8;

// The offline builds, one after every read round (churn_mixed: half before
// and half after the churn).
constexpr OfflineSizes kOfflineSmall{1200, 8, 320, 2, 72, kReadRounds};

struct EndToEnd {
  double qps = 0, p50_us = 0, p99_us = 0, qps_1t = 0;
  double update_p50_ms = 0, update_p90_ms = 0;
  double subset_rp_s = 0, preserver_s = 0, labeling_s = 0;
  double setup_s = 0;
};

// Prints the end-to-end metrics, times and rates scaled to the reference
// host (harness.h, host_factor()).
void emit(Report& r, const Options& opt, const EndToEnd& e) {
  const double f = host_factor();
  const std::array<Metric, 11> all{{
      {"qps", e.qps / f, "1/s"},
      {"p50_us", e.p50_us * f, "us"},
      {"p99_us", e.p99_us * f, "us"},
      {"qps_1t", e.qps_1t / f, "1/s"},
      {"update_p50_ms", e.update_p50_ms * f, "ms"},
      {"update_p90_ms", e.update_p90_ms * f, "ms"},
      {"subset_rp_s", e.subset_rp_s * f, "s"},
      {"preserver_s", e.preserver_s * f, "s"},
      {"labeling_s", e.labeling_s * f, "s"},
      {"setup_s", e.setup_s * f, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  }};
  r.note("host_factor", f);
  for (const Metric& m : all) {
    // End-to-end numbers come only from untraced runs; a traced run lists
    // its own as information.
    if (opt.trace)
      r.note("untraced." + m.name, m.value);
    else
      r.metric(m.name, m.value, m.unit);
  }
  r.note("scaling_qps_over_qps_1t", e.qps_1t > 0 ? e.qps / e.qps_1t : 0);
}

void account_threads(Report& r, int drivers, int mutator, int engine_workers,
                     int os_max) {
  const int total = drivers + mutator + engine_workers;
  r.note("threads", "{\"drivers\": " + std::to_string(drivers) +
                        ", \"mutator\": " + std::to_string(mutator) +
                        ", \"engine_workers\": " +
                        std::to_string(engine_workers) +
                        ", \"total\": " + std::to_string(total) +
                        ", \"os_threads_max\": " + std::to_string(os_max) +
                        ", \"hw_threads\": " + std::to_string(hw_threads()) +
                        "}");
  if (total > hw_threads() || os_max > hw_threads())
    r.problem("thread budget exceeded: " + std::to_string(total) +
              " planned, " + std::to_string(os_max) + " seen, " +
              std::to_string(hw_threads()) + " hardware threads");
}

// Builds `kSetupReps` stacks (dropping each before building the next) and
// keeps the last; *setup_s is the median of the build times.
template <typename Make>
auto timed_setups(Make&& make, double* setup_s) {
  std::vector<double> t;
  decltype(make()) last;
  for (int i = 0; i < kSetupReps; ++i) {
    last.reset();
    const uint64_t t0 = now_ns();
    last = make();
    t.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    sample_reference(4);
  }
  *setup_s = median(t);
  return last;
}

// Runs `n` jobs over `threads` plain threads (set-up warm-ups).
void fan_out(int threads, size_t n, const std::function<void(size_t)>& job) {
  std::vector<std::thread> ts;
  for (int w = 0; w < threads; ++w)
    ts.emplace_back([&, w] {
      for (size_t i = static_cast<size_t>(w); i < n; i += threads) job(i);
    });
  for (auto& t : ts) t.join();
}

int64_t answer(OracleShard& srv, const Query& q) {
  switch (q.kind) {
    case Kind::kDist:
      return srv.distance(q.s, q.t);
    case Kind::kRepl:
      return srv.replacement_distance(q.s, q.t, q.e);
    case Kind::kFaultDist:
      return srv.distance(q.s, q.t, FaultSet{q.e});
    case Kind::kEpsDist:
      return srv.distance(q.s, q.t, {}, QueryOpts{kEpsilon});
    case Kind::kTree:
      return fingerprint(*srv.tree({q.s, {}, Direction::kOut}));
  }
  return 0;
}

// Closed-loop update batches run between read rounds (no concurrent
// readers): the pool twice over, so per_batch_quantile() sees every batch
// twice, half the run apart.
constexpr size_t kBatchesPerRound = 2 * kChurnPool / kReadRounds;

// Appends the latencies of the next kBatchesPerRound batches to `lat_ms`.
template <typename Apply>
void update_stage(Churner& churn, Report& r, std::vector<double>& lat_ms,
                  Apply&& apply) {
  for (size_t n = 0; n < kBatchesPerRound; ++n) {
    const std::vector<GraphDelta> deltas = churn.next();
    ++r.attempted;
    const uint64_t t0 = now_ns();
    try {
      churn.applied(apply(deltas));
    } catch (...) {
      ++r.failed;
    }
    lat_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  }
}

void add_reads(Report& r, EndToEnd& e, const ReadStats& rs) {
  r.attempted += rs.ops;
  r.failed += rs.failed;
  e.qps = rs.qps;
  e.p50_us = rs.p50_us;
  e.p99_us = rs.p99_us;
  e.qps_1t = rs.qps_1t;
  r.note("latency_samples", static_cast<double>(rs.latency_samples));
  auto list = [](const std::vector<double>& v) {
    std::string s = "[";
    for (size_t i = 0; i < v.size(); ++i) s += (i ? ", " : "") + fmt_num(v[i]);
    return s + "]";
  };
  r.note("round_qps", list(rs.round_qps));
  r.note("round_qps_1t", list(rs.round_qps_1t));
}

void take_offline(const OfflineResult& res, EndToEnd& e, LayerCounters& c) {
  e.subset_rp_s = res.subset_rp_s;
  e.preserver_s = res.preserver_s;
  e.labeling_s = res.labeling_s;
  c.out_trees_ms = res.out_trees_ms;
}

// ---- hot_read and churn_mixed: one OracleServer over gnp(4000, deg 8) ----

constexpr Vertex kHotN = 4000;
constexpr size_t kHotRoots = 64;
constexpr size_t kHotFaults = 2;  // single-fault trees per hot root
constexpr size_t kStreamLen = size_t{1} << 16;

struct HotStack {
  Graph g;
  std::unique_ptr<IsolationRpts> pi;
  std::unique_ptr<BatchSsspEngine> engine;
  std::unique_ptr<OracleServer> server;
  std::vector<Vertex> roots;
  std::vector<std::array<EdgeId, kHotFaults>> faults;  // on the base tree
  uint64_t policy_seed = 0;
};

// Warm-up loads every tree the workload's stream reads: the exact base tree
// and kHotFaults single-fault trees per root (hot_read), or the exact and the
// epsilon base tree per root (churn_mixed).
std::unique_ptr<HotStack> make_hot(int lanes, int warm_threads, bool eps_tier) {
  auto st = std::make_unique<HotStack>();
  st->policy_seed = sub_seed(kGraphSeed, 2);
  st->g = gnp_connected(kHotN, 8.0 / kHotN, sub_seed(kGraphSeed, 1));
  st->pi = make_default_rpts(st->g, st->policy_seed);
  st->engine = std::make_unique<BatchSsspEngine>(lanes);
  ServerConfig cfg;
  cfg.cache.byte_budget = 128 * kMB;
  cfg.engine = st->engine.get();
  st->server = std::make_unique<OracleServer>(*st->pi, cfg);
  // The hot set and its fault edges are part of the fixed input, so every
  // run caches the same trees; the seed draws streams and churn over them.
  st->roots = distinct_vertices(kHotN, kHotRoots, sub_seed(kGraphSeed, 3));
  st->faults.resize(kHotRoots);
  fan_out(warm_threads, kHotRoots, [&](size_t i) {
    const Vertex r = st->roots[i];
    OracleServer& srv = *st->server;
    if (eps_tier) {
      keep(srv.distance(r, 0));
      keep(srv.distance(r, 0, {}, QueryOpts{kEpsilon}));
      return;
    }
    const SptHandle base = srv.tree({r, {}, Direction::kOut});
    Rng rng(sub_seed(kGraphSeed, 1000 + r));
    for (EdgeId& e : st->faults[i]) {
      e = kNoEdge;
      while (e == kNoEdge)
        e = base->parent_edge(static_cast<Vertex>(rng.next_below(kHotN)));
      keep(srv.distance(r, 0, FaultSet{e}));
    }
  });
  return st;
}

std::vector<SptHandle> base_trees(OracleShard& srv,
                                  std::span<const Vertex> roots) {
  std::vector<SptHandle> out;
  for (Vertex r : roots) out.push_back(srv.tree({r, {}, Direction::kOut}));
  return out;
}

// Runs one closed-loop read window over a pre-generated stream, sampling
// every `stride`-th answer with the topology range it may have observed.
Window read_window(OracleShard& srv, int drivers, double secs, uint64_t base,
                   const std::vector<Query>& stream, uint64_t stride,
                   SampleSink& sink, const std::atomic<uint32_t>* started,
                   const std::atomic<uint32_t>* completed) {
  sink.resize(drivers);
  return closed_loop(drivers, secs, base, 8, [&](int w, uint64_t seq) {
    const Query& q = stream[seq % stream.size()];
    const uint32_t lo = completed ? completed->load() : 0;
    const int64_t got = answer(srv, q);
    if (seq % stride == 0)
      sink.add(w, {q, got, lo, started ? started->load() : 0});
  });
}

// Post-update spot check: a few answers on the final topology.
void spot_check(OracleShard& srv, const std::vector<Query>& stream,
                uint32_t topo, std::vector<Sample>& out) {
  for (size_t i = 0; i < 32; ++i) {
    const Query& q = stream[(i * 977) % stream.size()];
    out.push_back({q, answer(srv, q), topo, topo});
  }
}

void hot_read(const Options& opt, Report& r) {
  const int T = thread_budget();
  EndToEnd e;
  auto st = timed_setups([&] { return make_hot(1, T, false); },
                         &e.setup_s);
  OracleServer& srv = *st->server;
  const Graph g0 = st->g;

  std::vector<Query> stream(kStreamLen);
  for (uint64_t i = 0; i < kStreamLen; ++i) {
    Rng rng(hash_combine(sub_seed(opt.seed, 4), i));
    const size_t k = rng.next_below(kHotRoots);
    Query& q = stream[i];
    q.s = st->roots[k];
    q.t = static_cast<Vertex>(rng.next_below(kHotN));
    const uint64_t kind = rng.next_below(3);
    q.kind = kind == 0 ? Kind::kDist : kind == 1 ? Kind::kRepl : Kind::kFaultDist;
    q.e = st->faults[k][rng.next_below(kHotFaults)];
  }

  // Each read round is followed by a share of the update batches and one
  // offline build of each application; reads in round i see the topology
  // after the batches of rounds < i.
  const auto hot = base_trees(srv, st->roots);
  Churner churn(g0, hot, sub_seed(opt.seed, 5));
  const auto inst = make_offline(kOfflineSmall);
  OfflineBuilds builds(*inst);
  std::atomic<uint32_t> applied{0};
  std::vector<double> upd;
  SampleSink sink;
  const auto before = srv.metrics().snapshot();
  const ReadStats rs = read_rounds(
      T, opt.seconds * kReadShare, opt.seconds * kRead1Share, kReadRounds,
      [&](int n, double secs, uint64_t base) {
        return read_window(srv, n, secs, base, stream, 1024, sink, &applied,
                           &applied);
      },
      [&](int i) {
        update_stage(churn, r, upd, [&](const std::vector<GraphDelta>& d) {
          return srv.apply_updates(st->g, d).batch;
        });
        applied.store(static_cast<uint32_t>(churn.history().size()));
        builds.rep(r);
      });
  const auto after = srv.metrics().snapshot();
  add_reads(r, e, rs);
  e.update_p50_ms = per_batch_quantile(upd, 0.5);
  e.update_p90_ms = per_batch_quantile(upd, 0.9);
  std::vector<Sample> samples = sink.take();
  spot_check(srv, stream, applied.load(), samples);
  {
    const BatchSsspEngine verifier(T);
    verify_samples(r, opt, g0, st->policy_seed, churn.history(), samples,
                   verifier);
  }
  LayerCounters c = counters_from(before, after, srv.metrics().snapshot());
  take_offline(builds.finish(r), e, c);
  account_threads(r, T, 0, st->engine->threads() - 1, rs.os_threads_max);
  emit(r, opt, e);

  if (opt.trace) {
    LayerSubject s{&g0, st->policy_seed, st->pi->scheme_id(), &srv,
                   st->roots, nullptr, &churn.history()};
    const HitPath hp = trace_layers(r, s, c);
    // The reconciliation row: the hit-path layers against the p50 they
    // should add up to. A large overhead is a finding, not noise.
    r.note("reconciliation",
           "{\"pin_ns\": " + fmt_num(hp.pin_ns) +
               ", \"lookup_ns\": " + fmt_num(hp.lookup_ns) +
               ", \"walk_ns\": " + fmt_num(hp.walk_ns) +
               ", \"overhead_ns\": " + fmt_num(hp.overhead_ns()) +
               ", \"layer_sum_ns\": " +
               fmt_num(hp.pin_ns + hp.lookup_ns + hp.walk_ns) +
               ", \"distance_ns\": " + fmt_num(hp.distance_ns) +
               ", \"p50_us\": " + fmt_num(e.p50_us) + "}");
  }
}

// ---- churn_mixed: 2 readers + 1 open-loop mutator + 1 engine worker ------

// A batch costs about 12 ms on a 4-vCPU VM; a period four times that keeps
// the open loop stable when a shared host slows down for a while (at 20 ms
// a 2x slowdown made the lag grow without bound and starved the readers).
constexpr uint64_t kChurnPeriodMs = 50;

void churn_mixed(const Options& opt, Report& r) {
  const int T = thread_budget();
  const int readers = std::max(1, T - 2);
  const int lanes = T >= 4 ? 2 : 1;
  EndToEnd e;
  auto st = timed_setups([&] { return make_hot(lanes, T, true); },
                         &e.setup_s);
  OracleServer& srv = *st->server;
  const Graph g0 = st->g;

  std::vector<Query> stream(kStreamLen);
  for (uint64_t i = 0; i < kStreamLen; ++i) {
    Rng rng(hash_combine(sub_seed(opt.seed, 4), i));
    Query& q = stream[i];
    q.s = st->roots[rng.next_below(kHotRoots)];
    q.t = static_cast<Vertex>(rng.next_below(kHotN));
    q.kind = rng.next_below(2) ? Kind::kEpsDist : Kind::kDist;
  }
  const auto hot = base_trees(srv, st->roots);
  Churner churn(g0, hot, sub_seed(opt.seed, 5));

  // Offline builds before and after the churn: beside the mutator they
  // would exceed the thread budget.
  const auto inst = make_offline(kOfflineSmall);
  OfflineBuilds builds(*inst);
  for (int i = 0; i < kOfflineSmall.reps / 2; ++i) builds.rep(r);

  // The mutator: batch i is due at start + i * period; its latency runs
  // from the due time, so a late start (lag) counts against it.
  std::atomic<uint32_t> started{0}, completed{0};
  std::atomic<bool> stop{false};
  std::vector<double> upd_ms, lag_ms;
  std::thread mutator([&] {
    const uint64_t start = now_ns();
    for (uint64_t i = 0; !stop.load(); ++i) {
      const uint64_t due = start + i * kChurnPeriodMs * 1'000'000;
      for (uint64_t now = now_ns(); now < due && !stop.load(); now = now_ns())
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      if (stop.load()) break;
      const std::vector<GraphDelta> deltas = churn.next();
      lag_ms.push_back(static_cast<double>(now_ns() - due) * 1e-6);
      started.fetch_add(1);
      try {
        churn.applied(srv.apply_updates(st->g, deltas).batch);
      } catch (...) {
        ++r.failed;
      }
      completed.fetch_add(1);
      upd_ms.push_back(static_cast<double>(now_ns() - due) * 1e-6);
    }
  });
  SampleSink sink;
  const auto before = srv.metrics().snapshot();
  const ReadStats rs = read_rounds(
      readers, opt.seconds * 0.50, opt.seconds * 0.35, kReadRounds,
      [&](int n, double secs, uint64_t base) {
        return read_window(srv, n, secs, base, stream, 8192, sink, &started,
                           &completed);
      });
  stop.store(true);
  mutator.join();
  const auto after = srv.metrics().snapshot();
  add_reads(r, e, rs);
  r.attempted += upd_ms.size();
  e.update_p50_ms = per_batch_quantile(upd_ms, 0.5);
  e.update_p90_ms = per_batch_quantile(upd_ms, 0.9);
  r.note("updates", static_cast<double>(upd_ms.size()));
  r.note("update_lag_ms", "{\"p50\": " + fmt_num(quantile(lag_ms, 0.5)) +
                              ", \"p90\": " + fmt_num(quantile(lag_ms, 0.9)) +
                              ", \"max\": " + fmt_num(quantile(lag_ms, 1.0)) +
                              "}");
  if (upd_ms.size() < 100)
    r.problem("only " + std::to_string(upd_ms.size()) + " updates ran");

  std::vector<Sample> samples = sink.take();
  spot_check(srv, stream, completed.load(), samples);
  {
    const BatchSsspEngine verifier(T - (lanes - 1));
    verify_samples(r, opt, g0, st->policy_seed, churn.history(), samples,
                   verifier);
  }
  LayerCounters c = counters_from(before, after, srv.metrics().snapshot());
  for (int i = kOfflineSmall.reps / 2; i < kOfflineSmall.reps; ++i)
    builds.rep(r);
  take_offline(builds.finish(r), e, c);
  account_threads(r, readers, 1, lanes - 1, rs.os_threads_max);
  emit(r, opt, e);
  if (opt.trace) {
    LayerSubject s{&g0, st->policy_seed, st->pi->scheme_id(), &srv,
                   st->roots, nullptr, &churn.history()};
    trace_layers(r, s, c);
  }
}

// ---- cold_miss: ShardAggregator, 2 shards, skewed roots over a road-like
// sparse graph whose working set dwarfs the budget ------------------------

constexpr Vertex kColdN = 10000;
constexpr size_t kColdFanout = 8;

struct ColdStack {
  Graph g;
  std::unique_ptr<IsolationRpts> pi;
  std::unique_ptr<ShardAggregator> agg;
  std::vector<Vertex> by_rank;  // popularity order
  std::vector<double> cdf;      // Zipf(1) over ranks
  uint64_t policy_seed = 0;

  Vertex skewed(Rng& rng) const {
    const double u = rng.next_double();
    const size_t k = std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin();
    return by_rank[std::min(k, by_rank.size() - 1)];
  }
};

std::unique_ptr<ColdStack> make_cold(int drivers, int T) {
  auto st = std::make_unique<ColdStack>();
  st->policy_seed = sub_seed(kGraphSeed, 2);
  st->g = sparse_connected(kColdN, 3.0, sub_seed(kGraphSeed, 1));
  st->pi = make_default_rpts(st->g, st->policy_seed);
  FrontEndConfig fc;
  fc.num_shards = 2;
  fc.total_engine_threads = static_cast<size_t>(2 * std::max(1, T - drivers));
  // Per shard: ~40 fat (12 B/vertex) trees, a small slice of the working set.
  fc.shard.cache.byte_budget = 40 * 12 * size_t{kColdN};
  st->agg = std::make_unique<ShardAggregator>(*st->pi, fc);
  // Popularity is fixed like the graph: which roots are hot decides how the
  // load splits over the two shards, so a seed-drawn ranking moved qps and
  // latency from seed to seed.
  st->by_rank = distinct_vertices(kColdN, kColdN, sub_seed(kGraphSeed, 3));
  st->cdf.resize(kColdN);
  double acc = 0;
  for (size_t k = 0; k < kColdN; ++k) st->cdf[k] = acc += 1.0 / (k + 1);
  for (double& x : st->cdf) x /= acc;
  // Warm-up: the 64 most popular roots, 8 per fan-out.
  fan_out(drivers, 8, [&](size_t i) {
    std::vector<SsspRequest> reqs;
    for (size_t j = 0; j < kColdFanout; ++j)
      reqs.push_back({st->by_rank[i * kColdFanout + j], {}, Direction::kOut});
    keep(st->agg->tree_batch(reqs));
  });
  return st;
}

struct ColdOp {
  Query q;  // kFaultDist: the query; kTree: a fan-out over `roots`
  std::array<Vertex, kColdFanout> roots;
};

// Runs one cold operation. A sampled one passes its answers to `emit`: the
// distance, or one tree fingerprint per root of a fan-out.
template <typename Emit>
void cold_op(ShardAggregator& agg, const ColdOp& op, bool sampled,
             Emit&& emit) {
  if (op.q.kind == Kind::kFaultDist) {
    const int64_t d = agg.distance(op.q.s, op.q.t, FaultSet{op.q.e});
    if (sampled) emit(op.q, d);
    return;
  }
  std::vector<SsspRequest> reqs;
  for (Vertex v : op.roots) reqs.push_back({v, {}, Direction::kOut});
  const auto trees = agg.tree_batch(reqs);
  if (!sampled) return;
  for (size_t j = 0; j < trees.size(); ++j)
    emit(Query{Kind::kTree, op.roots[j], 0, kNoEdge}, fingerprint(*trees[j]));
}

void cold_miss(const Options& opt, Report& r) {
  const int T = thread_budget();
  const int drivers = std::max(1, T / 2);
  EndToEnd e;
  auto st = timed_setups([&] { return make_cold(drivers, T); }, &e.setup_s);
  ShardAggregator& agg = *st->agg;
  const Graph g0 = st->g;

  std::vector<ColdOp> stream(4096);
  for (uint64_t i = 0; i < stream.size(); ++i) {
    Rng rng(hash_combine(sub_seed(opt.seed, 4), i));
    ColdOp& op = stream[i];
    for (Vertex& v : op.roots) v = st->skewed(rng);
    op.q.s = op.roots[0];
    op.q.t = static_cast<Vertex>(rng.next_below(kColdN));
    op.q.e = static_cast<EdgeId>(rng.next_below(g0.num_edges()));
    // Two in three operations are fault distances, so p50 lies inside their
    // mode instead of on the border between the two operations' modes. The
    // kinds alternate in a fixed pattern: a fan-out costs several fault
    // distances, and a drawn mix would move a short window's rate.
    op.q.kind = i % 3 ? Kind::kFaultDist : Kind::kTree;
  }

  // As in hot_read, update batches and offline builds follow each round;
  // the builds use the lanes the fleet's idle engine workers leave free.
  const int idle_workers = 2 * std::max(0, T - drivers - 1);
  std::vector<SptHandle> hot;
  for (size_t k = 0; k < 8; ++k)
    hot.push_back(agg.tree({st->by_rank[k], {}, Direction::kOut}));
  Churner churn(g0, hot, sub_seed(opt.seed, 5));
  const auto inst = make_offline(kOfflineSmall);
  OfflineBuilds builds(*inst);
  uint32_t applied = 0;
  std::vector<double> upd;
  SampleSink sink;
  const auto before = agg.metrics().snapshot();
  // Misses cost milliseconds, so cold_miss gives its reads a larger share
  // of the run to keep over 1000 latency samples.
  const ReadStats rs = read_rounds(
      drivers, opt.seconds * 0.60, opt.seconds * 0.20, kReadRounds,
      [&](int n, double secs, uint64_t base) {
        sink.resize(n);
        return closed_loop(n, secs, base, 1, [&](int w, uint64_t seq) {
          cold_op(agg, stream[seq % stream.size()], seq % 32 == 0,
                  [&](const Query& q, int64_t got) {
                    sink.add(w, {q, got, applied, applied});
                  });
        });
      },
      [&](int i) {
        update_stage(churn, r, upd, [&](const std::vector<GraphDelta>& d) {
          return agg.apply_updates(st->g, d).batch;
        });
        applied = static_cast<uint32_t>(churn.history().size());
        builds.rep(r);
      });
  const auto after = agg.metrics().snapshot();
  add_reads(r, e, rs);
  e.update_p50_ms = per_batch_quantile(upd, 0.5);
  e.update_p90_ms = per_batch_quantile(upd, 0.9);

  // Samples: one operation in 32 from the rounds plus a spot check after
  // the last batch; a fan-out contributes every root's tree.
  std::vector<Sample> samples = sink.take();
  for (size_t i = 0; i < 8; ++i)
    cold_op(agg, stream[i * 131], true, [&](const Query& q, int64_t got) {
      samples.push_back({q, got, applied, applied});
    });
  {
    const BatchSsspEngine verifier(T - idle_workers);
    verify_samples(r, opt, g0, st->policy_seed, churn.history(), samples,
                   verifier);
  }
  LayerCounters c = counters_from(before, after, agg.metrics().snapshot());
  take_offline(builds.finish(r), e, c);
  account_threads(r, drivers, 0, idle_workers, rs.os_threads_max);
  emit(r, opt, e);
  if (opt.trace) {
    // Hit-path probes run on shard 0 with popular roots it owns.
    std::vector<Vertex> owned;
    for (Vertex v : st->by_rank) {
      if (agg.router().shard_of(st->pi->scheme_id(), v) == 0)
        owned.push_back(v);
      if (owned.size() == 16) break;
    }
    LayerSubject s{&g0, st->policy_seed, st->pi->scheme_id(), &agg.shard(0),
                   owned, &agg.router(), &churn.history()};
    trace_layers(r, s, c);
  }
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") opt.workload = v;
    else if (k == "--seed") opt.seed = std::stoull(v);
    else if (k == "--seconds") opt.seconds = std::stod(v);
    else if (k == "--trace") opt.trace = v != "0";
    else if (k == "--self-test") opt.self_test = v != "0";
    else return false;
  }
  return !opt.workload.empty() && opt.seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  try {
    if (!parse(argc, argv, opt)) throw std::invalid_argument("bad arguments");
  } catch (const std::exception&) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--self-test 1]\n");
    return 2;
  }
  Report report;
  host_steal_frac();
  report.note("workload", "\"" + opt.workload + "\"");
  report.note("seed", static_cast<double>(opt.seed));
  if (opt.workload == "hot_read") hot_read(opt, report);
  else if (opt.workload == "cold_miss") cold_miss(opt, report);
  else if (opt.workload == "churn_mixed") churn_mixed(opt, report);
  else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 opt.workload.c_str());
    return 2;
  }
  report.note("host_steal_frac", host_steal_frac());
  report.print();
  return 0;
}
