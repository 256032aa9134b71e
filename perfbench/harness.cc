#include "harness.h"

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <fstream>
#include <map>
#include <tuple>

namespace perfbench {

int hw_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

int thread_budget() { return std::min(4, hw_threads()); }

int os_threads() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  return 0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<Vertex> distinct_vertices(Vertex n, size_t k, uint64_t seed) {
  Rng rng(seed);
  std::vector<char> taken(n, 0);
  std::vector<Vertex> out;
  while (out.size() < std::min<size_t>(k, n)) {
    const Vertex v = static_cast<Vertex>(rng.next_below(n));
    if (!taken[v]) {
      taken[v] = 1;
      out.push_back(v);
    }
  }
  return out;
}

std::string fmt_num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

static std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void Report::note(const std::string& key, double value) {
  info_.emplace_back(key, fmt_num(value));
}

void Report::note(const std::string& key, const std::string& json_value) {
  info_.emplace_back(key, json_value);
}

void Report::problem(const std::string& why) {
  problems_.push_back(why);
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
}

void Report::print() const {
  std::string info = "{";
  for (size_t i = 0; i < info_.size(); ++i)
    info += (i ? ", " : "") + quoted(info_[i].first) + ": " + info_[i].second;
  if (!problems_.empty()) {
    info += std::string(info_.empty() ? "" : ", ") + "\"problems\": [";
    for (size_t i = 0; i < problems_.size(); ++i)
      info += (i ? ", " : "") + quoted(problems_[i]);
    info += "]";
  }
  std::printf("info %s}\n", info.c_str());

  const bool correct = failed == 0 && problems_.empty();
  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(std::max<uint64_t>(attempted, 1)) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out += (i ? ", " : "") + quoted(m.name) + ": {\"value\": " +
           fmt_num(m.value) + ", \"unit\": " + quoted(m.unit) + "}";
  }
  std::printf("%s}}\n", out.c_str());
  std::fflush(stdout);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const size_t k = std::min(v.size() - 1,
                            static_cast<size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(k), v.end());
  return v[k];
}

double chunked_quantile(const std::vector<double>& in_time_order, double q) {
  const size_t n = in_time_order.size();
  const double beyond = static_cast<double>(n) * (1.0 - q);
  const size_t chunks = std::clamp<size_t>(static_cast<size_t>(beyond / 10), 1, 8);
  std::vector<double> per;
  for (size_t c = 0; c < chunks; ++c)
    per.push_back(quantile({in_time_order.begin() + c * n / chunks,
                            in_time_order.begin() + (c + 1) * n / chunks},
                           q));
  return median(std::move(per));
}

double per_batch_quantile(const std::vector<double>& in_batch_order, double q) {
  std::vector<double> per;
  for (size_t slot = 0; slot < std::min(kChurnPool, in_batch_order.size());
       ++slot) {
    std::vector<double> reps;
    for (size_t i = slot; i < in_batch_order.size(); i += kChurnPool)
      reps.push_back(in_batch_order[i]);
    per.push_back(*std::min_element(reps.begin(), reps.end()));
  }
  return quantile(std::move(per), q);
}

double host_steal_frac() {
  static uint64_t last_total = 0, last_steal = 0;
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t total = 0, steal = 0;
  if (!(in >> cpu) || cpu != "cpu") return 0;
  // user nice system idle iowait irq softirq steal (guest time is in user).
  for (int i = 0; i < 8; ++i) {
    uint64_t x = 0;
    if (!(in >> x)) return 0;
    total += x;
    if (i == 7) steal = x;
  }
  const double frac = total > last_total
                          ? static_cast<double>(steal - last_steal) /
                                static_cast<double>(total - last_total)
                          : 0;
  last_total = total;
  last_steal = steal;
  return frac;
}

namespace {

// The reference graph: kRefN vertices, kRefDeg random out-arcs each.
constexpr uint32_t kRefN = 1u << 15;
constexpr uint32_t kRefDeg = 6;

struct Reference {
  std::vector<uint32_t> to;  // arcs of v: to[v * kRefDeg, (v + 1) * kRefDeg)
  std::vector<int32_t> dist;
  std::vector<uint32_t> queue;
  std::vector<double> times_ms;

  Reference() : to(size_t{kRefN} * kRefDeg), dist(kRefN), queue(kRefN) {
    Rng rng(sub_seed(kGraphSeed, 7));
    for (uint32_t& x : to) x = static_cast<uint32_t>(rng.next_below(kRefN));
  }

  int64_t bfs(uint32_t src) {
    std::fill(dist.begin(), dist.end(), -1);
    size_t head = 0, tail = 0;
    dist[src] = 0;
    queue[tail++] = src;
    int64_t sum = 0;
    while (head < tail) {
      const uint32_t v = queue[head++];
      sum += dist[v];
      for (uint32_t k = v * kRefDeg; k < (v + 1) * kRefDeg; ++k)
        if (dist[to[k]] < 0) {
          dist[to[k]] = dist[v] + 1;
          queue[tail++] = to[k];
        }
    }
    return sum;
  }

  // Two searches bound by memory latency, then a loop bound by the clock.
  void job() {
    for (uint32_t s = 0; s < 2; ++s) keep(bfs(s * 7919));
    uint64_t h = 1;
    for (int i = 0; i < 300000; ++i) {
      h = h * 6364136223846793005ull + 1442695040888963407ull;
      h ^= h >> 29;
    }
    keep(h);
  }
};

Reference& reference() {
  static Reference ref;
  return ref;
}

}  // namespace

void sample_reference(int reps) {
  Reference& ref = reference();
  for (int r = 0; r < reps; ++r) {
    const uint64_t t0 = now_ns();
    ref.job();
    ref.times_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  }
}

double host_factor() {
  const double ms = quantile(reference().times_ms, 0.25);
  return ms > 0 ? kReferenceMs / ms : 1;
}

Window closed_loop(int drivers, double secs, uint64_t base,
                   uint64_t lat_stride,
                   const std::function<void(int, uint64_t)>& op) {
  Window w;
  std::vector<std::vector<double>> lat(drivers);
  std::vector<uint64_t> failed(drivers, 0), ops(drivers, 0);
  std::atomic<bool> stop{false};
  const uint64_t start = now_ns();
  std::vector<std::thread> threads;
  threads.reserve(drivers);
  for (int d = 0; d < drivers; ++d) {
    threads.emplace_back([&, d] {
      lat[d].reserve(1 << 16);
      for (uint64_t k = 0; !stop.load(std::memory_order_relaxed); ++k) {
        const uint64_t seq = base + static_cast<uint64_t>(d) +
                             k * static_cast<uint64_t>(drivers);
        const bool timed = seq % lat_stride == 0;
        const uint64_t t0 = timed ? now_ns() : 0;
        try {
          op(d, seq);
        } catch (...) {
          ++failed[d];
        }
        if (timed) lat[d].push_back(static_cast<double>(now_ns() - t0) * 1e-3);
        ++ops[d];
      }
    });
  }
  // The main thread only watches the clock (and the thread count, first
  // after a sleep: threads of an engine joined just before the window can
  // still be listed while they exit).
  const uint64_t deadline = start + static_cast<uint64_t>(secs * 1e9);
  while (now_ns() < deadline) {
    const uint64_t left = deadline - now_ns();
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        std::min<uint64_t>(left, 50'000'000)));
    w.os_threads_max = std::max(w.os_threads_max, os_threads() - 1);
  }
  stop.store(true);
  for (auto& t : threads) t.join();
  w.seconds = static_cast<double>(now_ns() - start) * 1e-9;
  for (int d = 0; d < drivers; ++d) {
    w.ops += ops[d];
    w.failed += failed[d];
    w.lat_us.insert(w.lat_us.end(), lat[d].begin(), lat[d].end());
  }
  return w;
}

ReadStats read_rounds(int drivers, double secs, double secs_1t, int rounds,
                      const WindowFn& window,
                      const std::function<void(int)>& between) {
  ReadStats st;
  std::vector<double>& qps = st.round_qps;
  std::vector<double>& qps1 = st.round_qps_1t;
  std::vector<double> lat;
  uint64_t base = 0;
  auto run = [&](int n, double s) {
    const Window w = window(n, s, base);
    base += w.ops + static_cast<uint64_t>(n);
    st.ops += w.ops;
    st.failed += w.failed;
    st.os_threads_max = std::max(st.os_threads_max, w.os_threads_max);
    return w;
  };
  for (int i = 0; i < rounds; ++i) {
    const Window w = run(drivers, secs / rounds);
    qps.push_back(w.qps());
    lat.insert(lat.end(), w.lat_us.begin(), w.lat_us.end());
    qps1.push_back(run(1, secs_1t / rounds).qps());
    sample_reference(8);
    if (between) between(i);
  }
  st.qps = median(qps);
  st.qps_1t = median(qps1);
  st.p50_us = chunked_quantile(lat, 0.50);
  st.p99_us = chunked_quantile(lat, 0.99);
  st.latency_samples = lat.size();
  return st;
}

std::vector<Sample> SampleSink::take() {
  std::vector<Sample> all;
  for (auto& v : per_) {
    all.insert(all.end(), v.begin(), v.end());
    v.clear();
  }
  return all;
}

int64_t fingerprint(const Spt& tree) {
  uint64_t h = 0x6a09e667f3bcc909ull;
  for (Vertex v = 0; v < tree.num_vertices(); ++v) {
    const uint64_t word =
        (static_cast<uint64_t>(static_cast<uint32_t>(tree.hops(v))) << 32) |
        tree.parent(v);
    h = hash_combine(h, word);
  }
  return static_cast<int64_t>(h >> 2);  // never -2, the corruption marker
}

namespace {

// The tree a sampled query reads, under one reference scheme.
SsspRequest request_of(const Query& q) {
  SsspRequest r;
  r.root = q.s;
  if (q.kind == Kind::kRepl || q.kind == Kind::kFaultDist)
    r.faults = FaultSet{q.e};
  return r;
}

bool matches(const Sample& s, const Spt& ref) {
  switch (s.q.kind) {
    case Kind::kTree:
      return s.got == fingerprint(ref);
    case Kind::kEpsDist: {
      const int32_t d = ref.hops(s.q.t);
      if (d == kUnreachable) return s.got == kUnreachable;
      return s.got >= d &&
             static_cast<double>(s.got) <=
                 std::pow(1.0 + kEpsilon, d) * static_cast<double>(d) + 1e-9;
    }
    default:
      return s.got == ref.hops(s.q.t);
  }
}

}  // namespace

size_t count_wrong(const Graph& g0, uint64_t policy_seed,
                   const std::vector<std::vector<GraphDelta>>& history,
                   const std::vector<Sample>& samples,
                   const BatchSsspEngine& engine) {
  std::vector<char> ok(samples.size(), 0);
  uint32_t last = 0;
  for (const Sample& s : samples) last = std::max(last, s.hi);
  last = std::min<uint32_t>(last, static_cast<uint32_t>(history.size()));
  Graph g = g0;
  for (uint32_t j = 0; j <= last; ++j) {
    if (j > 0) g.apply(history[j - 1]);
    std::vector<size_t> todo;
    for (size_t i = 0; i < samples.size(); ++i)
      if (!ok[i] && samples[i].lo <= j && j <= samples[i].hi) todo.push_back(i);
    if (todo.empty()) continue;
    const auto ref = make_default_rpts(g, policy_seed);
    // One engine batch over the distinct trees these samples read.
    std::map<std::tuple<Vertex, std::vector<EdgeId>>, size_t> slot;
    std::vector<SsspRequest> reqs;
    std::vector<size_t> tree_of(todo.size());
    for (size_t k = 0; k < todo.size(); ++k) {
      const SsspRequest r = request_of(samples[todo[k]].q);
      const auto key = std::make_tuple(
          r.root, std::vector<EdgeId>(r.faults.begin(), r.faults.end()));
      auto [it, fresh] = slot.emplace(key, reqs.size());
      if (fresh) reqs.push_back(r);
      tree_of[k] = it->second;
    }
    const auto trees = ref->spt_batch(reqs, &engine);
    for (size_t k = 0; k < todo.size(); ++k)
      if (matches(samples[todo[k]], *trees[tree_of[k]])) ok[todo[k]] = 1;
  }
  return static_cast<size_t>(std::count(ok.begin(), ok.end(), 0));
}

void verify_samples(Report& report, const Options& opt, const Graph& g0,
                    uint64_t policy_seed,
                    const std::vector<std::vector<GraphDelta>>& history,
                    std::vector<Sample> samples,
                    const BatchSsspEngine& engine) {
  if (samples.empty()) {
    report.problem("no sampled answers to verify");
    return;
  }
  if (opt.self_test) samples[0].got = -2;
  report.failed += count_wrong(g0, policy_seed, history, samples, engine);
  report.note("verified_samples", static_cast<double>(samples.size()));
}

// ---- Churner -------------------------------------------------------------

Churner::Churner(const Graph& g0, std::span<const SptHandle> hot_trees,
                 uint64_t seed)
    : g0_(&g0) {
  Rng rng(sub_seed(kGraphSeed, 6));
  const Vertex n = g0.num_vertices();
  // Victims: parent edges of random vertices of random hot trees.
  for (size_t i = 0; i < kChurnPool; ++i) {
    const Spt& t = *hot_trees[rng.next_below(hot_trees.size())];
    EdgeId e = kNoEdge;
    while (e == kNoEdge) e = t.parent_edge(static_cast<Vertex>(rng.next_below(n)));
    victims_.push_back(e);
  }
  // Shortcuts: (u, v) at 3 or 4 hops in g0, found by a depth-4 BFS.
  std::vector<int32_t> dist(n, -1);
  std::vector<Vertex> seen;
  while (shortcuts_.size() < kChurnPool) {
    const Vertex u = static_cast<Vertex>(rng.next_below(n));
    seen.assign(1, u);
    dist[u] = 0;
    std::vector<Vertex> far;
    for (size_t head = 0; head < seen.size(); ++head) {
      const Vertex x = seen[head];
      if (dist[x] >= 3) far.push_back(x);
      if (dist[x] == 4) continue;
      for (const Arc& a : g0.arcs(x))
        if (dist[a.to] < 0) {
          dist[a.to] = dist[x] + 1;
          seen.push_back(a.to);
        }
    }
    for (Vertex x : seen) dist[x] = -1;
    if (!far.empty()) shortcuts_.push_back({u, far[rng.next_below(far.size())]});
  }
  Rng order(seed);
  order_.resize(kChurnPool);
  for (size_t i = 0; i < kChurnPool; ++i) {
    order_[i] = i;
    std::swap(order_[i], order_[order.next_below(i + 1)]);
  }
}

std::vector<GraphDelta> Churner::next() {
  std::vector<GraphDelta> b;
  const size_t i = order_[history_.size() % kChurnPool];
  if (!history_.empty()) {
    const EdgeId prev = history_.back()[history_.back().size() - 2].edge;
    const Edge pe = g0_->endpoints(prev);
    b.push_back(GraphDelta::insert(pe.u, pe.v));
    b.push_back(GraphDelta::remove(last_shortcut_));
  }
  b.push_back(GraphDelta::remove(victims_[i]));
  b.push_back(GraphDelta::insert(shortcuts_[i].u, shortcuts_[i].v));
  history_.push_back(b);
  return b;
}

void Churner::applied(const DeltaBatch& batch) {
  // The next batch heals the shortcut by the id this insert was given;
  // history() keeps the intents, so replays reproduce the same slots.
  last_shortcut_ = batch.deltas.back().edge;
}

}  // namespace perfbench
