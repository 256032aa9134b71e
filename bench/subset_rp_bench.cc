// Experiment E2 (Theorem 3): Algorithm 1 versus the naive per-fault-BFS
// baseline, with a thread-count axis over the batch-SSSP engine.
//
// Theorem 3's runtime O(sigma m) + O~(sigma^2 n) beats the naive
// Theta(sigma^2 d m) exactly when base paths are long (d large) and the
// graph is dense (m >> n). Two workload regimes are therefore reported:
//  * clique chains (m ~ k c^2, d ~ 2k): the theorem's winning regime;
//  * small-diameter G(n, p) (d ~ 4): the degenerate regime where naive
//    per-fault BFS is trivially cheap -- included for honesty about
//    the crossover.
//
// Scenario axes:
//   --threads 1,4       comma list of engine widths; each is measured
//   --json PATH         emit one JSON row per (family, sigma, threads)
//   --small             reduced family set (CI bench-smoke job)
//   --summary-only      skip the google-benchmark section
//
// Remaining argv is handed to google-benchmark (timings with statistical
// repetition); the summary table prints median wall times plus the work
// terms and whether both algorithms agree, and is what feeds
// BENCH_SUBSET_RP.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "engine/batch_sssp.h"
#include "graph/bfs.h"
#include "graph/generators.h"
#include "rp/naive_rp.h"
#include "rp/subset_rp.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/table.h"
#include "util/timing.h"

namespace restorable {
namespace {

// Dense, long-diameter family: k cliques of size 20.
Graph chain_graph(int k) { return clique_chain(static_cast<Vertex>(k), 20); }

std::vector<Vertex> spread_sources(const Graph& g, int sigma) {
  std::vector<Vertex> s;
  for (int i = 0; i < sigma; ++i)
    s.push_back(static_cast<Vertex>(
        (static_cast<uint64_t>(i) * g.num_vertices()) / sigma));
  return s;
}

void BM_Algorithm1(benchmark::State& state) {
  const Graph g = chain_graph(static_cast<int>(state.range(0)));
  IsolationRpts pi(g, IsolationAtw(7));
  const auto sources = spread_sources(g, static_cast<int>(state.range(1)));
  const BatchSsspEngine engine(static_cast<int>(state.range(2)));
  for (auto _ : state) {
    auto res = subset_replacement_paths(pi, sources, &engine);
    benchmark::DoNotOptimize(res);
  }
  state.counters["n"] = static_cast<double>(g.num_vertices());
  state.counters["m"] = static_cast<double>(g.num_edges());
  state.counters["sigma"] = static_cast<double>(sources.size());
  state.counters["threads"] = static_cast<double>(engine.threads());
}

void BM_NaiveBaseline(benchmark::State& state) {
  const Graph g = chain_graph(static_cast<int>(state.range(0)));
  IsolationRpts pi(g, IsolationAtw(7));
  const auto sources = spread_sources(g, static_cast<int>(state.range(1)));
  const BatchSsspEngine engine(static_cast<int>(state.range(2)));
  for (auto _ : state) {
    auto res = naive_subset_replacement_paths(pi, sources, &engine);
    benchmark::DoNotOptimize(res);
  }
  state.counters["n"] = static_cast<double>(g.num_vertices());
  state.counters["m"] = static_cast<double>(g.num_edges());
  state.counters["sigma"] = static_cast<double>(sources.size());
  state.counters["threads"] = static_cast<double>(engine.threads());
}

BENCHMARK(BM_Algorithm1)
    ->ArgsProduct({{10, 20, 40}, {4, 8}, {1, 4}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_NaiveBaseline)
    ->ArgsProduct({{10, 20, 40}, {4, 8}, {1, 4}})
    ->Unit(benchmark::kMillisecond);

// Median wall time of kTimedRuns calls after one untimed warm-up call (pool
// threads, thread-local workspaces and the allocator settle in the
// warm-up). `out` keeps the last call's result.
constexpr int kTimedRuns = 5;

template <typename F>
double median_ms(SubsetRpResult& out, F&& run) {
  out = run();
  std::vector<double> ms;
  for (int i = 0; i < kTimedRuns; ++i) {
    Stopwatch w;
    out = run();
    ms.push_back(w.millis());
  }
  std::sort(ms.begin(), ms.end());
  return ms[kTimedRuns / 2];
}

// Algorithm 1 and the naive baseline select the same canonical paths, so
// their outputs must agree pair for pair.
bool same_output(const SubsetRpResult& a, const SubsetRpResult& b) {
  if (a.pairs.size() != b.pairs.size()) return false;
  for (size_t i = 0; i < a.pairs.size(); ++i)
    if (a.pairs[i].base_path != b.pairs[i].base_path ||
        a.pairs[i].replacement != b.pairs[i].replacement)
      return false;
  return true;
}

void summary(Table& table, JsonRows& json, const std::string& family,
             const Graph& g, int sigma, int threads) {
  IsolationRpts pi(g, IsolationAtw(7));
  const auto sources = spread_sources(g, sigma);
  const BatchSsspEngine engine(threads);
  threads = engine.threads();  // report the actual width (0 = hardware)
  SubsetRpResult fast, naive;
  const double t1 = median_ms(
      fast, [&] { return subset_replacement_paths(pi, sources, &engine); });
  const double t2 = median_ms(naive, [&] {
    return naive_subset_replacement_paths(pi, sources, &engine);
  });
  const bool correct = same_output(fast, naive);
  size_t d_total = 0;
  for (const auto& pr : fast.pairs) d_total += pr.base_path.length();
  const size_t pairs = fast.pairs.size();
  table.add_row(family, g.num_vertices(), g.num_edges(), sigma, threads,
                pairs ? d_total / pairs : 0, t1, t2, t2 / t1,
                correct ? "yes" : "NO");
  json.row()
      .field("bench", "subset_rp")
      .field("family", family)
      .field("n", static_cast<uint64_t>(g.num_vertices()))
      .field("m", static_cast<uint64_t>(g.num_edges()))
      .field("sigma", sigma)
      .field("threads", threads)
      .field("avg_d", pairs ? d_total / pairs : 0)
      .field("alg1_ms", t1)
      .field("naive_ms", t2)
      .field("speedup_vs_naive", t2 / t1)
      .field("correct", correct)
      .field("hw_threads",
             static_cast<uint64_t>(std::thread::hardware_concurrency()));
}

struct Options {
  std::vector<int> threads{1};
  std::string json_path;
  bool small = false;
  bool summary_only = false;
};

// Parses and strips our flags; leaves the rest for google-benchmark.
Options parse_options(int& argc, char** argv) {
  Options opt;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) { return flag_value(argc, argv, i, flag); };
    if (const char* v = value("--threads")) {
      opt.threads.clear();
      for (const char* p = v; *p;) {
        opt.threads.push_back(std::atoi(p));
        while (*p && *p != ',') ++p;
        if (*p == ',') ++p;
      }
    } else if (const char* v = value("--json")) {
      opt.json_path = v;
    } else if (arg == "--small") {
      opt.small = true;
    } else if (arg == "--summary-only" || arg == "--summary_only") {
      opt.summary_only = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  if (opt.threads.empty()) opt.threads.push_back(1);
  return opt;
}

int print_summary_table(const Options& opt) {
  std::cout << "\nE2 summary (Theorem 3): Algorithm 1 vs naive per-fault "
               "BFS\navg_d = mean base-path length; times are medians of "
            << kTimedRuns
            << " runs after a warm-up; speedup = naive/alg1; threads = "
               "engine width;\ncorrect = both outputs agree pair for "
               "pair.\n\n";
  Table table({"family", "n", "m", "sigma", "threads", "avg_d", "alg1_ms",
               "naive_ms", "speedup", "correct"});
  JsonRows json;
  const std::vector<int> chain_ks =
      opt.small ? std::vector<int>{10, 20} : std::vector<int>{10, 20, 40, 80};
  const std::vector<int> sigmas =
      opt.small ? std::vector<int>{4} : std::vector<int>{4, 8};
  for (int threads : opt.threads) {
    for (int k : chain_ks)
      for (int sigma : sigmas)
        summary(table, json, "cliquechain(" + std::to_string(k) + ",20)",
                chain_graph(k), sigma, threads);
    if (!opt.small) {
      for (int n : {400, 1600})
        summary(table, json, "gnp(" + std::to_string(n) + ")",
                gnp_connected(static_cast<Vertex>(n), std::min(0.9, 16.0 / n),
                              1234 + n),
                8, threads);
    }
  }
  table.print();
  std::cout
      << "Expected shape: on long-path dense families the speedup grows\n"
         "with k (naive pays d ~ 2k BFS passes of Theta(m) per pair);\n"
         "on diameter-4 G(n,p) the naive baseline is competitive, matching\n"
         "the paper's remark that sigma^2 n is output cost only when\n"
         "distances are Omega(n). Rising --threads should shrink both\n"
         "columns on multi-core hosts; request-order determinism makes the\n"
         "outputs identical at every width.\n";
  if (!opt.json_path.empty() &&
      !json.write_file(opt.json_path, std::cout, std::cerr))
    return 1;
  return 0;
}

}  // namespace
}  // namespace restorable

int main(int argc, char** argv) {
  restorable::Options opt = restorable::parse_options(argc, argv);
  if (!opt.summary_only) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  return restorable::print_summary_table(opt);
}
