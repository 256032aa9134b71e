// Experiment E12: the dual-failure subset oracle (Definition 17, f = 2, as
// a data structure) -- preprocessing cost, space, and query latency against
// recompute-from-scratch BFS. Preprocessing is the Theta(sigma n) SSSP
// fan-out, so it rides the batch engine: --threads N sets the engine width
// and --json PATH emits one row per family for trajectory tracking. Query
// latency is the median of several timed passes over one query set, so a
// single preempted pass does not move the row.
#include <algorithm>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/rpts.h"
#include "engine/batch_sssp.h"
#include "graph/bfs.h"
#include "graph/generators.h"
#include "rp/two_fault_oracle.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/random.h"
#include "util/table.h"
#include "util/timing.h"

namespace restorable {
namespace {

void run_row(Table& table, JsonRows& json, const std::string& family,
             const Graph& g, size_t sigma, uint64_t seed,
             const BatchSsspEngine& engine) {
  std::vector<Vertex> sources;
  for (size_t i = 0; i < sigma; ++i)
    sources.push_back(static_cast<Vertex>((i * g.num_vertices()) / sigma));
  IsolationRpts pi(g, IsolationAtw(seed));

  Stopwatch prep;
  const TwoFaultSubsetOracle oracle(pi, sources, &engine);
  const double prep_s = prep.seconds();

  // Random two-fault queries, each checked against BFS once; then the
  // oracle and BFS answer the whole set in alternating passes, kPasses
  // each, and the median pass is each side's latency. Alternating keeps the
  // two sides on the same host state: on a shared 4-core host the passes
  // of one process agree within a few percent, while whole processes differ
  // by up to 1.6x, both sides together.
  struct Query {
    Vertex s1, s2;
    FaultSet f;
  };
  constexpr size_t kQueries = 300;
  constexpr int kPasses = 7;
  Rng rng(seed + 1);
  std::vector<Query> queries;
  while (queries.size() < kQueries) {
    const Vertex s1 = sources[rng.next_below(sources.size())];
    const Vertex s2 = sources[rng.next_below(sources.size())];
    if (s1 == s2) continue;
    queries.push_back(
        {s1, s2,
         FaultSet{static_cast<EdgeId>(rng.next_below(g.num_edges())),
                  static_cast<EdgeId>(rng.next_below(g.num_edges()))}});
  }
  size_t correct = 0;
  for (const Query& q : queries)
    if (oracle.query(q.s1, q.s2, q.f) == bfs_distance(g, q.s1, q.s2, q.f))
      ++correct;
  std::vector<double> oracle_s, bfs_s;
  for (int p = 0; p < kPasses; ++p) {
    Stopwatch w1;
    for (const Query& q : queries) oracle.query(q.s1, q.s2, q.f);
    oracle_s.push_back(w1.seconds());
    Stopwatch w2;
    for (const Query& q : queries) bfs_distance(g, q.s1, q.s2, q.f);
    bfs_s.push_back(w2.seconds());
  }
  const auto median_us = [&](std::vector<double>& pass_s) {
    std::sort(pass_s.begin(), pass_s.end());
    return 1e6 * pass_s[kPasses / 2] / kQueries;
  };
  const double oracle_us = median_us(oracle_s);
  const double bfs_us = median_us(bfs_s);
  table.add_row(family, g.num_vertices(), g.num_edges(), sigma,
                engine.threads(), oracle.trees_stored(), prep_s, oracle_us,
                bfs_us,
                std::to_string(correct) + "/" + std::to_string(kQueries));
  json.row()
      .field("bench", "two_fault_oracle")
      .field("family", family)
      .field("n", static_cast<uint64_t>(g.num_vertices()))
      .field("m", static_cast<uint64_t>(g.num_edges()))
      .field("sigma", sigma)
      .field("threads", engine.threads())
      .field("trees", oracle.trees_stored())
      .field("prep_s", prep_s)
      .field("oracle_us_per_query", oracle_us)
      .field("bfs_us_per_query", bfs_us)
      .field("correct", correct)
      .field("queries", kQueries)
      .field("hw_threads",
             static_cast<uint64_t>(std::thread::hardware_concurrency()));
}

}  // namespace
}  // namespace restorable

int main(int argc, char** argv) {
  using namespace restorable;
  int threads = 0;  // 0 = hardware
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (const char* v = flag_value(argc, argv, i, "--threads")) {
      threads = std::atoi(v);
    } else if (const char* v = flag_value(argc, argv, i, "--json")) {
      json_path = v;
    } else {
      std::cerr << "unknown flag: " << argv[i]
                << " (supported: --threads N, --json PATH)\n";
      return 2;
    }
  }

  const BatchSsspEngine engine(threads);
  std::cout << "E12: dual-failure subset distance oracle (2-restorability as\n"
               "a data structure); query latency vs recompute BFS. Engine\n"
               "width: "
            << engine.threads() << " threads.\n\n";
  Table table({"family", "n", "m", "sigma", "threads", "trees", "prep_s",
               "oracle us/q", "bfs us/q", "correct"});
  JsonRows json;
  run_row(table, json, "gnp(200,.08)", gnp_connected(200, 0.08, 3), 6, 21,
          engine);
  run_row(table, json, "gnp(400,.05)", gnp_connected(400, 0.05, 4), 6, 22,
          engine);
  run_row(table, json, "torus(12x12)", torus(12, 12), 8, 23, engine);
  run_row(table, json, "cliquechain(20,10)", clique_chain(20, 10), 6, 24,
          engine);
  table.print();
  std::cout
      << "\nExpected shape: all queries correct -- that is the\n"
         "2-restorability guarantee (Definition 17) doing the work: three\n"
         "precomputed trees per query suffice for ANY two faults. Query\n"
         "cost is Theta(n) midpoint scanning independent of m; plain BFS\n"
         "remains competitive at laptop scales (it early-exits on small\n"
         "diameters) but grows with m while the oracle does not.\n";
  if (!json_path.empty() && !json.write_file(json_path, std::cout, std::cerr))
    return 1;
  return 0;
}
