// Experiment E3 (Theorems 5/26/31): measured sizes of f-FT S x V preservers
// and (f+1)-FT S x S preservers against the n^{2-1/2^f} |S|^{1/2^f} bound.
#include <iostream>

#include "core/bounds.h"
#include "graph/generators.h"
#include "preserver/ft_preserver.h"
#include "util/table.h"
#include "util/timing.h"

namespace restorable {
namespace {

std::vector<Vertex> spread_sources(const Graph& g, size_t sigma) {
  std::vector<Vertex> s;
  for (size_t i = 0; i < sigma; ++i)
    s.push_back(static_cast<Vertex>((i * g.num_vertices()) / sigma));
  return s;
}

void run_family(Table& table, int f, Vertex n, size_t sigma, uint64_t seed) {
  const double p = std::min(0.9, 12.0 / n);
  Graph g = gnp_connected(n, p, seed);
  IsolationRpts pi(g, IsolationAtw(seed * 3 + 1));
  const auto sources = spread_sources(g, sigma);
  PreserverStats stats;
  Stopwatch w;
  const EdgeSubset pres = build_sv_preserver(pi, sources, f, &stats);
  const double secs = w.seconds();
  const double bound = sv_preserver_bound(n, static_cast<double>(sigma), f);
  table.add_row(f, n, g.num_edges(), sigma, pres.count(), bound,
                static_cast<double>(pres.count()) / bound,
                stats.spt_computations, stats.fault_deltas, secs);
}

}  // namespace
}  // namespace restorable

int main() {
  using namespace restorable;
  std::cout
      << "E3: f-FT S x V preserver sizes vs Theorem 26 bound\n"
      << "(the same subgraph is the (f+1)-FT S x S preserver of Thm 31)\n\n";
  Table table({"f", "n", "m", "sigma", "edges", "bound", "edges/bound",
               "spt_calls", "deltas", "sec"});
  // f = 0: union of sigma trees, bound n * sigma.
  for (Vertex n : {200u, 400u, 800u})
    for (size_t sigma : {2u, 4u, 8u}) run_family(table, 0, n, sigma, n + sigma);
  // f = 1: bound n^{3/2} sigma^{1/2}.
  for (Vertex n : {100u, 200u, 400u})
    for (size_t sigma : {2u, 4u}) run_family(table, 1, n, sigma, n + sigma);
  // f = 2: bound n^{7/4} sigma^{1/4} (small n; the overlay enumerates
  // O(n^2) fault sets per source).
  for (Vertex n : {40u, 80u})
    for (size_t sigma : {1u, 2u}) run_family(table, 2, n, sigma, n + sigma);
  table.print();
  std::cout << "\nExpected shape: edges/bound stays bounded (well below 1 "
               "with\nthese densities) as n grows, for every f.\n";
  return 0;
}
