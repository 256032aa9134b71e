// Workload graph generators.
//
// All generators are deterministic in their seed. Families were chosen to
// cover the regimes the paper's bounds distinguish: sparse/dense random
// graphs, bounded-degree lattices (large diameter, the CONGEST-relevant
// regime), cycles (the C4 impossibility example generalizes), and dumbbells
// (bridges: faults that disconnect).
#pragma once

#include <cstdint>

#include "graph/graph.h"

namespace restorable {

// Erdos-Renyi G(n, p).
Graph gnp(Vertex n, double p, uint64_t seed);

// G(n, p) plus a random spanning tree, so the result is always connected
// (and stays 2-edge-connected-ish for the densities we use).
Graph gnp_connected(Vertex n, double p, uint64_t seed);

// Uniform random graph with exactly m distinct edges.
Graph gnm(Vertex n, EdgeId m, uint64_t seed);

// Simple cycle on n >= 3 vertices. cycle(4) is the C4 of Theorem 37.
Graph cycle(Vertex n);

// Simple path on n vertices (n - 1 edges).
Graph path_graph(Vertex n);

// Complete graph K_n.
Graph complete(Vertex n);

// rows x cols grid; vertex (r, c) has index r * cols + c.
Graph grid(Vertex rows, Vertex cols);

// rows x cols torus (grid with wraparound edges); 4-regular.
Graph torus(Vertex rows, Vertex cols);

// d-dimensional hypercube, 2^d vertices.
Graph hypercube(int d);

// Uniform random labelled tree on n vertices (random Pruefer sequence).
Graph random_tree(Vertex n, uint64_t seed);

// Two cliques of size k joined by a path of `bridge_len` edges. Every path
// edge is a bridge: faults on it disconnect the graph, exercising the
// "no replacement path exists" code paths.
Graph dumbbell(Vertex k, Vertex bridge_len);

// n-vertex graph made of stacked 4-cycles sharing endpoints: s and t joined
// by `width` internally-disjoint paths of length `len`. Maximizes shortest
// path ties, the adversarial regime for tiebreaking.
Graph theta_graph(Vertex width, Vertex len);

// A chain of k cliques of size c; consecutive cliques share one connecting
// edge between representatives. Dense (m ~ k c^2) yet of diameter ~2k: the
// regime where replacement paths are long AND per-fault BFS is expensive --
// exactly where Theorem 3's O(sigma m) + O~(sigma^2 n) beats the naive
// Theta(sigma^2 d m) baseline.
Graph clique_chain(Vertex k, Vertex c);

// Connected sparse graph at production scale: a random spanning tree plus
// (avg_degree/2 - 1) * n random extra edges, built in O(n + m) with a
// hash-set dedup -- no O(n^2) pair scan, so n = 10^5..10^7 generates in
// seconds. Road-network-like when avg_degree is small (2.5-4). perfbench's
// cold_miss graph and graph_pack's `--gen sparse` (the CI 10^6-node
// freeze/thaw round trip) use it.
Graph sparse_connected(Vertex n, double avg_degree, uint64_t seed);

}  // namespace restorable
