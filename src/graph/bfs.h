// Plain (untiebroken) breadth-first search utilities. These serve as ground
// truth in tests and as the naive baselines the paper's algorithms are
// compared against: a hop distance computed here under a fault set is the
// quantity every replacement-path structure must reproduce. A source or
// target >= n throws std::out_of_range.
#pragma once

#include <vector>

#include "graph/graph.h"

namespace restorable {

// Hop distances from s in G \ faults; kUnreachable for disconnected vertices.
std::vector<int32_t> bfs_distances(const Graph& g, Vertex s,
                                   const FaultSet& faults = {});

// Single-pair hop distance in G \ faults (early-exit BFS).
int32_t bfs_distance(const Graph& g, Vertex s, Vertex t,
                     const FaultSet& faults = {});

// Any one shortest s ~> t path in G \ faults (arbitrary tiebreaking);
// empty path if unreachable.
Path bfs_path(const Graph& g, Vertex s, Vertex t, const FaultSet& faults = {});

// True if G \ faults is connected (ignoring isolated vertex sets only if
// n == 0).
bool is_connected(const Graph& g, const FaultSet& faults = {});

// Eccentricity of s (max finite hop distance; kUnreachable if some vertex is
// unreachable).
int32_t eccentricity(const Graph& g, Vertex s);

// Exact diameter via n BFS runs; kUnreachable if disconnected.
int32_t diameter(const Graph& g);

}  // namespace restorable
