// Fault-tolerant exact distance labeling (Section 4.3, Theorem 30).
//
// The label of vertex v is the explicit edge list of an f-FT {v} x V
// preserver built from a restorable scheme. To answer dist_{G\F}(s, t) one
// reads ONLY the two labels (no edge labels, no global state): union the two
// edge lists, delete F, and run BFS. Restorability guarantees the union
// contains a replacement shortest path for up to f+1 faults -- one more
// fault than either preserver alone tolerates.
//
// Labels are self-contained: edges are stored as endpoint pairs, and the bit
// size accounting (2 ceil(log2 n) bits per edge) matches Theorem 30's
// O(n^{2-1/2^f} log n) bound.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/rpts.h"
#include "graph/graph.h"

namespace restorable {

struct DistanceLabel {
  Vertex owner = kNoVertex;
  Vertex n = 0;                  // vertex-id universe, for decoding
  std::vector<Edge> edges;       // the {owner} x V preserver's edges

  // Label size in bits under the natural encoding.
  size_t bits() const;
};

class FtDistanceLabeling {
 public:
  // Builds (f+1)-FT labels for every vertex: each label is an f-FT
  // {v} x V preserver under the given restorable scheme. The n per-vertex
  // preserver builds are independent and fan out over `engine` (nullptr =
  // shared engine).
  FtDistanceLabeling(const IRpts& pi, int f,
                     const BatchSsspEngine* engine = nullptr);

  int fault_tolerance() const { return f_ + 1; }
  const DistanceLabel& label(Vertex v) const { return labels_[v]; }
  size_t max_label_bits() const;
  double avg_label_bits() const;

  // Decodes dist_{G\F}(s, t) from the two labels alone. F is given as
  // endpoint pairs (the query has no access to G's edge ids -- exactly the
  // paper's model, where the query knows s, t and "a description of the
  // edge set F").
  static int32_t query(const DistanceLabel& ls, const DistanceLabel& lt,
                       std::span<const Edge> faults);

 private:
  int f_;
  std::vector<DistanceLabel> labels_;
};

// Wire format for shipping a label to a remote decoder (labels are
// self-contained bitstrings in the model; this is the executable analogue):
//   "RSPL1 <owner> <n> <k>" followed by k "u v" pairs.
std::string encode_label(const DistanceLabel& label);
DistanceLabel decode_label(const std::string& wire);

}  // namespace restorable
