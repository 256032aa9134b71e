#include "labeling/ft_oracle.h"

#include <stdexcept>
#include <string>

#include "graph/bfs.h"

namespace restorable {

FtDistanceOracle::FtDistanceOracle(const IRpts& pi,
                                   std::span<const Vertex> sources, int f,
                                   const BatchSsspEngine* engine)
    : f_(f),
      h_(build_sv_preserver(pi, sources, f, nullptr, engine)
             .to_graph()) {
  label_to_h_.assign(pi.graph().num_edges(), kNoEdge);
  for (EdgeId e = 0; e < h_.num_edges(); ++e) label_to_h_[h_.label(e)] = e;
}

int32_t FtDistanceOracle::query(Vertex s, Vertex t,
                                const FaultSet& faults) const {
  if (!faults.empty() && faults.ids().back() >= label_to_h_.size())
    throw std::out_of_range("FtDistanceOracle::query: fault edge id " +
                            std::to_string(faults.ids().back()) +
                            " out of range");
  std::vector<EdgeId> h_faults;
  for (EdgeId ge : faults) {
    const EdgeId he = label_to_h_[ge];
    if (he != kNoEdge) h_faults.push_back(he);
  }
  return bfs_distance(h_, s, t, FaultSet(std::move(h_faults)));
}

}  // namespace restorable
