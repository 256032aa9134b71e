#include "rp/two_fault_oracle.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace restorable {

TwoFaultSubsetOracle::TwoFaultSubsetOracle(const IRpts& pi,
                                           std::span<const Vertex> sources,
                                           const BatchSsspEngine* engine)
    : g_(&pi.graph()) {
  // Batch 1: the sigma base trees.
  std::vector<SsspRequest> base_reqs;
  base_reqs.reserve(sources.size());
  for (Vertex s : sources) base_reqs.push_back({s, {}, Direction::kOut});
  std::vector<SptHandle> bases = pi.spt_batch(base_reqs, engine);

  // Batch 2: one tree per (source, faulted base-tree edge) -- the Theta(n)
  // fault fan-out per source that dominates preprocessing.
  std::vector<std::pair<Vertex, EdgeId>> keys;
  std::vector<SsspRequest> fault_reqs;
  for (size_t i = 0; i < sources.size(); ++i) {
    for (EdgeId e : bases[i]->tree_edges()) {
      keys.emplace_back(sources[i], e);
      fault_reqs.push_back({sources[i], FaultSet{e}, Direction::kOut});
    }
  }
  std::vector<SptHandle> fault_trees = pi.spt_batch(fault_reqs, engine);

  for (size_t i = 0; i < sources.size(); ++i) {
    PerSource ps;
    ps.base = std::move(bases[i]);
    per_source_.emplace(sources[i], std::move(ps));
  }
  for (size_t k = 0; k < keys.size(); ++k)
    per_source_[keys[k].first].under_fault.emplace(
        keys[k].second, std::move(fault_trees[k]));
}

int32_t TwoFaultSubsetOracle::query(Vertex s1, Vertex s2,
                                    const FaultSet& faults) const {
  if (faults.size() > 2)
    throw std::invalid_argument("TwoFaultSubsetOracle::query: " +
                                std::to_string(faults.size()) +
                                " faults, at most 2 supported");
  check_fault_ids(*g_, faults, "TwoFaultSubsetOracle::query");
  if (s1 == s2) return 0;
  const auto it1 = per_source_.find(s1);
  const auto it2 = per_source_.find(s2);
  if (it1 == per_source_.end() || it2 == per_source_.end())
    return kUnreachable;

  // Proper subsets F' of F: {} plus each singleton of a 2-element F.
  std::vector<FaultSet> subsets{FaultSet{}};
  if (faults.size() == 2)
    for (EdgeId e : faults) subsets.push_back(FaultSet{e});

  int32_t best = kUnreachable;
  for (const FaultSet& sub : subsets) {
    // tree(s, F') -- F' is {} or one edge.
    const Spt& t1 = sub.empty() ? *it1->second.base
                                : tree(it1->second, *sub.begin());
    const Spt& t2 = sub.empty() ? *it2->second.base
                                : tree(it2->second, *sub.begin());
    const auto bad1 = t1.paths_using_any(faults);
    const auto bad2 = t2.paths_using_any(faults);
    for (Vertex x = 0; x < g_->num_vertices(); ++x) {
      if (!t1.reachable(x) || !t2.reachable(x)) continue;
      if (bad1[x] || bad2[x]) continue;
      const int32_t h = t1.hops(x) + t2.hops(x);
      if (best == kUnreachable || h < best) best = h;
    }
  }
  return best;
}

size_t TwoFaultSubsetOracle::trees_stored() const {
  size_t total = 0;
  for (const auto& [s, ps] : per_source_) total += 1 + ps.under_fault.size();
  return total;
}

}  // namespace restorable
