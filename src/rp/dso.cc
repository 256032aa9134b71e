#include "rp/dso.h"

namespace restorable {

SubsetDistanceSensitivityOracle::SubsetDistanceSensitivityOracle(
    const IsolationRpts& pi, std::span<const Vertex> sources,
    const BatchSsspEngine* engine) {
  const SubsetRpResult rp = subset_replacement_paths(pi, sources, engine);
  for (const auto& pair : rp.pairs) {
    PairRecord rec;
    if (!pair.base_path.empty()) {
      rec.base = static_cast<int32_t>(pair.base_path.length());
      rec.on_path.reserve(pair.replacement.size());
      for (size_t i = 0; i < pair.replacement.size(); ++i)
        rec.on_path.emplace(pair.base_path.edges[i], pair.replacement[i]);
    }
    pairs_.emplace(key(pair.s1, pair.s2), std::move(rec));
  }
}

int32_t SubsetDistanceSensitivityOracle::query(Vertex s1, Vertex s2,
                                               EdgeId e) const {
  if (s1 == s2) return 0;
  const auto it = pairs_.find(key(s1, s2));
  if (it == pairs_.end() || it->second.base == kUnreachable)
    return kUnreachable;
  const auto& rec = it->second;
  const auto hit = rec.on_path.find(e);
  // Stability: a failure off the canonical path leaves the distance intact.
  return hit == rec.on_path.end() ? rec.base : hit->second;
}

int32_t SubsetDistanceSensitivityOracle::base_distance(Vertex s1,
                                                       Vertex s2) const {
  if (s1 == s2) return 0;
  const auto it = pairs_.find(key(s1, s2));
  return it == pairs_.end() ? kUnreachable : it->second.base;
}

size_t SubsetDistanceSensitivityOracle::entries() const {
  size_t total = pairs_.size();
  for (const auto& [k, rec] : pairs_) total += rec.on_path.size();
  return total;
}

}  // namespace restorable
