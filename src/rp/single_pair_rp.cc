// The policy-free cover of the candidate method, and explicit instantiations
// of the single-pair replacement path algorithm for the shipped tiebreaking
// policies, so most clients can link against the library without
// recompiling the template.
#include "rp/single_pair_rp.h"

#include <algorithm>

namespace restorable {

std::vector<int32_t> cover_failures(std::span<const RpCandidate> candidates,
                                    int32_t d) {
  std::vector<int32_t> replacement(d, kUnreachable);
  // Pooled per thread: subset-rp covers one pair per call on long-lived pool
  // workers, so after warmup the cover allocates only its result.
  thread_local std::vector<RpCandidate> sorted;
  thread_local std::vector<int32_t> bucket;  // counting sort by hops - d
  thread_local std::vector<int32_t> next;  // an unpainted failure >= i, or d+1

  int32_t top = d;
  for (const RpCandidate& c : candidates) top = std::max(top, c.hops);
  bucket.assign(static_cast<size_t>(top - d) + 2, 0);
  for (const RpCandidate& c : candidates) ++bucket[c.hops - d + 1];
  for (size_t k = 1; k < bucket.size(); ++k) bucket[k] += bucket[k - 1];
  sorted.resize(candidates.size());
  for (const RpCandidate& c : candidates) sorted[bucket[c.hops - d]++] = c;

  // Ascending hops, each candidate paints the unpainted failures of
  // [lo, hi]; next[] skips painted runs (path halving).
  next.resize(d + 2);
  for (int32_t i = 0; i <= d + 1; ++i) next[i] = i;
  const auto find = [](int32_t i) {
    while (next[i] != i) i = next[i] = next[next[i]];
    return i;
  };
  for (const RpCandidate& c : sorted) {
    for (int32_t i = find(c.lo); i <= c.hi; i = find(i)) {
      replacement[i - 1] = c.hops;
      next[i] = i + 1;
    }
  }
  return replacement;
}

template ReplacementPathsResult single_pair_replacement_paths<IsolationAtw>(
    const Graph&, const IsolationAtw&, Vertex, Vertex);
template ReplacementPathsResult single_pair_replacement_paths<RandomRealAtw>(
    const Graph&, const RandomRealAtw&, Vertex, Vertex);
template ReplacementPathsResult single_pair_replacement_paths<DeterministicAtw>(
    const Graph&, const DeterministicAtw&, Vertex, Vertex);

}  // namespace restorable
