// Antisymmetric tiebreaking weight (ATW) functions, Section 3 of the paper.
//
// An ATW function r assigns each directed arc (u, v) of the symmetric
// directed version of G a perturbation with r(u, v) = -r(v, u), small enough
// that in the reweighted graph G* (w = 1 + r) every shortest path is still a
// shortest path of G, and -- with probability 1 / high probability /
// deterministically, depending on the policy -- unique under every fault set.
//
// Because |sum of perturbations along a simple path| < 1/2, a perturbed path
// length is represented *exactly* as the pair (hops, tie) compared
// lexicographically, where `tie` is policy-specific:
//
//  * IsolationAtw     -- Corollary 22: integer numerators drawn uniformly
//                        from [-W, W] via seed hashing; tie = int64 sum.
//                        Exact arithmetic; O(f log n) bits conceptually.
//  * RandomRealAtw    -- Theorem 20: real-RAM construction with long double
//                        values in [-eps, eps], eps < 1/(2n).
//  * DeterministicAtw -- Theorem 23: r(u,v) = sign(u-v) * C^(-i) with C = 4
//                        and i the edge id; tie = signed multiset of
//                        exponents, compared by geometric dominance. Exact
//                        and deterministic, Theta(|path|) words per tie.
//
// Policies are value types with three obligations:
//    Tie zero() const
//    void accumulate(Tie&, EdgeId label, bool forward) const
//    int  compare(const Tie&, const Tie&) const   (<0, 0, >0)
// plus reporting helpers used by the Section 3.2 ablation bench.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/random.h"

namespace restorable {

// A perturbed distance: hop count plus accumulated tie perturbation. The hop
// count always dominates (guaranteed by each policy's magnitude bound), so
// lexicographic comparison equals numeric comparison of 1*hops + tie.
template <typename Tie>
struct PerturbedDist {
  int32_t hops = 0;
  Tie tie{};
};

// ---------------------------------------------------------------------------
// The trivial policy: no perturbation at all. Ties are empty and always
// compare equal, so lengths are bare hop counts. It is not an ATW (shortest
// paths are not unique under it); the (1+eps) tier runs the repair and the
// survival test of core/rpts.h with it, which makes that tier hops-only and
// policy-free.
struct HopsOnly {
  struct Tie {};
  Tie zero() const { return {}; }
  void accumulate(Tie&, EdgeId, bool) const {}
  int compare(const Tie&, const Tie&) const { return 0; }
};

// ---------------------------------------------------------------------------
// Corollary 22: isolation-lemma integer weights.
//
// r(u, v) = h(label) / D where h(label) is a hash-derived integer in
// [-W, W], and the implicit denominator D satisfies (n-1) * W < D / 2, so a
// path sum never reaches 1/2 hop. Sums stay well inside int64. Being
// hash-derived (not sampled-and-stored), any party knowing the seed computes
// the weight of any edge locally -- exactly what the distributed
// constructions in Section 4.5 need.
class IsolationAtw {
 public:
  using Tie = int64_t;

  // `weight_range` is W; the default gives ~2^44 distinct values per edge,
  // far beyond the m/W isolation-lemma failure bound for any graph that fits
  // in memory, while (n-1)*W stays < 2^63 for n up to ~2^18. For larger n,
  // pass a smaller W.
  explicit IsolationAtw(uint64_t seed, int64_t weight_range = int64_t{1} << 44)
      : seed_(seed), w_(weight_range) {}

  Tie zero() const { return 0; }

  int64_t arc_value(EdgeId label, bool forward) const {
    // Map hash to [-W, W] uniformly.
    const uint64_t h = hash_combine(seed_, label);
    const int64_t v =
        static_cast<int64_t>(h % static_cast<uint64_t>(2 * w_ + 1)) - w_;
    return forward ? v : -v;
  }

  void accumulate(Tie& t, EdgeId label, bool forward) const {
    t += arc_value(label, forward);
  }

  int compare(const Tie& a, const Tie& b) const {
    return a < b ? -1 : (a > b ? 1 : 0);
  }

  std::string name() const { return "isolation"; }
  // Bits to store one edge weight: log2(2W + 1).
  double bits_per_edge() const {
    double bits = 0;
    for (int64_t v = 2 * w_ + 1; v > 1; v >>= 1) ++bits;
    return bits;
  }

  uint64_t seed() const { return seed_; }
  int64_t weight_range() const { return w_; }

 private:
  uint64_t seed_;
  int64_t w_;
};

// ---------------------------------------------------------------------------
// Theorem 20: random reals in [-eps, eps] (real-RAM; here long double).
class RandomRealAtw {
 public:
  using Tie = long double;

  // eps must be < 1/(2n); callers pass n and we use eps = 1/(4n).
  RandomRealAtw(uint64_t seed, Vertex n)
      : seed_(seed), eps_(1.0L / (4.0L * static_cast<long double>(n > 0 ? n : 1))) {}

  Tie zero() const { return 0.0L; }

  long double arc_value(EdgeId label, bool forward) const {
    const uint64_t h = hash_combine(seed_, label);
    // Uniform in [-eps, eps].
    const long double u =
        static_cast<long double>(h >> 11) / static_cast<long double>(1ULL << 53);
    const long double v = (2.0L * u - 1.0L) * eps_;
    return forward ? v : -v;
  }

  void accumulate(Tie& t, EdgeId label, bool forward) const {
    t += arc_value(label, forward);
  }

  int compare(const Tie& a, const Tie& b) const {
    return a < b ? -1 : (a > b ? 1 : 0);
  }

  std::string name() const { return "random-real"; }
  double bits_per_edge() const { return 8.0 * sizeof(long double); }

 private:
  uint64_t seed_;
  long double eps_;
};

// ---------------------------------------------------------------------------
// Theorem 23: deterministic geometric weights r(u,v) = sign(u-v) * C^(-i-1),
// C = 4, i = edge label. A tie value is the multiset of signed exponents
// accumulated along a path, kept sorted by exponent. Comparison finds the
// smallest exponent whose net coefficient differs; with C = 4 that term
// dominates the sum of all later terms (each net coefficient has magnitude
// <= 2 per exponent, and 2 * sum_{j>i} C^-j = (2/3) C^-i < 1 * C^-i), so the
// sign of the difference is the sign of that coefficient gap.
//
// sign(u - v) is taken on the *stored* endpoint order of the edge; since the
// stored order is fixed, "forward" travels u -> v and contributes
// sign(u - v), backward contributes the negation. Antisymmetry is immediate.
class DeterministicAtw {
 public:
  // Signed exponent list: value +(<label>+1) for a positive C^-(label+1)
  // contribution, negative for negated. Sorted by |entry| (the exponent).
  // Net coefficients in {-2..2} are kept as repeated entries (a simple path
  // contributes each exponent at most once, so entries repeat at most twice
  // when two path-sums are added).
  using Tie = std::vector<int32_t>;

  explicit DeterministicAtw(const Graph& g) {
    // sign(u - v) per edge label of the *base* graph; subgraphs share labels.
    sign_.resize(g.num_edges());
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const Edge& ed = g.endpoints(e);
      sign_[e] = ed.u > ed.v ? +1 : -1;
    }
  }

  Tie zero() const { return {}; }

  // Unlike the hash-derived policies, this one tabulates sign(u - v) per
  // label at construction, so it cannot evaluate a label appended to the
  // graph afterwards. The re-relax kernel's repair (ReRelax::repair, which
  // also decides IRpts::batch_survives) probes this and falls back to
  // conservative invalidation or recompute for unknown labels; re-inserted
  // (resurrected) edges keep their old label and stay evaluable.
  bool can_accumulate(EdgeId label) const { return label < sign_.size(); }

  void accumulate(Tie& t, EdgeId label, bool forward) const {
    const int32_t s = forward ? sign_[label] : -sign_[label];
    const int32_t entry = s * (static_cast<int32_t>(label) + 1);
    // Insert keeping sort by exponent (= |entry|), then by sign for
    // determinism. Ties are short in practice (path length), so linear
    // insertion is fine; Dijkstra's asymptotics on this policy are
    // explicitly O(n) worse, as the paper's bit-complexity discussion notes.
    auto less = [](int32_t a, int32_t b) {
      const int32_t aa = a < 0 ? -a : a, ab = b < 0 ? -b : b;
      return aa != ab ? aa < ab : a < b;
    };
    t.insert(std::upper_bound(t.begin(), t.end(), entry, less), entry);
  }

  int compare(const Tie& a, const Tie& b) const {
    // Walk both exponent-sorted lists; at each exponent compute net
    // coefficient difference; the first nonzero difference decides.
    size_t i = 0, j = 0;
    while (i < a.size() || j < b.size()) {
      const int32_t expa =
          i < a.size() ? (a[i] < 0 ? -a[i] : a[i]) : INT32_MAX;
      const int32_t expb =
          j < b.size() ? (b[j] < 0 ? -b[j] : b[j]) : INT32_MAX;
      const int32_t exp = std::min(expa, expb);
      int ca = 0, cb = 0;
      while (i < a.size() && (a[i] < 0 ? -a[i] : a[i]) == exp)
        ca += a[i++] < 0 ? -1 : 1;
      while (j < b.size() && (b[j] < 0 ? -b[j] : b[j]) == exp)
        cb += b[j++] < 0 ? -1 : 1;
      if (ca != cb) return ca < cb ? -1 : 1;
    }
    return 0;
  }

  std::string name() const { return "deterministic"; }
  // O(|E|) bits per weight in the standard positional representation.
  double bits_per_edge() const { return 2.0 * static_cast<double>(sign_.size()); }

 private:
  std::vector<int8_t> sign_;
};

}  // namespace restorable
