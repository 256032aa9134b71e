// Shared machinery of the repository benchmark (perfbench/): options, the
// result document, closed-loop measurement windows, query streams with
// sampled answers, the churn batch generator, and the after-the-clock
// verifier that checks sampled answers against from-scratch schemes.
//
// Nothing here is timed except inside closed_loop(); inputs (query streams,
// churn plans) are derived from the run seed before any window opens.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/rpts.h"
#include "graph/graph.h"
#include "util/random.h"
#include "util/timing.h"

namespace perfbench {

using namespace restorable;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Corrupts one sampled answer before verification; the run must then
  // report it as a failed operation (see README.md "Correctness").
  bool self_test = false;
};

// ---- Thread budget -------------------------------------------------------

int hw_threads();
// Threads one workload may run at once (drivers + mutator + engine workers):
// min(4, hardware threads).
int thread_budget();
// Threads of this process right now (/proc/self/status), 0 if unknown.
int os_threads();

// ---- Result document -----------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void metric(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  // Informational fields (printed on a separate `info` line, never bounded).
  void note(const std::string& key, double value);
  void note(const std::string& key, const std::string& json_value);
  // A problem that makes the run incorrect even with zero failed operations
  // (nothing sampled to verify, thread budget exceeded).
  void problem(const std::string& why);

  // Prints the info line, then the result line (the last line of stdout).
  void print() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> problems_;
};

std::string fmt_num(double v);

// ---- Statistics ----------------------------------------------------------

// Nearest-rank quantile of an unsorted sample (q in [0, 1]); 0 when empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// Repeated measurements within a process (rounds, chunks, builds) report
// their median. A shared host switches between faster and slower spells
// lasting seconds (a fixed single-threaded build swings by 1.5x), so the
// fastest repetition depends on whether a process met a fast spell, while
// the median of repetitions spread over the process moves only with the
// share of time spent in each.

// Quantile q of a latency sample taken in time order: the sample is cut
// into up to eight consecutive chunks, each still holding at least ten
// values beyond q, and the median of the chunks' quantiles is returned
// (the plain quantile when the sample is too small to cut).
double chunked_quantile(const std::vector<double>& in_time_order, double q);

// Quantile q over the churn pool's batches, given latencies in batch order:
// pool slot i is sampled at i, i + kChurnPool, ...; each slot reached
// contributes its fastest sample.
double per_batch_quantile(const std::vector<double>& in_batch_order, double q);

// Share of all CPU time the hypervisor stole from this machine since the
// previous call (the first call counts from boot), from /proc/stat; 0 if
// unknown.
double host_steal_frac();

// ---- Host speed ----------------------------------------------------------
//
// The host's speed drifts by up to a third over minutes (see README.md,
// "Noise"), moving every metric of a run together. A fixed reference job
// that calls no library code - breadth-first searches over a seeded random
// graph in plain arrays, then an arithmetic loop - is timed between the
// stages of a run, and every end-to-end time and rate is scaled to a host
// on which that job takes kReferenceMs. A change to the library cannot move
// the reference, so it moves the scaled metrics in full.
inline constexpr double kReferenceMs = 2.5;
// Times `reps` runs of the reference job.
void sample_reference(int reps);
// kReferenceMs over the faster quartile of the reference times so far, so
// that a repetition the hypervisor preempted does not count: multiply a time
// by it (divide a rate) to scale it to the reference host; 1 before any
// sample.
double host_factor();

// Median over `reps` timings of `inner` back-to-back calls, in ns per call.
// `f(i)` receives the running call index so probes can cycle over inputs.
template <typename F>
double ns_per_call(F&& f, int inner = 2000, int reps = 25) {
  std::vector<double> per;
  per.reserve(reps);
  for (int r = 0; r < reps; ++r) {
    const uint64_t t0 = now_ns();
    for (int i = 0; i < inner; ++i) f(r * inner + i);
    per.push_back(static_cast<double>(now_ns() - t0) / inner);
  }
  return median(std::move(per));
}

template <typename T>
inline void keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

// ---- Closed-loop windows -------------------------------------------------

struct Window {
  double seconds = 0;
  uint64_t ops = 0;
  uint64_t failed = 0;  // operations that threw (timed or not)
  int os_threads_max = 0;  // process threads seen while it ran, main excluded
  std::vector<double> lat_us;

  double qps() const { return seconds > 0 ? ops / seconds : 0; }
};

// Runs `drivers` threads for `secs` seconds; driver w issues sequence
// numbers base + w, base + w + drivers, ... so any driver count walks the
// same stream. op(worker, seq) performs one operation (a throw counts as a
// failed operation). Every `lat_stride`-th sequence number is timed for the
// latency sample; sub-microsecond operations use a stride > 1 so the clock
// reads and the sample's memory stay small against the work measured.
// Drivers are not pinned: a pinned driver that shares its CPU with a
// mutator or engine worker cannot move away from it.
Window closed_loop(int drivers, double secs, uint64_t base,
                   uint64_t lat_stride,
                   const std::function<void(int, uint64_t)>& op);

// The read stages: `rounds` alternating pairs of windows, one at `drivers`
// and one on a single driver, continuing one stream. qps and qps_1t are
// medians over rounds, so a transient stall on a shared host moves
// one round, not the result; p50 and p99 are chunked_quantile()s of the
// full-width rounds' latency samples in round order.
struct ReadStats {
  double qps = 0, p50_us = 0, p99_us = 0, qps_1t = 0;
  std::vector<double> round_qps, round_qps_1t;  // per round, in order
  uint64_t ops = 0, failed = 0, latency_samples = 0;
  int os_threads_max = 0;
};
using WindowFn = std::function<Window(int drivers, double secs, uint64_t base)>;
// `between` (optional) runs after each round: workloads spread their other
// stages over the run this way, so slow drift of a shared host touches
// every metric alike instead of whichever stage ran last.
ReadStats read_rounds(int drivers, double secs, double secs_1t, int rounds,
                      const WindowFn& window,
                      const std::function<void(int round)>& between = nullptr);

// ---- Queries and sampled answers ----------------------------------------

enum class Kind : uint8_t {
  kDist,       // distance(s, t)
  kRepl,       // replacement_distance(s, t, e)
  kFaultDist,  // distance(s, t, {e})
  kEpsDist,    // distance(s, t) at kEpsilon
  kTree,       // out-tree of s (answer = tree fingerprint)
};

inline constexpr double kEpsilon = 0.25;

struct Query {
  Kind kind = Kind::kDist;
  Vertex s = 0;
  Vertex t = 0;
  EdgeId e = kNoEdge;
};

// One sampled answer plus the range of topology indices (update batches
// completed before it started .. batches started before it ended) it may
// legitimately have observed.
struct Sample {
  Query q;
  int64_t got = 0;
  uint32_t lo = 0;
  uint32_t hi = 0;
};

// Per-driver sample buffers (no sharing on the measured path).
class SampleSink {
 public:
  explicit SampleSink(int workers = 0) : per_(std::max(workers, 1)) {}
  void resize(int workers) { per_.resize(std::max<size_t>(per_.size(), workers)); }
  void add(int w, const Sample& s) { per_[w].push_back(s); }
  std::vector<Sample> take();

 private:
  std::vector<std::vector<Sample>> per_;
};

int64_t fingerprint(const Spt& tree);

// Counts sampled answers that match no topology in their [lo, hi] range.
// Topology j is g0 with the first j batches of `history` applied; its
// reference is a from-scratch make_default_rpts(policy_seed) over that
// graph, its trees computed on `engine`.
size_t count_wrong(const Graph& g0, uint64_t policy_seed,
                   const std::vector<std::vector<GraphDelta>>& history,
                   const std::vector<Sample>& samples,
                   const BatchSsspEngine& engine);

// Verifies `samples` and adds mismatches to report.failed. With self_test
// the first sample is corrupted first, so the run must report it failed.
void verify_samples(Report& report, const Options& opt, const Graph& g0,
                    uint64_t policy_seed,
                    const std::vector<std::vector<GraphDelta>>& history,
                    std::vector<Sample> samples,
                    const BatchSsspEngine& engine);

// ---- Churn ---------------------------------------------------------------

// Generates the k = 4 update batches of the churn workloads. Batch i heals
// batch i-1 (re-inserts its removed hot-tree edge, removes its shortcut),
// removes one hot-tree edge, and inserts one 3-4-hop shortcut, so the
// topology never drifts more than one edge pair from the original.
//
// The (victim, shortcut) pairs form a fixed pool of kChurnPool drawn from
// kGraphSeed; the run seed only shuffles their order, and next() cycles
// through the pool in that order. Every run thus applies the same multiset
// of batches (batch costs vary several-fold with the victim, so a seed-drawn
// set would move update quantiles from seed to seed), and batch i repeats
// batch i - kChurnPool with the same predecessor (see per_batch_quantile).
inline constexpr size_t kChurnPool = 48;

class Churner {
 public:
  Churner(const Graph& g0, std::span<const SptHandle> hot_trees,
          uint64_t seed);

  // The next batch's deltas (recorded into history()).
  std::vector<GraphDelta> next();
  // Feed back the applied batch so the shortcut's edge id can be healed.
  void applied(const DeltaBatch& batch);
  const std::vector<std::vector<GraphDelta>>& history() const {
    return history_;
  }

 private:
  const Graph* g0_;
  std::vector<EdgeId> victims_;
  std::vector<Edge> shortcuts_;
  std::vector<size_t> order_;  // pool indices in this run's order
  EdgeId last_shortcut_ = kNoEdge;
  std::vector<std::vector<GraphDelta>> history_;
};

double peak_rss_mb();

// k distinct vertices of [0, n), drawn from `seed`.
std::vector<Vertex> distinct_vertices(Vertex n, size_t k, uint64_t seed);

// Seeded sub-streams: every input of a run derives from (run seed, tag).
inline uint64_t sub_seed(uint64_t seed, uint64_t tag) {
  return hash_combine(seed, tag);
}

// Graphs and tiebreaking policies are fixed (the run seed draws roots,
// sources, query streams and churn), so seed-to-seed spread measures the
// code under test rather than differences between random graphs.
inline constexpr uint64_t kGraphSeed = 0x5eed;

}  // namespace perfbench
