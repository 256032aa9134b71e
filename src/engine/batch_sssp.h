// Parallel batch-SSSP engine: the fan-out substrate every per-root /
// per-fault loop in this library routes through.
//
// Every algorithm in the Bodwin-Parter reproduction -- replacement paths,
// subset/sourcewise RP, the DSO, preservers, labels -- bottoms out in many
// independent tiebroken SSSP runs (one per root or per fault set). This
// engine runs such a batch over a thread pool with per-thread reusable
// workspaces (engine/dijkstra_workspace.h) and returns results in request
// order, bit-identical regardless of thread count: requests are distributed
// dynamically, but each result is a pure function of (graph, policy,
// request) and is written to its own slot.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/spt.h"
#include "engine/dijkstra_workspace.h"
#include "engine/thread_pool.h"
#include "graph/graph.h"

namespace restorable {

class BatchSsspEngine {
 public:
  // Work counters for the metrics registry: how many batches this engine
  // has executed and how many SSSP runs they contained. Relaxed atomics
  // bumped once per run_batch call -- nothing per-request, nothing on the
  // per-node inner loop. Note shared() is process-wide: servers defaulting
  // to it report the shared engine's process totals.
  struct Stats {
    uint64_t batches = 0;
    uint64_t requests = 0;
  };

  // threads == 0 sizes the pool to the hardware.
  explicit BatchSsspEngine(int threads = 0) : pool_(threads) {}

  int threads() const { return pool_.thread_count(); }

  Stats stats() const {
    return {batches_.load(std::memory_order_relaxed),
            requests_.load(std::memory_order_relaxed)};
  }

  // Generic fan-out over the engine's pool (deterministic per-index work,
  // dynamic scheduling). Exposed for consumers whose unit of parallelism is
  // bigger than one SSSP run (e.g. one source pair of Algorithm 1).
  void parallel_for(size_t count,
                    const std::function<void(size_t)>& body) const {
    pool_.parallel_for(count, body);
  }

  // Runs every request on g under `policy`; result i corresponds to
  // requests[i] whatever the thread count or schedule.
  template <typename Policy>
  std::vector<Spt> run_batch(const Graph& g, const Policy& policy,
                             std::span<const SsspRequest> requests) const {
    batches_.fetch_add(1, std::memory_order_relaxed);
    requests_.fetch_add(requests.size(), std::memory_order_relaxed);
    std::vector<Spt> out(requests.size());
    pool_.parallel_for(requests.size(), [&](size_t i) {
      tiebroken_sssp_into(g, policy, requests[i].root, requests[i].faults,
                          requests[i].dir, thread_workspace<Policy>(), out[i],
                          requests[i].eps_q);
    });
    return out;
  }

  // Process-wide engine over the shared hardware-sized pool. Consumers take
  // an optional engine pointer and fall back to this.
  static const BatchSsspEngine& shared();

  // Resolves an optional engine argument.
  static const BatchSsspEngine& or_shared(const BatchSsspEngine* engine) {
    return engine ? *engine : shared();
  }

 private:
  ThreadPool pool_;
  mutable std::atomic<uint64_t> batches_{0};
  mutable std::atomic<uint64_t> requests_{0};
};

}  // namespace restorable
