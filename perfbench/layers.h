// The traced run's per-layer numbers (README.md "Per-layer metrics").
//
// Counters come from the workload's own stack: registry snapshots taken
// before the measurement windows, after them, and at the end of the run.
// Timings replay a seeded sample of the workload's operations through each
// layer's public calls with bench-side clocks: hit-path probes on the
// workload's server, and the update path on a shadow copy of the graph,
// scheme and cache, fed the workload's own recorded update batches.
#pragma once

#include <vector>

#include "harness.h"
#include "obs/metrics.h"
#include "serve/oracle_shard.h"
#include "serve/shard_router.h"

namespace perfbench {

struct LayerCounters {
  double hit_rate = 0;
  double bytes_per_tree = 0;
  double carried_frac = 0;
  double coalesced_frac = 0;
  double queue_wait_us = 0;
  double submissions_per_subquery = 0;
  double timeout_flush_frac = 0;
  double engine_batch_size = 0;
  double out_trees_ms = 0;
  double publish_wait_ms = 0;  // reader-drain wait per generation publish
};

// `before`/`after` bracket the measurement windows; `end` is taken when the
// run's last stage is done. Components are matched by name suffix, so a
// sharded fleet ("shard0.cache", "shard1.cache") sums across shards.
LayerCounters counters_from(const obs::MetricsSnapshot& before,
                            const obs::MetricsSnapshot& after,
                            const obs::MetricsSnapshot& end);

struct LayerSubject {
  const Graph* g0 = nullptr;  // the workload's initial topology
  uint64_t policy_seed = 0;
  uint64_t scheme_id = 0;
  OracleShard* server = nullptr;  // hit-path probes run here
  std::vector<Vertex> roots;      // roots `server` owns (probed resident)
  const ShardRouter* router = nullptr;  // null: a bench-owned 2-shard router
  const std::vector<std::vector<GraphDelta>>* history = nullptr;
};

struct HitPath {
  double pin_ns = 0;
  double lookup_ns = 0;
  double walk_ns = 0;
  double distance_ns = 0;
  double overhead_ns() const {
    return distance_ns - (pin_ns + lookup_ns + walk_ns);
  }
};

// Emits every per-layer metric into `report` and returns the hit-path
// decomposition (for the reconciliation row).
HitPath trace_layers(Report& report, const LayerSubject& subject,
                     const LayerCounters& counters);

}  // namespace perfbench
