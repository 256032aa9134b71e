// The paper's offline applications as a benchmark stage: subset replacement
// paths (Algorithm 1), an f = 1 S x V preserver, and f = 1 distance labels,
// built on seeded graphs and checked against the repository's own oracles.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/rpts.h"
#include "harness.h"
#include "labeling/labels.h"
#include "preserver/ft_preserver.h"
#include "rp/subset_rp.h"

namespace perfbench {

struct OfflineSizes {
  Vertex rp_n;       // subset-rp graph: gnp_connected(rp_n, 8 / rp_n)
  int sigma;         // subset-rp sources
  Vertex pres_n;     // preserver graph: gnp_connected(pres_n, 8 / pres_n)
  int pres_sources;  // preserver sources
  Vertex lab_n;      // labeling graph: gnp_connected(lab_n, 6 / lab_n)
  int reps;          // builds per application (the median is reported)
};

// The three inputs, with their schemes and sources. Like the serving
// workloads' graphs and hot set they are fixed (kGraphSeed): the run seed
// draws only what is read and changed. Heap-only: the schemes point at the
// graphs.
struct OfflineInstance {
  Graph g_rp, g_pres, g_lab;
  std::unique_ptr<IsolationRpts> pi_rp, pi_pres, pi_lab;
  std::vector<Vertex> sources, pres_sources;
  uint64_t policy_seed = 0;
};

std::unique_ptr<OfflineInstance> make_offline(const OfflineSizes& sizes);

struct OfflineResult {
  double subset_rp_s = 0;
  double preserver_s = 0;
  double labeling_s = 0;
  double out_trees_ms = 0;  // the sigma-root out-tree batch inside subset-rp
};

// Repeated builds of the three applications. Each rep() builds every
// application once on a one-lane engine: with worker lanes, builds of this
// size wait on waking workers, and on a shared host that wait varies from
// run to run. finish() reports
// the median of each and checks the last outputs: subset-rp against
// naive_rp, the preserver with preserver/verify, and sampled label queries
// against the scheme. Builds count as attempted operations; a wrong output
// or a throw as failed.
class OfflineBuilds {
 public:
  explicit OfflineBuilds(const OfflineInstance& inst) : inst_(&inst) {}
  void rep(Report& report);
  OfflineResult finish(Report& report);

 private:
  const OfflineInstance* inst_;
  const BatchSsspEngine engine_{1};
  std::vector<double> rp_s_, pres_s_, lab_s_, trees_ms_;
  std::optional<SubsetRpResult> rp_;
  std::optional<EdgeSubset> pres_;
  std::unique_ptr<FtDistanceLabeling> labels_;
};

// One decoded label query: dist_{G \ F}(s, t) from the two labels alone.
struct LabelQuery {
  Vertex s, t;
  std::vector<Edge> faults;  // |F| <= 2 (the labels are 2-fault tolerant)
  std::vector<EdgeId> fault_ids;
};
LabelQuery make_label_query(const Graph& g, uint64_t stream_seed, uint64_t seq);

// Reference answer of a label query, from the scheme of the labeled graph.
int32_t label_reference(const IsolationRpts& pi, const LabelQuery& q);

}  // namespace perfbench
