#include "offline.h"

#include "graph/generators.h"
#include "preserver/verify.h"
#include "rp/naive_rp.h"

namespace perfbench {

namespace {

template <typename F>
double seconds_of(F&& f) {
  const uint64_t t0 = now_ns();
  f();
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

}  // namespace

std::unique_ptr<OfflineInstance> make_offline(const OfflineSizes& sz) {
  auto inst = std::make_unique<OfflineInstance>();
  inst->policy_seed = sub_seed(kGraphSeed, 100);
  inst->g_rp = gnp_connected(sz.rp_n, 8.0 / sz.rp_n, sub_seed(kGraphSeed, 101));
  inst->g_pres =
      gnp_connected(sz.pres_n, 8.0 / sz.pres_n, sub_seed(kGraphSeed, 102));
  inst->g_lab = gnp_connected(sz.lab_n, 6.0 / sz.lab_n, sub_seed(kGraphSeed, 103));
  inst->pi_rp = make_default_rpts(inst->g_rp, inst->policy_seed);
  inst->pi_pres = make_default_rpts(inst->g_pres, inst->policy_seed);
  inst->pi_lab = make_default_rpts(inst->g_lab, inst->policy_seed);
  inst->sources =
      distinct_vertices(sz.rp_n, sz.sigma, sub_seed(kGraphSeed, 104));
  inst->pres_sources = distinct_vertices(sz.pres_n, sz.pres_sources,
                                         sub_seed(kGraphSeed, 105));
  return inst;
}

LabelQuery make_label_query(const Graph& g, uint64_t stream_seed,
                            uint64_t seq) {
  Rng rng(hash_combine(stream_seed, seq));
  LabelQuery q;
  q.s = static_cast<Vertex>(rng.next_below(g.num_vertices()));
  q.t = static_cast<Vertex>(rng.next_below(g.num_vertices()));
  const int nf = static_cast<int>(rng.next_below(3));
  for (int i = 0; i < nf; ++i) {
    const EdgeId e = static_cast<EdgeId>(rng.next_below(g.num_edges()));
    if (std::find(q.fault_ids.begin(), q.fault_ids.end(), e) !=
        q.fault_ids.end())
      continue;
    q.fault_ids.push_back(e);
    q.faults.push_back(g.endpoints(e));
  }
  return q;
}

int32_t label_reference(const IsolationRpts& pi, const LabelQuery& q) {
  return pi.spt(q.s, FaultSet(q.fault_ids)).hops(q.t);
}

void OfflineBuilds::rep(Report& report) {
  const OfflineInstance& inst = *inst_;
  const BatchSsspEngine& engine = engine_;
  std::vector<SsspRequest> out_trees;
  for (Vertex s : inst.sources) out_trees.push_back({s, {}, Direction::kOut});
  auto attempt = [&](const auto& body) {
    ++report.attempted;
    try {
      body();
    } catch (const std::exception& e) {
      ++report.failed;
      report.note("offline_error", "\"" + std::string(e.what()) + "\"");
    }
  };
  attempt([&] {
    trees_ms_.push_back(1e3 * seconds_of([&] {
      keep(inst.pi_rp->spt_batch(out_trees, &engine));
    }));
    rp_s_.push_back(seconds_of([&] {
      rp_ = subset_replacement_paths(*inst.pi_rp, inst.sources, &engine);
    }));
  });
  attempt([&] {
    pres_s_.push_back(seconds_of([&] {
      pres_ = build_sv_preserver(*inst.pi_pres, inst.pres_sources, 1, nullptr,
                                 &engine);
    }));
  });
  attempt([&] {
    lab_s_.push_back(seconds_of([&] {
      labels_ = std::make_unique<FtDistanceLabeling>(*inst.pi_lab, 1, &engine);
    }));
  });
}

OfflineResult OfflineBuilds::finish(Report& report) {
  const OfflineInstance& inst = *inst_;
  OfflineResult res;
  res.subset_rp_s = median(rp_s_);
  res.preserver_s = median(pres_s_);
  res.labeling_s = median(lab_s_);
  res.out_trees_ms = median(trees_ms_);

  // Correctness of the last outputs, after every clock has stopped.
  const BatchSsspEngine& engine = engine_;
  if (rp_) {
    const SubsetRpResult naive =
        naive_subset_replacement_paths(*inst.pi_rp, inst.sources, &engine);
    bool same = naive.pairs.size() == rp_->pairs.size();
    for (size_t i = 0; same && i < naive.pairs.size(); ++i)
      same = naive.pairs[i].base_path == rp_->pairs[i].base_path &&
             naive.pairs[i].replacement == rp_->pairs[i].replacement;
    if (!same) {
      ++report.failed;
      report.problem("subset-rp disagrees with naive_rp");
    }
  }
  if (pres_) {
    std::vector<Vertex> all(inst.g_pres.num_vertices());
    for (Vertex v = 0; v < all.size(); ++v) all[v] = v;
    const Graph h = pres_->to_graph();
    if (verify_distances_sampled(inst.g_pres, h, inst.pres_sources, all, 1, 0,
                                 400, inst.policy_seed)) {
      ++report.failed;
      report.problem("preserver fails preserver/verify");
    }
  }
  if (labels_) {
    size_t wrong = 0;
    for (uint64_t i = 0; i < 200; ++i) {
      const LabelQuery q = make_label_query(inst.g_lab, inst.policy_seed, i);
      const int32_t got = FtDistanceLabeling::query(
          labels_->label(q.s), labels_->label(q.t), q.faults);
      if (got != label_reference(*inst.pi_lab, q)) ++wrong;
    }
    if (wrong) {
      ++report.failed;
      report.problem("distance labels answer " + std::to_string(wrong) +
                     " of 200 sampled queries wrongly");
    }
  }
  return res;
}

}  // namespace perfbench
