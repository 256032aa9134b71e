// Differential suite for fault trees built as deltas of the base tree
// (IRpts::fault_deltas; the re-relax kernel is engine/fault_delta.h) and
// for the construction consumers that read them: the base tree overlaid
// with the delta must equal spt(s, F) in hops and parent_edge for every
// vertex, and preservers, distance labels and sourcewise replacement paths
// must equal what one full sweep per fault set builds.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "labeling/labels.h"
#include "preserver/ft_preserver.h"
#include "rp/sourcewise_rp.h"

namespace restorable {
namespace {

struct Named {
  std::string name;
  Graph g;
};

std::vector<Named> graphs() {
  std::vector<Named> out;
  out.push_back({"gnp_connected", gnp_connected(24, 0.2, 3)});
  out.push_back({"sparse_connected", sparse_connected(30, 3.0, 5)});
  out.push_back({"grid", grid(4, 5)});
  return out;
}

// Overlays `delta` on `base` and compares every vertex with the scheme's own
// (root, F) tree.
void expect_overlay_equals_spt(const IRpts& pi, const Spt& base,
                               const SsspRequest& req,
                               const FaultDelta& delta) {
  const Vertex n = pi.graph().num_vertices();
  std::vector<int32_t> hops(n);
  std::vector<EdgeId> parent_edge(n);
  for (Vertex v = 0; v < n; ++v) {
    hops[v] = base.hops(v);
    parent_edge[v] = base.parent_edge(v);
  }
  std::vector<char> listed(n, 0);
  for (const Relabel& r : delta) {
    ASSERT_LT(r.v, n);
    EXPECT_FALSE(listed[r.v]) << "vertex " << r.v << " listed twice";
    listed[r.v] = 1;
    hops[r.v] = r.hops;
    parent_edge[r.v] = r.parent_edge;
  }
  const Spt want = pi.spt(req.root, req.faults, req.dir);
  for (Vertex v = 0; v < n; ++v) {
    EXPECT_EQ(hops[v], want.hops(v))
        << "root=" << req.root << " F=" << req.faults.to_string()
        << " v=" << v;
    EXPECT_EQ(parent_edge[v], want.parent_edge(v))
        << "root=" << req.root << " F=" << req.faults.to_string()
        << " v=" << v;
  }
}

// A stable scheme lists exactly the vertices whose base path F cuts.
void expect_lists_the_cut(const Spt& base, const SsspRequest& req,
                          const FaultDelta& delta) {
  const std::vector<char> cut = base.paths_using_any(req.faults);
  std::vector<char> listed(base.num_vertices(), 0);
  for (const Relabel& r : delta) listed[r.v] = 1;
  for (Vertex v = 0; v < base.num_vertices(); ++v)
    EXPECT_EQ(listed[v] != 0, v < cut.size() && cut[v] != 0)
        << "root=" << req.root << " F=" << req.faults.to_string()
        << " v=" << v;
}

// Every (root, tree edge), and for every fourth root the |F| = 2 sets whose
// second edge lies on T(s, {e1}), on and off the base tree.
void check_scheme(const IRpts& pi, const std::string& what) {
  const Graph& g = pi.graph();
  size_t on_base = 0, off_base = 0;
  for (Direction dir : {Direction::kOut, Direction::kIn}) {
    for (Vertex s = 0; s < g.num_vertices(); ++s) {
      SCOPED_TRACE(what + " dir=" + (dir == Direction::kOut ? "out" : "in") +
                   " root=" + std::to_string(s));
      const Spt base = pi.spt(s, {}, dir);
      const std::vector<EdgeId> edges = base.tree_edges();
      std::vector<SsspRequest> singles;
      for (EdgeId e : edges) singles.push_back({s, FaultSet{e}, dir});
      const std::vector<FaultDelta> d1 = pi.fault_deltas(base, singles);
      ASSERT_EQ(d1.size(), singles.size());
      for (size_t i = 0; i < singles.size(); ++i) {
        expect_overlay_equals_spt(pi, base, singles[i], d1[i]);
        expect_lists_the_cut(base, singles[i], d1[i]);
      }
      if (s % 4 != 0) continue;
      std::vector<SsspRequest> pairs;
      for (EdgeId e1 : edges)
        for (EdgeId e2 : pi.spt(s, FaultSet{e1}, dir).tree_edges()) {
          pairs.push_back({s, FaultSet{e1, e2}, dir});
          ++(std::binary_search(edges.begin(), edges.end(), e2) ? on_base
                                                                : off_base);
        }
      const std::vector<FaultDelta> d2 = pi.fault_deltas(base, pairs);
      ASSERT_EQ(d2.size(), pairs.size());
      for (size_t i = 0; i < pairs.size(); ++i) {
        expect_overlay_equals_spt(pi, base, pairs[i], d2[i]);
        expect_lists_the_cut(base, pairs[i], d2[i]);
      }
    }
  }
  EXPECT_GT(on_base, 0u) << what;
  EXPECT_GT(off_base, 0u) << what;
}

TEST(FaultDelta, IsolationAtwMatchesSweep) {
  for (const Named& c : graphs())
    check_scheme(IsolationRpts(c.g, IsolationAtw(7)), c.name);
}

TEST(FaultDelta, RandomRealAtwMatchesSweep) {
  for (const Named& c : graphs())
    check_scheme(RandomRealRpts(c.g, RandomRealAtw(8, c.g.num_vertices())),
                 c.name);
}

TEST(FaultDelta, DeterministicAtwMatchesSweep) {
  for (const Named& c : graphs())
    check_scheme(DeterministicRpts(c.g, DeterministicAtw(c.g)), c.name);
}

TEST(FaultDelta, DisconnectingFaultListsUnreachable) {
  // Two triangles joined by the bridge 2-3 (edge 3): faulting it cuts
  // {3, 4, 5} off vertex 0.
  const Graph g(6, {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {4, 5}, {3, 5}});
  const IsolationRpts pi(g, IsolationAtw(9));
  const Spt base = pi.spt(0);
  const SsspRequest req[1] = {{0, FaultSet{3}, Direction::kOut}};
  const FaultDelta d = pi.fault_deltas(base, req)[0];
  ASSERT_EQ(d.size(), 3u);
  for (const Relabel& r : d) {
    EXPECT_GE(r.v, 3u);
    EXPECT_EQ(r.hops, kUnreachable);
    EXPECT_EQ(r.parent_edge, kNoEdge);
  }
  // A fault off the base tree detaches nothing.
  const EdgeId off = base.parent_edge(2) == 1 ? 2 : 1;
  const SsspRequest miss[1] = {{0, FaultSet{off}, Direction::kOut}};
  EXPECT_TRUE(pi.fault_deltas(base, miss)[0].empty());
}

TEST(FaultDelta, UnstableSchemeFallsBackToSweepAndDiff) {
  for (const Named& c : graphs()) {
    const ArbitraryRpts pi(c.g);
    for (Vertex s = 0; s < c.g.num_vertices(); s += 5) {
      SCOPED_TRACE(c.name + " root=" + std::to_string(s));
      const Spt base = pi.spt(s);
      std::vector<SsspRequest> reqs;
      for (EdgeId e : base.tree_edges())
        reqs.push_back({s, FaultSet{e}, Direction::kOut});
      const std::vector<FaultDelta> d = pi.fault_deltas(base, reqs);
      for (size_t i = 0; i < reqs.size(); ++i)
        expect_overlay_equals_spt(pi, base, reqs[i], d[i]);
    }
  }
}

// IsolationAtw whose accumulate throws when *trip counts down to zero: an
// exception from inside the kernel, after it has opened and labeled
// vertices.
class TrippingAtw : public IsolationAtw {
 public:
  TrippingAtw(uint64_t seed, int* trip) : IsolationAtw(seed), trip_(trip) {}
  void accumulate(Tie& t, EdgeId label, bool forward) const {
    if (*trip_ > 0 && --*trip_ == 0) throw std::runtime_error("tripped");
    IsolationAtw::accumulate(t, label, forward);
  }

 private:
  int* trip_;
};

// Invariant F of an approximate tree (core/rpts.h): F1, a parent chain of
// present edges with strictly descending hops under every finite label; F2,
// no present edge whose relaxation epsilon_improves its far end.
void expect_contract_f(const Graph& g, const Spt& t, uint32_t eps_q) {
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (v == t.root || !t.reachable(v)) continue;
    ASSERT_NE(t.parent_edge(v), kNoEdge) << "v=" << v;
    EXPECT_TRUE(g.edge_present(t.parent_edge(v))) << "v=" << v;
    EXPECT_LT(t.hops(t.parent(v)), t.hops(v)) << "v=" << v;
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!g.edge_present(e)) continue;
    const Edge& ed = g.endpoints(e);
    for (const auto& [x, y] : {std::pair{ed.u, ed.v}, std::pair{ed.v, ed.u}})
      if (t.reachable(x)) {
        EXPECT_TRUE(t.reachable(y)) << "edge " << e;
        EXPECT_FALSE(epsilon_improves(t.hops(y), t.hops(x) + 1, eps_q))
            << "edge " << e;
      }
  }
}

// Fault deltas and both repair tiers run on one thread's kernel workspace.
// Interleaved over two graph sizes, and after calls that throw -- before the
// kernel (a tree that does not fit) and inside it (TrippingAtw) -- every
// delta and exact repair stays bit-identical to spt() and every approximate
// repair keeps F.
TEST(FaultDelta, RepairSharesTheWorkspace) {
  int trip = 0;
  std::vector<Graph> graphs{gnp_connected(16, 0.25, 7),
                            gnp_connected(60, 0.08, 8)};
  const uint32_t eps_q = quantize_epsilon(0.5);
  for (int round = 0; round < 6; ++round) {
    for (size_t k = 0; k < graphs.size(); ++k) {
      Graph& g = graphs[k];
      const Rpts<TrippingAtw> pi(g, TrippingAtw(3, &trip));
      const Vertex s = static_cast<Vertex>(round * 5) % g.num_vertices();
      SCOPED_TRACE("round " + std::to_string(round) + " n=" +
                   std::to_string(g.num_vertices()));
      const Spt base = pi.spt(s);
      const Spt approx = *pi.spt_batch(
          std::vector<SsspRequest>{{s, {}, Direction::kOut, eps_q}})[0];
      std::vector<SsspRequest> singles;
      for (EdgeId e : base.tree_edges())
        singles.push_back({s, FaultSet{e}, Direction::kOut});
      const std::vector<FaultDelta> d = pi.fault_deltas(base, singles);
      for (size_t i = 0; i < singles.size(); ++i)
        expect_overlay_equals_spt(pi, base, singles[i], d[i]);

      // Cut the tree edge above the root's largest subtree, and add a chord.
      std::vector<size_t> below(g.num_vertices(), 0);
      for (Vertex x = 0; x < g.num_vertices(); ++x) {
        if (x == s || !base.reachable(x)) continue;
        Vertex y = x;
        while (base.parent(y) != s) y = base.parent(y);
        ++below[y];
      }
      const Vertex top = static_cast<Vertex>(
          std::max_element(below.begin(), below.end()) - below.begin());
      std::vector<GraphDelta> deltas{GraphDelta::remove(base.parent_edge(top))};
      for (Vertex a = 0, b = g.num_vertices() - 1; a < b; ++a, --b)
        if (g.find_edge(a, b) == kNoEdge) {
          deltas.push_back(GraphDelta::insert(a, b));
          break;
        }
      const DeltaBatch batch = g.apply(std::span<const GraphDelta>(deltas));

      const Spt want = pi.spt(s);

      // The kernel throws after it has opened vertices; it leaves the
      // workspace clean.
      trip = 2 + round;
      EXPECT_THROW(pi.repair_tree(base, batch, {}, 1.0), std::runtime_error);
      EXPECT_EQ(trip, 0);
      const auto& ws = thread_fault_delta_workspace<TrippingAtw>();
      EXPECT_TRUE(ws.region_.empty());
      EXPECT_TRUE(ws.known_list_.empty());
      EXPECT_EQ(std::count(ws.state_.begin(), ws.state_.end(), 0),
                static_cast<ptrdiff_t>(ws.state_.size()));
      const Spt foreign =
          Rpts<TrippingAtw>(graphs[1 - k], TrippingAtw(3, &trip)).spt(0);
      EXPECT_THROW(
          pi.repair_tree(foreign, batch, {}, 1.0, round % 2 ? eps_q : 0),
          std::invalid_argument);

      const std::vector<FaultDelta> after = pi.fault_deltas(want, singles);
      for (size_t i = 0; i < singles.size(); ++i)
        expect_overlay_equals_spt(pi, want, singles[i], after[i]);
      const RepairOutcome exact = pi.repair_tree(base, batch, {}, 1.0);
      EXPECT_TRUE(exact.repaired);
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        EXPECT_EQ(exact.tree.hops(v), want.hops(v)) << "v=" << v;
        EXPECT_EQ(exact.tree.parent_edge(v), want.parent_edge(v)) << "v=" << v;
      }
      expect_contract_f(
          g, pi.repair_tree(approx, batch, {}, 1.0, eps_q).tree, eps_q);
    }
  }
}

void expect_typed_errors(const IRpts& pi) {
  const Graph& g = pi.graph();
  const Spt base = pi.spt(0);
  auto run = [&](SsspRequest req) {
    const SsspRequest one[1] = {std::move(req)};
    return pi.fault_deltas(base, one);
  };
  // A fault id past the edge table: the message names it like every other
  // fault-id check.
  try {
    run({0, FaultSet{g.num_edges()}, Direction::kOut});
    ADD_FAILURE() << "no throw for fault id " << g.num_edges();
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "fault edge id " + std::to_string(g.num_edges()) +
                  " out of range"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(run({1, FaultSet{0}, Direction::kOut}), std::invalid_argument);
  EXPECT_THROW(run({0, FaultSet{0}, Direction::kIn}), std::invalid_argument);
  EXPECT_THROW(run({0, FaultSet{0}, Direction::kOut, /*eps_q=*/1}),
               std::invalid_argument);
  // A base tree over a different vertex count.
  const Graph bigger = path_graph(g.num_vertices() + 1);
  const IsolationRpts other(bigger, IsolationAtw(1));
  const Spt foreign = other.spt(0);
  const SsspRequest ok[1] = {{0, FaultSet{0}, Direction::kOut}};
  EXPECT_THROW(pi.fault_deltas(foreign, ok), std::invalid_argument);
  // The well-formed request still runs.
  EXPECT_NO_THROW(pi.fault_deltas(base, ok));
}

TEST(FaultDelta, TypedErrors) {
  const Graph g = gnp_connected(12, 0.3, 4);
  expect_typed_errors(IsolationRpts(g, IsolationAtw(5)));
  expect_typed_errors(ArbitraryRpts(g));
}

// The overlay with one full sweep per explored fault set.
EdgeSubset sweep_overlay(const IRpts& pi, std::span<const Vertex> sources,
                         int f) {
  EdgeSubset out(pi.graph());
  for (Vertex s : sources) {
    std::set<FaultSet> seen{FaultSet{}};
    std::vector<FaultSet> level{FaultSet{}};
    for (int depth = 0; depth <= f; ++depth) {
      std::vector<FaultSet> next;
      for (const FaultSet& fs : level) {
        const std::vector<EdgeId> edges = pi.spt(s, fs).tree_edges();
        out.insert_all(edges);
        if (depth == f) continue;
        for (EdgeId e : edges)
          if (seen.insert(fs.with(e)).second) next.push_back(fs.with(e));
      }
      level.swap(next);
    }
  }
  return out;
}

void check_preservers(const IRpts& pi, const std::string& what) {
  const Vertex n = pi.graph().num_vertices();
  const std::vector<Vertex> sources{0, n / 2};
  for (int f = 0; f <= 2; ++f) {
    SCOPED_TRACE(what + " f=" + std::to_string(f));
    const std::vector<EdgeId> want = sweep_overlay(pi, sources, f).edge_ids();
    PreserverStats stats;
    EXPECT_EQ(build_sv_preserver(pi, sources, f, &stats).edge_ids(), want);
    EXPECT_EQ(build_ss_preserver(pi, sources, f + 1).edge_ids(), want);
    EXPECT_EQ(stats.spt_computations, sources.size());
    EXPECT_EQ(stats.fault_sets_explored,
              stats.spt_computations + stats.fault_deltas);
  }
}

TEST(FaultDeltaConsumers, PreserversEqualSweepOverlay) {
  for (const Named& c : graphs()) {
    check_preservers(IsolationRpts(c.g, IsolationAtw(11)), c.name);
    check_preservers(RandomRealRpts(c.g, RandomRealAtw(12, c.g.num_vertices())),
                     c.name);
    check_preservers(DeterministicRpts(c.g, DeterministicAtw(c.g)), c.name);
    check_preservers(ArbitraryRpts(c.g), c.name);
  }
}

TEST(FaultDeltaConsumers, LabelsIdenticalAcrossEngineWidths) {
  const Graph g = gnp_connected(20, 0.25, 13);
  const IsolationRpts pi(g, IsolationAtw(14));
  for (int f : {1, 2}) {
    SCOPED_TRACE("f=" + std::to_string(f));
    std::vector<std::string> first;
    for (int lanes : {1, 2, 4}) {
      const BatchSsspEngine engine(lanes);
      const FtDistanceLabeling lab(pi, f, &engine);
      std::vector<std::string> wire;
      for (Vertex v = 0; v < g.num_vertices(); ++v)
        wire.push_back(encode_label(lab.label(v)));
      if (first.empty()) {
        first = wire;
        // And each label is the sweep-built {v} x V overlay.
        for (Vertex v = 0; v < g.num_vertices(); ++v) {
          const Vertex src[1] = {v};
          std::vector<Edge> want;
          for (EdgeId e : sweep_overlay(pi, src, f).edge_ids())
            want.push_back(g.endpoints(e));
          EXPECT_EQ(lab.label(v).edges, want) << "v=" << v;
        }
      } else {
        EXPECT_EQ(wire, first) << "lanes=" << lanes;
      }
    }
  }
}

void check_sourcewise(const IRpts& pi, const std::string& what) {
  const Graph& g = pi.graph();
  for (Vertex s : {Vertex{0}, g.num_vertices() - 1}) {
    SCOPED_TRACE(what + " s=" + std::to_string(s));
    const SourcewiseReplacementPaths rp(pi, s);
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const Spt want = pi.spt(s, FaultSet{e});
      for (Vertex v = 0; v < g.num_vertices(); ++v)
        EXPECT_EQ(rp.query(v, e), want.hops(v)) << "v=" << v << " e=" << e;
    }
  }
}

TEST(FaultDeltaConsumers, SourcewiseQueriesEqualFaultTrees) {
  for (const Named& c : graphs()) {
    check_sourcewise(IsolationRpts(c.g, IsolationAtw(15)), c.name);
    check_sourcewise(RandomRealRpts(c.g, RandomRealAtw(16, c.g.num_vertices())),
                     c.name);
    check_sourcewise(DeterministicRpts(c.g, DeterministicAtw(c.g)), c.name);
  }
}

}  // namespace
}  // namespace restorable
