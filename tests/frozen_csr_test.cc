// Frozen CSR: freeze -> write -> map -> query must be bit-identical to the
// in-memory Graph, through both the zero-copy image accessors and the
// Graph thaw() returns, with tombstones, labels, and the epoch carried exactly.
#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "core/dijkstra.h"
#include "core/rpts.h"
#include "graph/bfs.h"
#include "graph/frozen_csr.h"
#include "graph/generators.h"
#include "serve/oracle_server.h"

namespace restorable {
namespace {

// A unique temp path per test; removed on scope exit.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + "/" + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void expect_same_graph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.num_present_edges(), b.num_present_edges());
  EXPECT_EQ(a.epoch(), b.epoch());
  EXPECT_EQ(a.edges(), b.edges());
  EXPECT_EQ(a.labels(), b.labels());
  for (EdgeId e = 0; e < a.num_edges(); ++e)
    EXPECT_EQ(a.edge_present(e), b.edge_present(e)) << "e=" << e;
  for (Vertex v = 0; v < a.num_vertices(); ++v) {
    const auto av = a.arcs(v), bv = b.arcs(v);
    ASSERT_EQ(av.size(), bv.size()) << "v=" << v;
    for (size_t i = 0; i < av.size(); ++i) {
      EXPECT_EQ(av[i].to, bv[i].to);
      EXPECT_EQ(av[i].edge, bv[i].edge);
      EXPECT_EQ(av[i].forward, bv[i].forward);
    }
  }
}

void expect_image_matches(const FrozenCsr& f, const Graph& g) {
  ASSERT_EQ(f.num_vertices(), g.num_vertices());
  ASSERT_EQ(f.num_edges(), g.num_edges());
  EXPECT_EQ(f.num_present_edges(), g.num_present_edges());
  EXPECT_EQ(f.epoch(), g.epoch());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(f.endpoints(e), g.endpoints(e));
    EXPECT_EQ(f.label(e), g.label(e));
    EXPECT_EQ(f.edge_present(e), g.edge_present(e));
  }
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto got = f.arcs(v);
    const auto want = g.arcs(v);
    ASSERT_EQ(got.size(), want.size()) << "v=" << v;
    ASSERT_EQ(f.degree(v), g.degree(v));
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].to, want[i].to);
      EXPECT_EQ(got[i].edge(), want[i].edge);
      EXPECT_EQ(got[i].forward(), want[i].forward);
    }
  }
}

TEST(FrozenCsr, WriteMapQueryBitIdentity) {
  const Graph g = gnp_connected(300, 0.03, 41);
  TempFile file("frozen_basic.rcsr");
  ASSERT_TRUE(FrozenCsr::freeze(g).write(file.path()));

  auto mapped = FrozenCsr::load(file.path(), /*prefer_mmap=*/true);
  ASSERT_TRUE(mapped.has_value());
  expect_image_matches(*mapped, g);
  expect_same_graph(mapped->thaw(), g);

  // Plain-read fallback must agree with the mapping byte for byte.
  auto read_back = FrozenCsr::load(file.path(), /*prefer_mmap=*/false);
  ASSERT_TRUE(read_back.has_value());
  EXPECT_FALSE(read_back->mapped());
  expect_image_matches(*read_back, g);
  expect_same_graph(read_back->thaw(), g);
}

TEST(FrozenCsr, TombstonesLabelsAndEpochSurvive) {
  Graph g = gnp_connected(80, 0.08, 5);
  // Tombstone a few slots and flap one, so present_/absent_/epoch are all
  // non-trivial; labels stay the original ids through the flap.
  ASSERT_TRUE(g.remove_edge(3));
  ASSERT_TRUE(g.remove_edge(10));
  const Edge ed = g.endpoints(10);
  ASSERT_EQ(g.add_edge(ed.u, ed.v), 10u);  // resurrect
  ASSERT_GT(g.epoch(), 0u);

  TempFile file("frozen_tombstones.rcsr");
  ASSERT_TRUE(FrozenCsr::freeze(g).write(file.path()));
  auto back = FrozenCsr::load(file.path());
  ASSERT_TRUE(back.has_value());
  EXPECT_FALSE(back->edge_present(3));
  EXPECT_TRUE(back->edge_present(10));
  expect_image_matches(*back, g);

  const Graph t = back->thaw();
  expect_same_graph(t, g);
  // The graph thaw() returns is fully mutable: resurrecting the tombstone works and
  // keeps the slot's id and label, exactly as on the original.
  Graph t2 = t;
  const Edge e3 = t2.endpoints(3);
  EXPECT_EQ(t2.add_edge(e3.u, e3.v), 3u);
}

TEST(FrozenCsr, ThawedGraphServesIdenticalTrees) {
  const Graph g = gnp_connected(150, 0.05, 23);
  TempFile file("frozen_serve.rcsr");
  ASSERT_TRUE(FrozenCsr::freeze(g).write(file.path()));
  auto back = FrozenCsr::load(file.path());
  ASSERT_TRUE(back.has_value());
  const Graph t = back->thaw();
  const IsolationAtw policy(9);
  // The cached server on the thawed graph answers as the uncached trees of
  // the original do.
  const IsolationRpts thawed_scheme(t, policy);
  OracleServer server(thawed_scheme);
  for (Vertex root : {Vertex{0}, Vertex{77}, Vertex{149}}) {
    const auto want = tiebroken_sssp(g, policy, root, {}, Direction::kOut);
    const auto got = tiebroken_sssp(t, policy, root, {}, Direction::kOut);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(got.spt.hops(v), want.spt.hops(v));
      ASSERT_EQ(got.spt.parent(v), want.spt.parent(v));
      ASSERT_EQ(got.spt.parent_edge(v), want.spt.parent_edge(v));
      ASSERT_EQ(server.distance(root, v), want.spt.hops(v));
    }
  }
  EXPECT_GT(server.cache()->stats().hits, 0u);
}

TEST(FrozenCsr, RejectsCorruptionAndTruncation) {
  const Graph g = gnp_connected(50, 0.1, 3);
  TempFile file("frozen_corrupt.rcsr");
  const FrozenCsr frozen = FrozenCsr::freeze(g);
  ASSERT_TRUE(frozen.write(file.path()));

  // Flip one payload byte: the checksum must catch it.
  {
    std::fstream f(file.path(),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(100);
    char byte;
    f.seekg(100);
    f.read(&byte, 1);
    byte ^= 0x40;
    f.seekp(100);
    f.write(&byte, 1);
  }
  EXPECT_FALSE(FrozenCsr::load(file.path()).has_value());

  // Truncated rewrite: must be rejected, not read past the end.
  ASSERT_TRUE(frozen.write(file.path()));
  {
    std::ofstream f(file.path(),
                    std::ios::binary | std::ios::in | std::ios::ate);
  }
  std::ofstream(file.path(), std::ios::binary | std::ios::trunc)
      .write("RSPTCSR1 not really", 19);
  EXPECT_FALSE(FrozenCsr::load(file.path()).has_value());

  EXPECT_FALSE(FrozenCsr::load(file.path() + ".missing").has_value());
}

TEST(FrozenCsr, RejectsCraftedHeaderSizes) {
  // The checksum covers only the payload, so the header's u64 sizes are
  // attacker-controlled: a vertex/edge count near 2^62 used to wrap the
  // section-offset arithmetic into in-bounds-looking values. attach() must
  // reject id-space-exceeding sizes before any offset math.
  const Graph g = gnp_connected(50, 0.1, 3);
  TempFile file("frozen_crafted.rcsr");
  const FrozenCsr frozen = FrozenCsr::freeze(g);

  auto patch_u64 = [&](size_t off, uint64_t value) {
    ASSERT_TRUE(frozen.write(file.path()));
    std::fstream f(file.path(),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(off));
    f.write(reinterpret_cast<const char*>(&value), sizeof(value));
  };

  patch_u64(16, uint64_t{1} << 62);  // n: offset arithmetic would wrap
  EXPECT_FALSE(FrozenCsr::load(file.path()).has_value());
  patch_u64(16, (uint64_t{1} << 32) - 1);  // n == kNoVertex sentinel
  EXPECT_FALSE(FrozenCsr::load(file.path()).has_value());
  patch_u64(24, uint64_t{1} << 62);  // m: same wrap through 2*m*4
  EXPECT_FALSE(FrozenCsr::load(file.path()).has_value());
  patch_u64(16, uint64_t{1} << 31);  // n in-range but larger than the file
  EXPECT_FALSE(FrozenCsr::load(file.path()).has_value());
}

TEST(FrozenCsr, EmptyAndEdgelessGraphs) {
  const Graph none;
  TempFile file("frozen_empty.rcsr");
  ASSERT_TRUE(FrozenCsr::freeze(none).write(file.path()));
  auto back = FrozenCsr::load(file.path());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->num_vertices(), 0u);
  expect_same_graph(back->thaw(), none);

  const Graph lonely(5, {});
  ASSERT_TRUE(FrozenCsr::freeze(lonely).write(file.path()));
  back = FrozenCsr::load(file.path());
  ASSERT_TRUE(back.has_value());
  expect_same_graph(back->thaw(), lonely);
}

}  // namespace
}  // namespace restorable
