// Tests for the observability layer (src/obs/): wait-free counter and
// histogram exactness under 1/2/8-thread hammers (the TSan target for the
// metrics hot path), the log2 bucket-boundary regression against the
// batcher's original histogram loop, snapshot-during-update consistency,
// registry registration/removal, the one-document coverage of every
// serving-stack component, and trace-span parenting through a real
// OracleServer mixed hit/miss workload.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/rpts.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/oracle_server.h"

namespace restorable {
namespace {

// The batcher's pre-migration histogram loop, verbatim: the boundary
// contract obs::Histogram::bucket_of must reproduce bit-for-bit.
size_t legacy_batcher_bucket(uint64_t v, size_t num_buckets) {
  size_t bucket = 0;
  while ((v >> (bucket + 1)) > 0 && bucket + 1 < num_buckets) ++bucket;
  return bucket;
}

TEST(Histogram, BucketBoundariesMatchLegacyBatcherLoop) {
  // Pure function: runs (and must hold) in both metric builds.
  for (const size_t n : {1u, 2u, 16u, 40u}) {
    for (uint64_t v = 0; v < 4096; ++v)
      ASSERT_EQ(obs::Histogram::bucket_of(v, n), legacy_batcher_bucket(v, n))
          << "v=" << v << " n=" << n;
    for (int k = 0; k < 63; ++k) {
      const uint64_t p = uint64_t{1} << k;
      for (const uint64_t v : {p - 1, p, p + 1})
        ASSERT_EQ(obs::Histogram::bucket_of(v, n), legacy_batcher_bucket(v, n))
            << "v=" << v << " n=" << n;
    }
  }
  EXPECT_EQ(obs::Histogram::bucket_lower_bound(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_lower_bound(1), 2u);
  EXPECT_EQ(obs::Histogram::bucket_lower_bound(5), 32u);
}

// 20 threads: more than kThreadCells, so some threads share a cell.
TEST(Counter, ExactTotalsAcrossThreadCounts) {
  if (!obs::kEnabled) GTEST_SKIP() << "metrics compiled out";
  for (const int threads : {1, 2, 8, 20}) {
    obs::Counter c;
    constexpr uint64_t kPerThread = 20000;
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t)
      workers.emplace_back([&] {
        for (uint64_t i = 0; i < kPerThread; ++i) c.add();
      });
    for (auto& w : workers) w.join();
    EXPECT_EQ(c.value(), kPerThread * static_cast<uint64_t>(threads));
  }
}

TEST(Histogram, ExactTotalsAcrossThreadCounts) {
  if (!obs::kEnabled) GTEST_SKIP() << "metrics compiled out";
  for (const int threads : {1, 2, 8, 20}) {
    obs::Histogram h(16);
    constexpr uint64_t kPerThread = 20000;
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t)
      workers.emplace_back([&, t] {
        for (uint64_t i = 0; i < kPerThread; ++i)
          h.record((i + static_cast<uint64_t>(t)) % 1000);
      });
    for (auto& w : workers) w.join();
    const auto s = h.snapshot();
    EXPECT_EQ(s.count, kPerThread * static_cast<uint64_t>(threads));
    uint64_t value_sum = 0;
    for (int t = 0; t < threads; ++t)
      for (uint64_t i = 0; i < kPerThread; ++i)
        value_sum += (i + static_cast<uint64_t>(t)) % 1000;
    EXPECT_EQ(s.sum, value_sum);
    uint64_t bucket_sum = 0;
    for (uint64_t b : s.buckets) bucket_sum += b;
    EXPECT_EQ(bucket_sum, s.count);
  }
}

TEST(Histogram, RecordedValuesLandInDocumentedBuckets) {
  if (!obs::kEnabled) GTEST_SKIP() << "metrics compiled out";
  obs::Histogram h(8);
  h.record(0);
  h.record(1);   // bucket 0
  h.record(2);
  h.record(3);   // bucket 1
  h.record(4);   // bucket 2
  h.record(1u << 20);  // clamped into the last bucket (7)
  const auto s = h.snapshot();
  EXPECT_EQ(s.buckets[0], 2u);
  EXPECT_EQ(s.buckets[1], 2u);
  EXPECT_EQ(s.buckets[2], 1u);
  EXPECT_EQ(s.buckets[7], 1u);
  EXPECT_EQ(s.count, 6u);
  EXPECT_EQ(s.sum, 0u + 1 + 2 + 3 + 4 + (1u << 20));
}

// Snapshots taken while writers are running must be internally consistent:
// histogram count == sum of its sampled buckets by construction, and every
// monotone value is non-decreasing across successive snapshots.
TEST(Registry, SnapshotDuringUpdateStaysConsistent) {
  if (!obs::kEnabled) GTEST_SKIP() << "metrics compiled out";
  obs::MetricsRegistry reg;
  obs::Counter c;
  obs::Histogram h(16);
  auto r = reg.add("hammered", [&](obs::ComponentBuilder& b) {
    b.counter("count", c);
    b.histogram("hist", h);
  });
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      c.add();
      h.record(i++ % 512);
    }
  });
  uint64_t last_count = 0, last_hist = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    const obs::MetricsSnapshot snap = reg.snapshot();
    const obs::MetricValue* count = snap.find("hammered", "count");
    const obs::MetricValue* hist = snap.find("hammered", "hist");
    ASSERT_NE(count, nullptr);
    ASSERT_NE(hist, nullptr);
    uint64_t bucket_sum = 0;
    for (uint64_t b : hist->buckets) bucket_sum += b;
    ASSERT_EQ(bucket_sum, static_cast<uint64_t>(hist->value))
        << "histogram count must equal the sum of its sampled buckets";
    ASSERT_GE(static_cast<uint64_t>(count->value), last_count)
        << "counters are monotone";
    ASSERT_GE(static_cast<uint64_t>(hist->value), last_hist);
    last_count = static_cast<uint64_t>(count->value);
    last_hist = static_cast<uint64_t>(hist->value);
  }
  stop.store(true);
  writer.join();
}

TEST(Registry, RegistrationIsRaii) {
  obs::MetricsRegistry reg;
  EXPECT_EQ(reg.component_count(), 0u);
  {
    auto r1 = reg.add("a", [](obs::ComponentBuilder& b) { b.counter("x", 1); });
    auto r2 = reg.add("b", [](obs::ComponentBuilder& b) { b.gauge("y", -2); });
    EXPECT_EQ(reg.component_count(), 2u);
    const obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.value_or("a", "x"), 1);
    EXPECT_EQ(snap.value_or("b", "y"), -2);
    EXPECT_EQ(snap.value_or("b", "missing", -7), -7);
    EXPECT_EQ(snap.find("c", "x"), nullptr);
  }
  EXPECT_EQ(reg.component_count(), 0u);
  EXPECT_TRUE(reg.snapshot().components.empty());
}

// One exported histogram row: its "value" (the count) and its "buckets".
struct HistogramRow {
  int64_t count = 0;
  std::vector<uint64_t> buckets;
};

// Every histogram row of a snapshot's JSON document (one row per line). Each
// row's kind must be one of the three, and a histogram's bucket sum must
// equal its count.
std::vector<HistogramRow> exported_histograms(
    const obs::MetricsSnapshot& snap) {
  JsonRows rows;
  snap.to_json(rows);
  std::ostringstream os;
  rows.write(os);
  std::istringstream lines(os.str());
  const auto field = [](const std::string& line, const std::string& key) {
    const std::string tag = "\"" + key + "\": ";
    const size_t at = line.find(tag);
    if (at == std::string::npos) return std::string();
    const size_t from = at + tag.size();
    // A string value runs to its closing quote; a number to ',' or '}'.
    const size_t end = line[from] == '"' ? line.find('"', from + 1) + 1
                                         : line.find_first_of(",}", from);
    return line.substr(from, end - from);
  };
  std::vector<HistogramRow> out;
  for (std::string line; std::getline(lines, line);) {
    if (line.find('{') == std::string::npos) continue;
    const std::string kind = field(line, "kind");
    EXPECT_TRUE(kind == "\"counter\"" || kind == "\"gauge\"" ||
                kind == "\"histogram\"")
        << line;
    if (kind != "\"histogram\"") continue;
    HistogramRow h;
    h.count = std::stoll(field(line, "value"));
    // "buckets": "b0,b1,..." -- the comma-separated list sits in quotes.
    const std::string list_field = field(line, "buckets");
    std::istringstream list(list_field.substr(1, list_field.size() - 2));
    uint64_t sum = 0;
    for (std::string b; std::getline(list, b, ',');) {
      h.buckets.push_back(std::stoull(b));
      sum += h.buckets.back();
    }
    EXPECT_EQ(sum, static_cast<uint64_t>(h.count)) << line;
    out.push_back(std::move(h));
  }
  return out;
}

TEST(Registry, JsonAndTableExportEmitEveryMetric) {
  obs::MetricsRegistry reg;
  obs::Histogram h(4);
  h.record(3);
  // One sample in every bucket, and one past the last (clamped into it).
  for (const uint64_t v : {uint64_t{0}, uint64_t{5}, uint64_t{9},
                           uint64_t{1} << 20})
    h.record(v);
  auto r = reg.add("comp", [&](obs::ComponentBuilder& b) {
    b.counter("c", 7);
    b.gauge("g", -1);
    b.histogram("h", h);
  });
  const obs::MetricsSnapshot snap = reg.snapshot();
  JsonRows rows;
  snap.to_json(rows, [](JsonRows& r2) { r2.field("tag", "t1"); });
  EXPECT_EQ(rows.size(), 3u);
  std::ostringstream os;
  rows.write(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"component\": \"comp\""), std::string::npos);
  EXPECT_NE(json.find("\"metric\": \"h\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"tag\": \"t1\""), std::string::npos);
  std::ostringstream table_os;
  snap.to_table().print(table_os);
  EXPECT_NE(table_os.str().find("comp"), std::string::npos);

  // The exported row keeps every bucket and every sample.
  const std::vector<HistogramRow> hists = exported_histograms(snap);
  ASSERT_EQ(hists.size(), 1u);
  ASSERT_EQ(hists[0].buckets.size(), h.num_buckets());
  if (obs::kEnabled) {
    EXPECT_EQ(hists[0].count, 5);
    EXPECT_EQ(hists[0].buckets, (std::vector<uint64_t>{1, 1, 1, 2}));
  }
}

// ---------------------------------------------------------------------------
// Through a real OracleServer.

OracleServer make_server(const IRpts& pi, obs::Tracer* tracer = nullptr) {
  ServerConfig cfg;
  cfg.cache.shards = 2;
  cfg.cache.byte_budget = 16u << 20;
  cfg.tracer = tracer;
  return OracleServer(pi, cfg);
}

TEST(ServerObs, OneSnapshotCoversEveryComponent) {
  const Graph g = gnp_connected(40, 0.1, 11);
  const IsolationRpts pi(g, IsolationAtw(5));
  ServerConfig cfg;
  OracleServer server(pi, cfg);
  // Mixed workload: repeated base queries (hits after the first), one fault
  // query (miss then hit), so several classes populate. The fault is the
  // last edge of the selected 1 -> 6 path, so the stability fast path
  // cannot answer and the fault tree is fetched.
  const EdgeId on_path = pi.spt(1).parent_edge(6);
  ASSERT_NE(on_path, kNoEdge);
  for (int i = 0; i < 4; ++i) server.distance(0, 5);
  server.distance(1, 6, FaultSet{on_path});
  server.distance(1, 6, FaultSet{on_path});

  const obs::MetricsSnapshot snap = server.metrics().snapshot();
  auto has_component = [&](const std::string& name) {
    for (const auto& c : snap.components)
      if (c.component == name) return true;
    return false;
  };
  EXPECT_TRUE(has_component("server"));
  EXPECT_TRUE(has_component("cache"));
  EXPECT_TRUE(has_component("batcher"));
  EXPECT_TRUE(has_component("generations"));
  EXPECT_TRUE(has_component("engine"));

  EXPECT_EQ(snap.value_or("server", "queries"), 6);
  EXPECT_EQ(snap.value_or("server", "stability_fast_paths"), 0);
  if (obs::kEnabled) {
    // 8 fetches of 3 distinct trees: base misses of roots 0 and 1, 4 base
    // hits (3 of root 0, 1 of root 1), fault miss, fault hit.
    EXPECT_EQ(snap.value_or("server", "miss_leader.fetches"), 3);
    EXPECT_EQ(snap.value_or("server", "base_hit.fetches"), 4);
    EXPECT_EQ(snap.value_or("server", "fault_hit.fetches"), 1);
    EXPECT_EQ(snap.value_or("server", "query.latency_ns"), 6);
  }
  // Non-obs-backed component stats flow in either build: every batcher get
  // probes the cache exactly once.
  EXPECT_EQ(snap.value_or("cache", "hits") + snap.value_or("cache", "misses"),
            snap.value_or("batcher", "requests"));
  EXPECT_GE(snap.value_or("engine", "batches"), 1);
  // The whole stack's document exports consistent histogram rows.
  EXPECT_FALSE(exported_histograms(snap).empty());
}

TEST(ServerObs, StatsComposesFromOneSnapshot) {
  const Graph g = gnp_connected(40, 0.1, 13);
  const IsolationRpts pi(g, IsolationAtw(3));
  ServerConfig cfg;
  OracleServer server(pi, cfg);
  for (int i = 0; i < 3; ++i) server.distance(2, 7);
  server.replacement_distance(2, 7, 0);
  const ServerStats s = server.stats();
  EXPECT_EQ(s.queries, server.queries_served());
  EXPECT_EQ(s.bytes_materialized, server.bytes_materialized());
  EXPECT_EQ(s.stability_fast_paths, server.stability_fast_paths());
  if (obs::kEnabled) {
    EXPECT_EQ(s.base_hit + s.fault_hit + s.miss_coalesced + s.miss_leader,
              static_cast<uint64_t>(
                  server.batcher() ? server.batcher()->stats().requests : 0));
    EXPECT_GT(s.compute_ns, 0u);  // the first miss computed something
  }
}

TEST(ServerObs, BatcherHistogramIsSharedObsHistogram) {
  const Graph g = gnp_connected(40, 0.1, 17);
  const IsolationRpts pi(g, IsolationAtw(4));
  ServerConfig cfg;
  OracleServer server(pi, cfg);
  for (Vertex s = 0; s < 6; ++s) server.distance(s, (s + 1) % 40);
  const CoalescingBatcher::Stats bs = server.batcher()->stats();
  uint64_t hist_total = 0;
  for (uint64_t b : bs.batch_hist) hist_total += b;
  if (obs::kEnabled) {
    // Every flush records exactly one histogram sample.
    EXPECT_EQ(hist_total, bs.flushes);
    // Single-thread queries flush one key at a time: bucket 0 (size 0-1).
    EXPECT_EQ(bs.batch_hist[0], bs.flushes);
  } else {
    EXPECT_EQ(hist_total, 0u);  // compiled out: view reads zeros
  }
}

TEST(ServerObs, UpdatePathCountsRepairSplit) {
  Graph g = gnp_connected(50, 0.12, 19);
  const IsolationRpts pi(g, IsolationAtw(6));
  ServerConfig cfg;
  OracleServer server(pi, cfg);
  // Warm a few base trees, then flap an edge so some get invalidated and
  // prewarm repairs/recomputes them.
  for (Vertex s = 0; s < 8; ++s) server.distance(s, (s + 3) % 50);
  const UpdateResult res = server.apply_update(g, GraphDelta::remove(0));
  ASSERT_TRUE(res.changed);
  const ServerStats s = server.stats();
  if (obs::kEnabled) {
    EXPECT_EQ(s.repaired + s.recomputed, static_cast<uint64_t>(res.prewarmed));
    EXPECT_EQ(s.repaired, static_cast<uint64_t>(res.repaired));
    if (res.prewarmed > 0) {
      EXPECT_GT(s.repair_ns, 0u);
    }
  }
}

TEST(ServerObs, TraceSpansParentThroughMixedWorkload) {
  if (!obs::kEnabled) GTEST_SKIP() << "tracing compiled out";
  const Graph g = gnp_connected(40, 0.1, 23);
  const IsolationRpts pi(g, IsolationAtw(7));
  std::vector<std::vector<obs::TraceSpan>> traces;
  obs::Tracer tracer(
      obs::Tracer::Sink([&](const obs::QueryTrace& t) {
        traces.push_back(t.spans());
      }),
      obs::Tracer::Config{1});  // sample everything
  OracleServer server = make_server(pi, &tracer);
  // Mixed hit/miss: first query per root misses, repeats hit; one
  // replacement query exercises a two-fetch trace.
  for (int rep = 0; rep < 2; ++rep)
    for (Vertex s = 0; s < 3; ++s) server.distance(s, (s + 5) % 40);
  server.replacement_distance(0, 5, 3);
  ASSERT_EQ(tracer.emitted(), traces.size());
  ASSERT_EQ(traces.size(), 7u);

  bool saw_miss = false, saw_hit = false, saw_two_fetches = false;
  for (const auto& spans : traces) {
    ASSERT_FALSE(spans.empty());
    // Span 0 is the root "query" span; every other span's parent precedes
    // it in the array (parents are created before children).
    EXPECT_EQ(spans[0].name, "query");
    EXPECT_EQ(spans[0].parent, -1);
    size_t fetches = 0;
    for (size_t i = 1; i < spans.size(); ++i) {
      ASSERT_GE(spans[i].parent, 0);
      ASSERT_LT(static_cast<size_t>(spans[i].parent), i);
      if (spans[i].name == "fetch") {
        ++fetches;
        EXPECT_EQ(spans[i].parent, 0);
        for (const auto& [k, v] : spans[i].attrs) {
          if (k != "outcome") continue;
          if (v == "miss_leader") saw_miss = true;
          if (v == "base_hit" || v == "fault_hit") saw_hit = true;
        }
      } else {
        // Decomposition spans hang off a fetch span, never the root.
        EXPECT_EQ(spans[static_cast<size_t>(spans[i].parent)].name, "fetch");
      }
    }
    EXPECT_GE(fetches, 1u);
    if (fetches == 2) saw_two_fetches = true;
  }
  EXPECT_TRUE(saw_miss);
  EXPECT_TRUE(saw_hit);
  // The replacement query's fault-tree fetch shares its trace with the base
  // fetch (unless the stability fast path answered from the base tree, in
  // which case there is exactly one fetch -- accept either, but the JSONL
  // form must round-trip the span count).
  (void)saw_two_fetches;

  obs::QueryTrace qt(42);
  const int32_t root = qt.begin("query");
  qt.add("fetch", root, 100, 50);
  qt.attr(root, "kind", std::string("distance"));
  qt.end(root);
  const std::string line = obs::Tracer::to_jsonl(qt);
  EXPECT_EQ(line.find("{\"trace\": 42, \"spans\": ["), 0u);
  EXPECT_NE(line.find("\"name\": \"fetch\""), std::string::npos);
  EXPECT_NE(line.find("\"parent\": 0"), std::string::npos);
  EXPECT_NE(line.find("\"attrs\": {\"kind\": \"distance\"}"),
            std::string::npos);
}

TEST(ServerObs, UnsampledTracingEmitsNothing) {
  const Graph g = gnp_connected(30, 0.12, 29);
  const IsolationRpts pi(g, IsolationAtw(2));
  size_t emitted = 0;
  obs::Tracer tracer(
      obs::Tracer::Sink([&](const obs::QueryTrace&) { ++emitted; }),
      obs::Tracer::Config{1000000});
  OracleServer server = make_server(pi, &tracer);
  for (int i = 0; i < 50; ++i) server.distance(0, 5);
  // Only the very first query (seq 0) samples at this rate -- and none at
  // all when metrics are compiled out.
  EXPECT_EQ(emitted, obs::kEnabled ? 1u : 0u);
}

// The TSan target: 8 query threads on the wait-free hot path + a mutator
// applying updates + a snapshot reader, all concurrent. Exactness is
// asserted where the workload is deterministic (total query count).
TEST(ServerObs, ConcurrentQueriesUpdatesAndSnapshots) {
  Graph g = gnp_connected(60, 0.08, 31);
  const IsolationRpts pi(g, IsolationAtw(9));
  ServerConfig cfg;
  OracleServer server(pi, cfg);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 60;
  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const obs::MetricsSnapshot snap = server.metrics().snapshot();
      ASSERT_GE(snap.components.size(), 4u);
    }
  });
  std::thread mutator([&] {
    for (int i = 0; i < 6; ++i) {
      const UpdateResult res =
          server.apply_update(g, GraphDelta::remove(static_cast<EdgeId>(i)));
      if (res.changed)
        server.apply_update(g, GraphDelta::insert(res.delta.u, res.delta.v));
    }
  });
  std::vector<std::thread> queriers;
  std::atomic<int64_t> sink{0};
  for (int t = 0; t < kThreads; ++t)
    queriers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const Vertex s = static_cast<Vertex>((t * 7 + i) % 60);
        sink.fetch_add(server.distance(s, (s + 11) % 60),
                       std::memory_order_relaxed);
      }
    });
  for (auto& w : queriers) w.join();
  mutator.join();
  stop.store(true);
  snapshotter.join();
  EXPECT_EQ(server.queries_served(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  const ServerStats s = server.stats();
  if (obs::kEnabled) {
    EXPECT_EQ(s.base_hit + s.fault_hit + s.miss_coalesced + s.miss_leader,
              server.batcher()->stats().requests);
  }
}

}  // namespace
}  // namespace restorable
