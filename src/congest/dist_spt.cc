#include "congest/dist_spt.h"

#include <algorithm>
#include <atomic>
#include <deque>

#include "util/random.h"

namespace restorable::congest {

namespace {

size_t bits_for(size_t x) {
  size_t b = 1;
  while ((size_t{1} << b) < x) ++b;
  return b;
}

// Travel orientation of edge e when moving from `from` to the other side.
bool travel_forward(const Graph& g, EdgeId e, Vertex from) {
  return g.endpoints(e).u == from;
}

struct Label {
  int32_t hops = kUnreachable;
  int64_t tie = 0;
  EdgeId parent_edge = kNoEdge;

  bool better_than(int32_t h, int64_t t) const {
    if (hops == kUnreachable) return false;
    if (hops != h) return hops < h;
    return tie <= t;
  }
};

Spt to_spt(const Graph& g, Vertex root, const std::vector<Label>& label) {
  const Vertex n = g.num_vertices();
  std::vector<int32_t> hops(n);
  std::vector<EdgeId> parent_edge(n);
  for (Vertex v = 0; v < n; ++v) {
    hops[v] = label[v].hops;
    parent_edge[v] = label[v].parent_edge;
  }
  Spt spt;
  Spt::encode(root, Direction::kOut, hops, parent_edge, g.shared_endpoints(),
              spt);
  return spt;
}

}  // namespace

DistSptResult run_distributed_spt(const Graph& g, const IsolationAtw& atw,
                                  Vertex root, const ThreadPool* pool) {
  // Message: hops (log n bits) + tie numerator (the isolation weights use
  // O(f log n) bits; with the default 45-bit range we declare 64). Total
  // stays a constant number of O(log n) words, as Lemma 34 requires.
  const int msg_bits =
      static_cast<int>(bits_for(g.num_vertices() + 1)) + 64;
  SyncNetwork net(g, /*bandwidth_bits=*/128, pool);

  std::vector<Label> label(g.num_vertices());
  label[root] = Label{0, 0, kNoEdge};
  std::vector<char> announced(g.num_vertices(), 0);

  auto broadcast = [&](Vertex v) {
    announced[v] = 1;
    for (const Arc& a : g.arcs(v)) {
      Message m;
      m.hops = label[v].hops;
      m.tie = label[v].tie;
      m.bits = msg_bits;
      net.send(v, a.edge, m);
    }
  };

  bool progressed = true;
  while (progressed) {
    progressed = net.round([&](Vertex v) {
      // Phase i invariant (Lemma 34): when the first messages arrive at v,
      // *all* its previous-layer neighbors have announced, so picking the
      // minimum perturbed candidate fixes v's parent in one shot.
      if (label[v].hops == kUnreachable) {
        const auto inbox = net.inbox(v);
        if (!inbox.empty()) {
          Label best;
          for (const Delivery& d : inbox) {
            const int64_t t =
                d.msg.tie +
                atw.arc_value(g.label(d.edge),
                              travel_forward(g, d.edge, d.from));
            const int32_t h = d.msg.hops + 1;
            if (!best.better_than(h, t)) {
              best = Label{h, t, d.edge};
            }
          }
          label[v] = best;
          broadcast(v);
        }
      } else if (!announced[v]) {
        // The root kicks off round 1.
        broadcast(v);
      }
    });
  }

  DistSptResult res;
  res.spt = to_spt(g, root, label);
  res.stats = net.stats();
  return res;
}

ParallelSptResult run_parallel_spts(const Graph& g, const IsolationAtw& atw,
                                    std::span<const Vertex> sources,
                                    uint64_t schedule_seed,
                                    const ThreadPool* pool) {
  const Vertex n = g.num_vertices();
  const size_t sigma = sources.size();
  const int msg_bits = static_cast<int>(bits_for(n + 1)) +
                       static_cast<int>(bits_for(sigma + 1)) + 64;
  SyncNetwork net(g, /*bandwidth_bits=*/160, pool);

  // Random start delays in [0, sigma): Theorem 35's schedule. (Shared seed
  // = the paper's shared O(log^2 n)-bit schedule seed.)
  Rng rng(schedule_seed);
  std::vector<int> delay(sigma);
  int max_delay = 0;
  for (size_t k = 0; k < sigma; ++k) {
    delay[k] = sigma > 1 ? static_cast<int>(rng.next_below(sigma)) : 0;
    max_delay = std::max(max_delay, delay[k]);
  }

  // Per-vertex per-instance labels.
  std::vector<std::vector<Label>> label(n, std::vector<Label>(sigma));
  // Per directed arc: FIFO of instances with a pending (possibly updated)
  // announcement. pending_val holds the freshest label per (arc, instance).
  struct ArcQueue {
    std::deque<uint32_t> fifo;
    std::vector<char> queued;  // per instance
    ArcQueue(size_t s) : queued(s, 0) {}
  };
  // Arc index: 2*e + (0 if from == endpoints(e).u else 1).
  std::vector<ArcQueue> queues;
  queues.reserve(2 * g.num_edges());
  for (size_t i = 0; i < 2 * g.num_edges(); ++i) queues.emplace_back(sigma);

  auto arc_index = [&](EdgeId e, Vertex from) {
    return 2 * static_cast<size_t>(e) +
           (g.endpoints(e).u == from ? 0 : 1);
  };

  auto enqueue_all = [&](Vertex v, uint32_t inst) {
    for (const Arc& a : g.arcs(v)) {
      ArcQueue& q = queues[arc_index(a.edge, v)];
      if (!q.queued[inst]) {
        q.queued[inst] = 1;
        q.fifo.push_back(inst);
      }
      // If already queued, the freshest label is read at send time.
    }
  };

  int round_no = 0;
  bool work_left = true;
  while (work_left) {
    ++round_no;
    // Written by concurrent step bodies when the network runs on a pool;
    // monotone (false -> true only), so a relaxed atomic keeps the reduction
    // race-free without perturbing determinism.
    std::atomic<bool> queues_nonempty{false};
    const bool sent = net.round([&](Vertex v) {
      // 1. Process arrivals (distance-vector relaxation).
      for (const Delivery& d : net.inbox(v)) {
        const uint32_t inst = d.msg.instance;
        const int64_t t =
            d.msg.tie + atw.arc_value(g.label(d.edge),
                                      travel_forward(g, d.edge, d.from));
        const int32_t h = d.msg.hops + 1;
        Label& cur = label[v][inst];
        if (!cur.better_than(h, t)) {
          cur = Label{h, t, d.edge};
          enqueue_all(v, inst);
        }
      }
      // 2. Delayed starts.
      for (size_t k = 0; k < sigma; ++k) {
        if (sources[k] == v && round_no == delay[k] + 1) {
          label[v][k] = Label{0, 0, kNoEdge};
          enqueue_all(v, static_cast<uint32_t>(k));
        }
      }
      // 3. Send at most one queued announcement per incident directed arc.
      for (const Arc& a : g.arcs(v)) {
        ArcQueue& q = queues[arc_index(a.edge, v)];
        if (q.fifo.empty()) continue;
        const uint32_t inst = q.fifo.front();
        q.fifo.pop_front();
        q.queued[inst] = 0;
        Message m;
        m.instance = inst;
        m.hops = label[v][inst].hops;
        m.tie = label[v][inst].tie;
        m.bits = msg_bits;
        net.send(v, a.edge, m);
        if (!q.fifo.empty())
          queues_nonempty.store(true, std::memory_order_relaxed);
      }
    });
    // Also account for roots that have not started yet.
    bool pending_start = false;
    for (size_t k = 0; k < sigma; ++k)
      if (round_no <= delay[k]) pending_start = true;
    work_left =
        sent || queues_nonempty.load(std::memory_order_relaxed) || pending_start;
  }

  ParallelSptResult res;
  res.stats = net.stats();
  res.max_delay = max_delay;
  res.spts.reserve(sigma);
  for (size_t k = 0; k < sigma; ++k) {
    std::vector<Label> one(n);
    for (Vertex v = 0; v < n; ++v) one[v] = label[v][k];
    res.spts.push_back(to_spt(g, sources[k], one));
  }
  return res;
}

}  // namespace restorable::congest
