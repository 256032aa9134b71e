// Sampled per-query trace spans for the serving path.
//
// A QueryTrace is a small owned span tree describing ONE query's walk
// through the stack: query -> fetch -> {queue_wait, compute, coalesce_wait}
// -> ... with outcome-class and key attributes on each span. Traces are
// SAMPLED (1-in-N, default 256): the only cost an unsampled query pays is
// one relaxed fetch_add on the sequence counter, so the query hot path
// stays wait-free; sampled queries additionally build a heap-allocated
// span tree and hand it to the sink under the emitter mutex at the very
// end (off the pin/probe/hit path -- the trace is finished after the
// answer is computed).
//
// Span schema of Tracer::to_jsonl (one JSON object per trace, one line per
// trace -- JSONL):
//   {"trace": <id>, "spans": [
//      {"id":0, "parent":-1, "name":"query", "start_ns":..., "dur_ns":...,
//       "attrs": {"kind":"distance", "outcome":"miss_leader", ...}},
//      ...]}
// `start_ns` is the monotonic clock of util/timing.h (comparable across
// spans of one process, not across hosts). Parent ids index into the same
// `spans` array; -1 is the root. docs/OBSERVABILITY.md documents the span
// names and attributes the OracleServer emits.
//
// Under RESTORABLE_NO_METRICS, maybe_start() always returns nullptr, so
// tracing compiles out with the rest of the obs hot path.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace restorable::obs {

struct TraceSpan {
  std::string name;
  int32_t parent = -1;  // index into QueryTrace::spans(), -1 = root
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  std::vector<std::pair<std::string, std::string>> attrs;
};

// Owned by exactly one query thread between maybe_start() and finish();
// no internal synchronization (none is needed: single-owner by contract).
class QueryTrace {
 public:
  explicit QueryTrace(uint64_t id) : id_(id) {}

  // Opens a span starting now; close it with end(). Returns the span id.
  int32_t begin(std::string name, int32_t parent = -1) {
    const int32_t id = static_cast<int32_t>(spans_.size());
    spans_.push_back({std::move(name), parent, now_ns(), 0, {}});
    return id;
  }
  void end(int32_t span) {
    TraceSpan& s = spans_[static_cast<size_t>(span)];
    s.dur_ns = now_ns() - s.start_ns;
  }

  // Records a pre-timed span (the batcher reports queue-wait/compute as
  // durations after the fact; the server synthesizes their spans).
  int32_t add(std::string name, int32_t parent, uint64_t start_ns,
              uint64_t dur_ns) {
    const int32_t id = static_cast<int32_t>(spans_.size());
    spans_.push_back({std::move(name), parent, start_ns, dur_ns, {}});
    return id;
  }

  void attr(int32_t span, std::string key, std::string value) {
    spans_[static_cast<size_t>(span)].attrs.emplace_back(std::move(key),
                                                         std::move(value));
  }
  void attr(int32_t span, std::string key, uint64_t value) {
    attr(span, std::move(key), std::to_string(value));
  }

  uint64_t id() const { return id_; }
  const std::vector<TraceSpan>& spans() const { return spans_; }

 private:
  uint64_t id_;
  std::vector<TraceSpan> spans_;
};

// Sampling trace collector. maybe_start() is the hot-path entry: one
// relaxed fetch_add decides sampling; finish() serializes and emits under
// a mutex (sampled queries only, after the answer is produced).
class Tracer {
 public:
  struct Config {
    uint64_t sample_every = 256;  // emit 1 trace per this many queries (>=1)
  };
  using Sink = std::function<void(const QueryTrace&)>;

  // The sink receives each finished trace; to_jsonl() renders one as a
  // JSONL line.
  Tracer(Sink sink, Config cfg);
  explicit Tracer(Sink sink) : Tracer(std::move(sink), Config{}) {}

  // Returns a fresh trace for 1-in-sample_every calls, nullptr otherwise.
  // Wait-free; compiled out (always nullptr) under RESTORABLE_NO_METRICS.
  std::unique_ptr<QueryTrace> maybe_start() {
    if constexpr (!kEnabled) return nullptr;
    const uint64_t n = seq_.fetch_add(1, std::memory_order_relaxed);
    if (n % every_ != 0) return nullptr;
    return std::make_unique<QueryTrace>(n);
  }

  // Hands the trace to the sink. Takes the emitter mutex -- called only
  // for sampled traces, after the query's answer is already computed.
  void finish(std::unique_ptr<QueryTrace> trace);

  uint64_t started() const { return seq_.load(std::memory_order_relaxed); }
  uint64_t emitted() const { return emitted_.load(std::memory_order_relaxed); }

  static std::string to_jsonl(const QueryTrace& trace);

 private:
  uint64_t every_;
  std::atomic<uint64_t> seq_{0};
  std::atomic<uint64_t> emitted_{0};
  std::mutex mu_;
  Sink sink_;
};

}  // namespace restorable::obs
