// A small fixed-size thread pool built for batch fan-out: one job at a time,
// dynamic index-grab load balancing, and the calling thread participating as
// a worker so `threads == 1` costs nothing over a plain loop.
//
// This is deliberately not a general task graph: every workload in this
// library is "run body(i) for i in [0, count)" with heavy, independent
// bodies (whole SSSP runs), so an atomic next-index counter beats any
// queueing structure and keeps the pool ~150 lines.
//
// Nesting: a body that itself calls parallel_for (e.g. a batched consumer
// invoked from inside another batch) runs the inner loop inline on the
// current thread. That keeps per-thread workspaces exclusive and makes
// nesting deadlock-free by construction.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace restorable {

class ThreadPool {
 public:
  // threads == 0 picks std::thread::hardware_concurrency(). The pool spawns
  // threads - 1 workers; the caller of parallel_for is the remaining one.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Total execution lanes (workers + the calling thread).
  int thread_count() const { return static_cast<int>(workers_.size()) + 1; }

  // Runs body(i) for every i in [0, count), distributing indices over the
  // pool; returns when all have completed. If the body throws on any lane,
  // the remaining undistributed indices are cancelled, the workers are
  // drained, and the first exception is rethrown on the caller; the pool
  // then runs its next job normally.
  void parallel_for(size_t count,
                    const std::function<void(size_t)>& body) const;

 private:
  void worker_main();
  void run_indices(const std::function<void(size_t)>& body) const;

  mutable std::mutex job_mutex_;  // serializes external parallel_for callers

  mutable std::mutex m_;
  mutable std::condition_variable cv_start_;
  mutable std::condition_variable cv_done_;
  mutable const std::function<void(size_t)>* job_ = nullptr;
  mutable size_t count_ = 0;
  mutable std::atomic<size_t> next_{0};
  mutable uint64_t epoch_ = 0;
  mutable int running_ = 0;
  mutable std::exception_ptr error_;  // first worker exception, under m_
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace restorable
