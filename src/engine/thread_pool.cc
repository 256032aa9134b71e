#include "engine/thread_pool.h"

#include <atomic>
#include <exception>
#include <utility>

namespace restorable {

namespace {

// True while the current thread is executing a parallel_for body (either as
// a pool worker or as the participating caller). Used to run nested
// parallel_for calls inline instead of deadlocking on job_mutex_.
thread_local bool t_inside_pool = false;

}  // namespace

ThreadPool::ThreadPool(int threads) {
  if (threads <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw > 0 ? static_cast<int>(hw) : 1;
  }
  workers_.reserve(static_cast<size_t>(threads - 1));
  for (int i = 1; i < threads; ++i)
    workers_.emplace_back([this] { worker_main(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(m_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::run_indices(const std::function<void(size_t)>& body) const {
  for (size_t i; (i = next_.fetch_add(1, std::memory_order_relaxed)) < count_;)
    body(i);
}

void ThreadPool::worker_main() {
  t_inside_pool = true;
  uint64_t seen = 0;
  std::unique_lock<std::mutex> lk(m_);
  for (;;) {
    cv_start_.wait(lk, [&] { return stop_ || epoch_ != seen; });
    if (stop_) return;
    seen = epoch_;
    const std::function<void(size_t)>* job = job_;
    lk.unlock();
    std::exception_ptr error;
    try {
      run_indices(*job);
    } catch (...) {
      // Cancel the undistributed indices; the caller rethrows after the
      // drain.
      error = std::current_exception();
      next_.store(count_, std::memory_order_relaxed);
    }
    lk.lock();
    if (error && !error_) error_ = std::move(error);
    if (--running_ == 0) cv_done_.notify_all();
  }
}

void ThreadPool::parallel_for(size_t count,
                              const std::function<void(size_t)>& body) const {
  if (count == 0) return;
  if (t_inside_pool || workers_.empty() || count == 1) {
    // Nested call, degenerate pool, or nothing to distribute: run inline.
    for (size_t i = 0; i < count; ++i) body(i);
    return;
  }
  std::lock_guard<std::mutex> job_lk(job_mutex_);
  {
    std::lock_guard<std::mutex> lk(m_);
    job_ = &body;
    count_ = count;
    next_.store(0, std::memory_order_relaxed);
    running_ = static_cast<int>(workers_.size());
    ++epoch_;
  }
  cv_start_.notify_all();
  t_inside_pool = true;
  try {
    run_indices(body);
  } catch (...) {
    // The body's captured state lives in our caller's frame: we must not
    // unwind while workers still reference it. Cancel undistributed indices,
    // wait the workers out, then rethrow (the caller's own exception wins
    // over any a worker stored).
    t_inside_pool = false;
    next_.store(count_, std::memory_order_relaxed);
    std::unique_lock<std::mutex> lk(m_);
    cv_done_.wait(lk, [&] { return running_ == 0; });
    job_ = nullptr;
    error_ = nullptr;
    throw;
  }
  t_inside_pool = false;
  std::unique_lock<std::mutex> lk(m_);
  cv_done_.wait(lk, [&] { return running_ == 0; });
  job_ = nullptr;
  // A worker's exception, stored under m_, surfaces on the caller once
  // every worker has left the body.
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

}  // namespace restorable
