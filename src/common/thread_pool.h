// A fixed-size work-stealing-free thread pool with a shared queue. The
// engine creates one and runs each query's splits on it. Shared queue
// keeps it simple; tasks here are coarse (per-split), so contention on
// the queue mutex is negligible relative to task cost.
//
// Lifecycle: Submit/ParallelFor may be called from any thread until
// Shutdown() (or the destructor) begins. Submitting after shutdown is a
// caller bug and fails a POCS_CHECK — the alternative (silently dropping
// the task) deadlocks whoever waits on the returned future. The
// destructor drains deterministically: every task enqueued before the
// destructor ran is executed before the worker threads are joined.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/thread_annotations.h"

namespace pocs {

class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueue a task; returns a future for its result. CHECK-fails if the
  // pool is already shut down.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    {
      MutexLock lock(mu_);
      POCS_CHECK(!stop_) << "ThreadPool::Submit after Shutdown";
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  // Run fn(i) for i in [0, n) across the pool and wait for completion.
  // If any invocation throws, all n invocations still run to completion
  // (so no task outlives the call holding references into its frame) and
  // the first exception, in index order, is rethrown to the caller.
  // Small n gets one task per index (coarse per-split work); large n is
  // chunked into contiguous blocks to amortize per-task queue overhead.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  // Drain the queue, run every enqueued task, and join the workers.
  // Idempotent; implicitly called by the destructor.
  void Shutdown();

  bool stopped() const {
    MutexLock lock(mu_);
    return stop_;
  }

  size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop();

  mutable Mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_ POCS_GUARDED_BY(mu_);
  // Written only by the constructor, joined lock-free by Shutdown (taking
  // mu_ around join() would deadlock against the workers); immutable in
  // between, so it is deliberately not guarded.
  std::vector<std::thread> threads_;  // pocs-lint: allow(unannotated-mutex)
  bool stop_ POCS_GUARDED_BY(mu_) = false;
};

}  // namespace pocs
