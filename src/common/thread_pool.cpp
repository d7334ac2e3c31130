#include "common/thread_pool.h"

#include <algorithm>
#include <exception>
#include <utility>

namespace pocs {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  {
    MutexLock lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  // Workers only exit once the queue is empty, so every task enqueued
  // before stop_ was set runs before the join below returns.
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      // Explicit predicate loop (not the lambda-predicate overload): the
      // analysis treats mu_ as held across the wait, and every guarded
      // access here really does run with the lock re-acquired.
      while (!stop_ && queue_.empty()) cv_.wait(lock.native());
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (n == 1) {
    fn(0);
    return;
  }
  // Per-index tasks are right for coarse, uneven work (the engine's
  // per-split fan-out), but for large n (a query of many small splits)
  // the per-task packaged_task/future/queue-mutex overhead dominates.
  // Chunk into contiguous blocks once n clearly exceeds the pool; 4
  // blocks per thread keeps load balancing reasonable for mildly uneven
  // work without reintroducing per-index overhead.
  const size_t chunk_threshold = 4 * num_threads();
  const size_t num_blocks =
      n <= chunk_threshold ? n : std::min(n, chunk_threshold);
  const size_t block_size = (n + num_blocks - 1) / num_blocks;

  struct BlockError {
    std::exception_ptr error;  // first exception within the block...
    size_t index = 0;          // ...and the index that threw it
  };
  std::vector<BlockError> block_errors(num_blocks);

  std::vector<std::future<void>> futs;
  futs.reserve(num_blocks);
  for (size_t b = 0; b < num_blocks; ++b) {
    const size_t begin = b * block_size;
    const size_t end = std::min(n, begin + block_size);
    futs.push_back(Submit([&fn, &block_errors, b, begin, end] {
      for (size_t i = begin; i < end; ++i) {
        try {
          fn(i);
        } catch (...) {
          // Record only the block's first failure; later indices in the
          // block still run — the contract is that every invocation
          // completes before ParallelFor returns.
          if (!block_errors[b].error) {
            block_errors[b].error = std::current_exception();
            block_errors[b].index = i;
          }
        }
      }
    }));
  }
  // Wait for ALL tasks before rethrowing: an early rethrow would return
  // while queued tasks still reference `fn` (and the caller's captures)
  // in a destroyed stack frame.
  for (auto& f : futs) f.get();
  // Blocks cover disjoint ascending ranges, so the globally first failing
  // index is the first block that recorded one.
  for (const BlockError& be : block_errors) {
    if (be.error) std::rethrow_exception(be.error);
  }
}

}  // namespace pocs
