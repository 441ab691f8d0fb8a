/// \file thread_pool.hpp
/// \brief A fixed-size worker pool with a parallel_for helper.
///
/// This is the shared-memory execution substrate for block-parallel codec
/// kernels and for the PAT workflow executor (which stands in for the
/// paper's SLURM cluster). Parallelism is explicit, per the MPI/OpenMP
/// guidance in the HPC guides: callers decide the grain, the pool only
/// schedules.
///
/// Nesting rule: parallel_for() *helps* — while waiting for its chunks the
/// calling thread drains other queued tasks — so a pool worker may itself
/// call parallel_for on the same pool without deadlocking (the sweep
/// scheduler's workers run codec kernels that fan out again).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace cosmo {

/// Fixed-size thread pool. Tasks are std::function<void()>; submit() returns
/// a future for completion/exception propagation.
class ThreadPool {
 public:
  /// Creates \p n workers; n == 0 selects std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t n = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueues a task; the returned future rethrows any exception the task
  /// threw.
  std::future<void> submit(std::function<void()> task);

  /// Pops one queued task (if any) and runs it on the calling thread.
  /// Returns false when the queue was empty. This is how blocked waiters
  /// help drain the queue instead of deadlocking on nested parallelism.
  bool try_run_one();

  /// Blocks until \p done is ready, running queued tasks on the calling
  /// thread meanwhile: a waiter that is itself one of this pool's workers
  /// keeps the pool draining instead of deadlocking on nested parallelism.
  void wait_helping(const std::future<void>& done);

  /// Blocks until every task submitted so far has finished.
  void wait_idle();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::size_t active_ = 0;
  bool stop_ = false;
};

/// Splits [0, n) into contiguous chunks and runs \p body(begin, end) on the
/// pool, blocking until all chunks complete. Exceptions from any chunk are
/// rethrown in the caller. With a null pool or n small, runs inline. The
/// caller participates: it runs chunks (and unrelated queued tasks) while
/// waiting, so nested parallel_for on the same pool cannot deadlock.
///
/// Chunk boundaries depend on the pool size, so bodies whose *result*
/// depends on chunk geometry (e.g. floating-point reductions) must not rely
/// on this partition — give them a fixed geometry and reduce in fixed order
/// (see docs/architecture.md, "Intra-field parallelism").
void parallel_for(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& body,
                  std::size_t min_grain = 1024);

/// Process-wide default pool (lazily constructed, hardware concurrency).
ThreadPool& global_pool();

/// Maps the CLI-facing `threads` knob onto a pool:
///   1 => null (serial, the timing-faithful default),
///   0 => the process-wide global pool,
///   N>1 => a dedicated ThreadPool(N) owned by this handle.
/// Copies of the knob convention live in CBench::Options and the pipeline
/// JSON schema; keep them in sync.
class PoolHandle {
 public:
  explicit PoolHandle(std::size_t threads);

  [[nodiscard]] ThreadPool* get() const { return pool_; }

 private:
  std::unique_ptr<ThreadPool> owned_;
  ThreadPool* pool_ = nullptr;
};

}  // namespace cosmo
