#include "common/thread_pool.hpp"

#include <algorithm>
#include <chrono>

namespace cosmo {

ThreadPool::ThreadPool(std::size_t n) {
  if (n == 0) n = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  auto fut = packaged.get_future();
  {
    std::lock_guard lock(mu_);
    queue_.push(std::move(packaged));
  }
  cv_.notify_one();
  return fut;
}

bool ThreadPool::try_run_one() {
  std::packaged_task<void()> task;
  {
    std::lock_guard lock(mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop();
    ++active_;  // counted like a worker so wait_idle stays sound
  }
  task();
  {
    std::lock_guard lock(mu_);
    --active_;
    if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
  }
  return true;
}

void ThreadPool::wait_helping(const std::future<void>& done) {
  while (done.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
    if (!try_run_one()) done.wait_for(std::chrono::microseconds(50));
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
      ++active_;
    }
    task();
    {
      std::lock_guard lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

void parallel_for(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& body,
                  std::size_t min_grain) {
  if (n == 0) return;
  const std::size_t workers = pool ? pool->size() : 1;
  if (workers <= 1 || n <= min_grain) {
    body(0, n);
    return;
  }
  const std::size_t chunks = std::min(workers * 4, (n + min_grain - 1) / min_grain);
  const std::size_t step = (n + chunks - 1) / chunks;
  std::vector<std::future<void>> futs;
  futs.reserve(chunks);
  // Submit all but the first chunk, run the first inline, then help drain
  // the queue while waiting: a blocked caller that is itself a pool worker
  // keeps the pool making progress (no nested-parallelism deadlock).
  for (std::size_t begin = step; begin < n; begin += step) {
    const std::size_t end = std::min(begin + step, n);
    futs.push_back(pool->submit([&body, begin, end] { body(begin, end); }));
  }
  std::exception_ptr first_error;
  try {
    body(0, std::min(step, n));
  } catch (...) {
    first_error = std::current_exception();
  }
  for (auto& f : futs) {
    pool->wait_helping(f);
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

PoolHandle::PoolHandle(std::size_t threads) {
  if (threads == 0) {
    pool_ = &global_pool();
  } else if (threads > 1) {
    owned_ = std::make_unique<ThreadPool>(threads);
    pool_ = owned_.get();
  }
}

}  // namespace cosmo
