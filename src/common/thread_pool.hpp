// Fixed-size thread pool for embarrassingly-parallel experiment evaluation.
//
// The Active Harmony simplex initialisation evaluates n+1 independent
// configurations, and the parameter-partitioning strategy runs independent
// work-line simulations; both map onto `parallel_for`.  The pool is
// deliberately simple (single mutex-protected deque): tasks here are whole
// simulations lasting milliseconds to seconds, so queue contention is
// irrelevant and simplicity wins.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace ah::common {

class ThreadPool {
 public:
  /// `threads == 0` selects hardware_concurrency (minimum 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueues a task and returns a future for its completion.
  template <typename F>
  auto submit(F&& task) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    std::packaged_task<R()> packaged(std::forward<F>(task));
    std::future<R> result = packaged.get_future();
    {
      const std::scoped_lock lock(mutex_);
      // The queue holds void tasks; the inner task keeps the result.
      queue_.emplace_back([inner = std::move(packaged)]() mutable { inner(); });
    }
    cv_.notify_one();
    return result;
  }

  /// Runs `fn(i)` for i in [0, n) across the pool and blocks until ALL
  /// tasks finished, even when some throw (so `fn` and its captures never
  /// outlive running tasks).  The first exception in index order is
  /// rethrown; any others are discarded.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  using Task = std::packaged_task<void()>;

  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<Task> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace ah::common
