#ifndef UDAO_COMMON_THREAD_POOL_H_
#define UDAO_COMMON_THREAD_POOL_H_

#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/sync.h"

namespace udao {

/// Fixed-size worker pool used by the PF-AP algorithm and the MOGD solver's
/// multi-threaded batch mode. Tasks are plain std::function<void()>; callers
/// coordinate results themselves (typically by writing to pre-sized slots and
/// running them through ParallelFor).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution on some worker. Safe to call from inside
  /// a running task, including while the destructor is draining: workers
  /// finish everything in the queue before exiting, so follow-up work
  /// submitted by an in-flight task still runs before destruction completes.
  void Submit(std::function<void()> task);

  /// Blocks until the queue is empty and all workers are idle. Safe to call
  /// concurrently from several threads; each returns once the pool is idle.
  void WaitIdle();

  /// Runs fn(i) for every i in [0, n) and returns once all n calls have
  /// finished. The calling thread and up to min(n - 1, num_threads()) pool
  /// helpers claim indices from one shared counter, so the call completes
  /// even when no worker is free -- including when it is issued from inside
  /// a task of this pool -- and never waits on unrelated tasks (no WaitIdle).
  /// A helper that starts after every index is taken returns without
  /// touching `fn`, so `fn` need only outlive the call. n <= 0 is a no-op.
  void ParallelFor(int n, const std::function<void(int)>& fn);

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop();

  /// Immutable after the constructor returns (workers join only in the
  /// destructor, after every worker has exited its loop), so reads like
  /// num_threads() need no lock.
  std::vector<std::thread> workers_;

  Mutex mu_;
  std::queue<std::function<void()>> queue_ UDAO_GUARDED_BY(mu_);
  int active_ UDAO_GUARDED_BY(mu_) = 0;
  bool shutdown_ UDAO_GUARDED_BY(mu_) = false;
  CondVar work_available_;
  CondVar idle_;
};

}  // namespace udao

#endif  // UDAO_COMMON_THREAD_POOL_H_
