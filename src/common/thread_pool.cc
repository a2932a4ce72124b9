#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/check.h"

namespace udao {

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(1, num_threads);
  workers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  work_available_.NotifyAll();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  UDAO_CHECK(task != nullptr);
  {
    MutexLock lock(mu_);
    // Accepted even when shutdown has begun: the submitter is then a task
    // already running on a worker (the destructor joins before external
    // callers could legally touch the pool), and that worker drains the
    // queue — including this submission — before it exits.
    queue_.push(std::move(task));
  }
  work_available_.NotifyOne();
}

void ThreadPool::ParallelFor(int n, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  // Shared by the caller and its helpers. Helpers own a reference because a
  // late one may only start after the call has returned; by then every index
  // is taken, so it never dereferences `fn`.
  struct Loop {
    const std::function<void(int)>* fn = nullptr;
    int n = 0;
    std::atomic<int> next{0};
    Mutex mu;
    CondVar finished_cv;
    int finished UDAO_GUARDED_BY(mu) = 0;
  };
  auto shared = std::make_shared<Loop>();
  shared->fn = &fn;
  shared->n = n;
  auto claim = [shared] {
    Loop& loop = *shared;
    int ran = 0;
    for (int i = loop.next.fetch_add(1); i < loop.n;
         i = loop.next.fetch_add(1)) {
      (*loop.fn)(i);
      ++ran;
    }
    if (ran == 0) return;
    MutexLock lock(loop.mu);
    loop.finished += ran;
    if (loop.finished == loop.n) loop.finished_cv.NotifyAll();
  };
  const int helpers = std::min(n - 1, num_threads());
  for (int h = 0; h < helpers; ++h) Submit(claim);
  claim();
  Loop& loop = *shared;
  MutexLock lock(loop.mu);
  while (loop.finished < n) loop.finished_cv.Wait(loop.mu);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && queue_.empty()) work_available_.Wait(mu_);
      if (shutdown_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

}  // namespace udao
