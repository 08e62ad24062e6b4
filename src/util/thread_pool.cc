#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "util/logging.h"

namespace kgeval {
namespace {

/// The pool a worker thread belongs to, set for the thread's lifetime
/// (nullptr on every other thread); lets the scheduler detect re-entrant
/// submissions (a worker waiting on tasks it submitted to its own pool
/// would deadlock once all workers are inside such a wait).
thread_local const ThreadPool* tls_worker_pool = nullptr;

std::atomic<size_t> g_global_pool_threads{0};
std::atomic<bool> g_global_pool_created{false};

/// Resolved size of the global pool at creation: the explicit override,
/// else KGEVAL_THREADS, else 0 (the constructor's hardware_concurrency
/// default).
size_t GlobalPoolSize() {
  const size_t overridden = g_global_pool_threads.load();
  if (overridden > 0) return overridden;
  if (const char* env = std::getenv("KGEVAL_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<size_t>(parsed);
  }
  return 0;
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mutex_);
    shutting_down_ = true;
  }
  work_available_.NotifyAll();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(&mutex_);
    queue_.push(std::move(task));
  }
  work_available_.NotifyOne();
}

size_t ThreadPool::queued() const {
  MutexLock lock(&mutex_);
  return queue_.size();
}

void ThreadPool::WorkerLoop() {
  tls_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mutex_);
      while (!shutting_down_ && queue_.empty()) work_available_.Wait(lock);
      // Shutdown still drains queued work: only an *empty* queue lets a
      // worker exit, so the destructor's contract ("drains the remaining
      // queue, then joins") holds.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

ThreadPool* GlobalThreadPool() {
  static ThreadPool* pool = [] {
    g_global_pool_created.store(true);
    return new ThreadPool(GlobalPoolSize());
  }();
  return pool;
}

void SetGlobalThreadPoolThreads(size_t num_threads) {
  KGEVAL_CHECK(!g_global_pool_created.load())
      << "SetGlobalThreadPoolThreads must run before the first "
      << "GlobalThreadPool() use: the pool's workers are already live";
  g_global_pool_threads.store(num_threads);
}

bool InThreadPoolWorker(const ThreadPool* pool) {
  return tls_worker_pool == pool;
}

}  // namespace kgeval
