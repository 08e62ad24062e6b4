#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>

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
/// default). A set, non-empty KGEVAL_THREADS must be all of a positive
/// decimal that fits in int32, as `--threads` is parsed; anything else
/// dies rather than run with a pool size the caller did not ask for.
size_t GlobalPoolSize() {
  const size_t overridden = g_global_pool_threads.load();
  if (overridden > 0) return overridden;
  const char* env = std::getenv("KGEVAL_THREADS");
  if (env == nullptr || env[0] == '\0') return 0;
  int32_t parsed = 0;
  const char* end = env + std::strlen(env);
  const auto [ptr, ec] = std::from_chars(env, end, parsed);
  KGEVAL_CHECK(ec == std::errc() && ptr == end && parsed > 0)
      << "KGEVAL_THREADS=" << env
      << ": expected a positive decimal worker count below 2^31";
  return static_cast<size_t>(parsed);
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
