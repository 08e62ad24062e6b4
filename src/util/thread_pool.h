#ifndef KGEVAL_UTIL_THREAD_POOL_H_
#define KGEVAL_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace kgeval {

/// Fixed-size worker substrate: a FIFO of void() closures drained by
/// `num_threads` workers. This is deliberately *all* it is — joining,
/// grouping, and chunking live in sched/task_group.h, whose per-group waits
/// replace the process-wide barrier the pool used to expose; callers that
/// need completion tracking submit through a TaskGroup.
class ThreadPool {
 public:
  /// `num_threads == 0` means hardware_concurrency().
  explicit ThreadPool(size_t num_threads = 0);
  /// Drains the remaining queue, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution.
  void Submit(std::function<void()> task) KGEVAL_EXCLUDES(mutex_);

  size_t num_threads() const { return workers_.size(); }
  /// Tasks waiting for a worker (not the ones running).
  size_t queued() const KGEVAL_EXCLUDES(mutex_);

 private:
  void WorkerLoop() KGEVAL_EXCLUDES(mutex_);

  /// Immutable after the constructor returns (workers join in ~ThreadPool,
  /// after every queue access has ceased), so reads need no lock.
  std::vector<std::thread> workers_;
  mutable Mutex mutex_;
  std::queue<std::function<void()>> queue_ KGEVAL_GUARDED_BY(mutex_);
  CondVar work_available_;
  bool shutting_down_ KGEVAL_GUARDED_BY(mutex_) = false;
};

/// Process-wide pool, lazily created, never destroyed (leaked on purpose so
/// static-destruction order is a non-issue). Sized by the first of:
/// SetGlobalThreadPoolThreads(), the KGEVAL_THREADS environment variable,
/// hardware_concurrency().
ThreadPool* GlobalThreadPool();

/// Overrides the global pool's worker count (0 restores the
/// KGEVAL_THREADS / hardware_concurrency default). Must be called before
/// the pool's lazy creation — dies if GlobalThreadPool() already ran,
/// because live workers (and work queued to them) cannot be resized.
void SetGlobalThreadPoolThreads(size_t num_threads);

/// True iff the calling thread is a worker of `pool`. Used by the scheduler
/// to run nested submissions into a worker's *own* pool inline instead of
/// deadlocking; a worker of another pool submits normally, so a job thread
/// that is itself pooled (a server executor) still fans its work out.
bool InThreadPoolWorker(const ThreadPool* pool);

}  // namespace kgeval

#endif  // KGEVAL_UTIL_THREAD_POOL_H_
