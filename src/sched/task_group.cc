#include "sched/task_group.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <thread>
#include <vector>

#include "util/fault.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace kgeval {

struct TaskGroup::State {
  Mutex mutex;
  CondVar done;
  std::deque<std::function<void()>> queue KGEVAL_GUARDED_BY(mutex);
  /// Queued + currently running tasks of this group.
  size_t pending KGEVAL_GUARDED_BY(mutex) = 0;
};

TaskGroup::TaskGroup(ThreadPool* pool)
    : pool_(pool != nullptr ? pool : GlobalThreadPool()),
      state_(std::make_shared<State>()) {}

TaskGroup::~TaskGroup() { Wait(); }

void TaskGroup::Submit(std::function<void()> task) {
  if (InThreadPoolWorker(pool_)) {
    // Nested submission from a worker of this pool: run inline (see
    // header).
    // Fault point "sched.task.delay": armed as a kDelay fault it naps
    // before the task starts, simulating a loaded or descheduled worker.
    FaultPoint("sched.task.delay");
    task();
    return;
  }
  // Copy the members BEFORE the task becomes visible: the moment it is
  // queued, another thread's help-first Wait() may drain it, see the group
  // complete, and destroy it — after which `this` is gone. The ticket
  // likewise captures the state, not the group: tickets left in the pool
  // queue after the group dies drain against an empty queue harmlessly.
  std::shared_ptr<State> state = state_;
  ThreadPool* pool = pool_;
  {
    MutexLock lock(&state->mutex);
    state->queue.push_back(std::move(task));
    ++state->pending;
  }
  pool->Submit([state] { RunOne(state); });
}

bool TaskGroup::RunOne(const std::shared_ptr<State>& state) {
  std::function<void()> task;
  {
    MutexLock lock(&state->mutex);
    if (state->queue.empty()) return false;  // Already drained elsewhere.
    task = std::move(state->queue.front());
    state->queue.pop_front();
  }
  // Same "sched.task.delay" probe as the inline path in Submit().
  FaultPoint("sched.task.delay");
  task();
  MutexLock lock(&state->mutex);
  if (--state->pending == 0) state->done.NotifyAll();
  return true;
}

void TaskGroup::Wait() {
  // Help-first: drain our own queue before blocking, so the waiting thread
  // contributes a worker's worth of progress to its own job.
  while (RunOne(state_)) {
  }
  MutexLock lock(&state_->mutex);
  while (state_->pending != 0) state_->done.Wait(lock);
}

void ParallelFor(size_t begin, size_t end,
                 const std::function<void(size_t, size_t)>& fn,
                 size_t min_chunk) {
  if (begin >= end) return;
  ThreadPool* pool = GlobalThreadPool();
  const size_t n = end - begin;
  // A re-entrant call from a worker of the pool runs inline too:
  // TaskGroup::Submit would inline each chunk anyway, so skip the chunking.
  if (InThreadPoolWorker(pool) || pool->num_threads() <= 1 || n <= min_chunk) {
    fn(begin, end);
    return;
  }
  const size_t max_chunks = pool->num_threads() * 4;
  const size_t chunk = std::max(min_chunk, (n + max_chunks - 1) / max_chunks);
  TaskGroup group(pool);
  for (size_t lo = begin; lo < end; lo += chunk) {
    const size_t hi = std::min(end, lo + chunk);
    // `fn` outlives the group (Wait() below returns only after every chunk
    // ran), so chunks capture it by reference.
    group.Submit([&fn, lo, hi] { fn(lo, hi); });
  }
  group.Wait();
}

void RunJobsConcurrently(size_t n, const std::function<void(size_t)>& job) {
  if (n == 0) return;
  const size_t width = std::min(
      n, std::max<size_t>(1, GlobalThreadPool()->num_threads()));
  std::atomic<size_t> next{0};
  const auto run_jobs = [&next, n, &job] {
    for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      job(i);
    }
  };
  if (width == 1) {
    run_jobs();
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(width - 1);
  for (size_t t = 1; t < width; ++t) {
    threads.emplace_back(run_jobs);
  }
  run_jobs();
  for (std::thread& thread : threads) thread.join();
}

}  // namespace kgeval
