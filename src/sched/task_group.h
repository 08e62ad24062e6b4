#ifndef KGEVAL_SCHED_TASK_GROUP_H_
#define KGEVAL_SCHED_TASK_GROUP_H_

#include <cstddef>
#include <functional>
#include <memory>

#include "util/thread_pool.h"

namespace kgeval {

/// A group of tasks scheduled onto a shared worker pool, with a *per-group*
/// wait: Wait() blocks only until this group's tasks finish, so any number
/// of concurrent jobs (evaluations, sessions) interleave their work on the
/// same workers without ever waiting on each other — there is no
/// process-wide barrier anywhere in the scheduler.
///
/// Scheduling model:
///  - Submitted tasks land in the group's own queue; each submission posts
///    one drain ticket to the worker pool, so workers pull group tasks in
///    submission order while the pool stays a plain FIFO of tickets.
///  - Wait() is help-first: the waiting thread drains its own group's
///    remaining queue before blocking on in-flight tasks, so a blocked
///    producer is never idle while its work sits queued (and a 1-worker
///    pool still gets two threads of progress).
///  - A task submitted *from a worker of the group's pool* runs inline on
///    that worker (the nested-submit rule): a worker that queued sub-tasks
///    and waited on them would occupy one of the only threads able to
///    drain them, so nesting would deadlock once every worker is inside
///    such a wait. The rule is per pool: a worker of another pool is an
///    ordinary producer and queues its tasks.
///
/// The group's shared state outlives the object via shared_ptr: drain
/// tickets still queued in the pool after Wait() returns find an empty
/// queue and no-op instead of touching a destroyed group.
class TaskGroup {
 public:
  /// `pool == nullptr` targets GlobalThreadPool().
  explicit TaskGroup(ThreadPool* pool = nullptr);
  /// Waits for any unfinished tasks (a group never abandons work).
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueues a task; runs it inline when called from a worker of pool().
  void Submit(std::function<void()> task);

  /// Blocks until every task submitted to *this group* has completed.
  /// Tasks from other groups sharing the pool are not waited on. Safe to
  /// call repeatedly; Submit()/Wait() cycles may be interleaved.
  void Wait();

  ThreadPool* pool() const { return pool_; }

 private:
  struct State;
  /// Pops and runs one task of the group, completing it (decrement +
  /// notify); false if the queue was already empty. The single drain
  /// protocol behind both worker tickets and Wait()'s help loop.
  static bool RunOne(const std::shared_ptr<State>& state);

  ThreadPool* pool_;
  std::shared_ptr<State> state_;
};

/// Splits [begin, end) into contiguous chunks and runs
/// `fn(chunk_begin, chunk_end)` as one TaskGroup on the global pool,
/// blocking until the group drains. Concurrent calls interleave on the
/// shared workers and wait only on their own chunks. Runs inline when the
/// range is small, the pool has one thread, or the caller is itself a
/// global-pool worker (the nested rule above).
void ParallelFor(size_t begin, size_t end,
                 const std::function<void(size_t, size_t)>& fn,
                 size_t min_chunk = 256);

/// Runs job(i) for every i in [0, n) concurrently on caller-side *job*
/// threads (one per in-flight request), not pool workers — each job fans
/// its chunks out to the shared worker pool through its own TaskGroups and
/// helps drain them while it waits, so in-flight jobs interleave on the
/// workers instead of serializing behind each other. In-flight jobs are
/// capped at the worker count: job threads compute (help-first waits), so a
/// 100-checkpoint sweep on 8 workers runs 8 jobs at a time instead of
/// oversubscribing the machine with 100 compute threads (and 100 jobs'
/// working state alive at once — the resident-model bound the checkpoint
/// sweep relies on). Jobs are claimed from a shared counter, so the cap
/// changes scheduling only — never results. Blocks until every job ran.
void RunJobsConcurrently(size_t n, const std::function<void(size_t)>& job);

}  // namespace kgeval

#endif  // KGEVAL_SCHED_TASK_GROUP_H_
