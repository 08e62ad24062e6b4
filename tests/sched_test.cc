#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "sched/task_group.h"

namespace kgeval {
namespace {

// --- TaskGroup ----------------------------------------------------------------

TEST(TaskGroupTest, RunsAllTasksAndWaits) {
  ThreadPool pool(4);
  TaskGroup group(&pool);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    group.Submit([&counter] { counter.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(counter.load(), 100);
  // A second Wait on a drained group returns immediately.
  group.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(TaskGroupTest, NullPoolTargetsGlobalPool) {
  TaskGroup group;
  EXPECT_EQ(group.pool(), GlobalThreadPool());
  std::atomic<int> counter{0};
  group.Submit([&counter] { counter.fetch_add(1); });
  group.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(TaskGroupTest, WaitOnlyWaitsForOwnGroup) {
  // The no-global-barrier property the scheduler exists for: group A's
  // Wait() must return while group B's task is still parked on a shared
  // worker. (The old pool-wide Wait() would hang here.)
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  std::atomic<bool> parked{false};
  TaskGroup blocked(&pool);
  blocked.Submit([&] {
    parked.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!parked.load()) std::this_thread::yield();

  TaskGroup quick(&pool);
  std::atomic<int> done{0};
  for (int i = 0; i < 16; ++i) {
    quick.Submit([&done] { done.fetch_add(1); });
  }
  quick.Wait();
  EXPECT_EQ(done.load(), 16);
  EXPECT_FALSE(release.load());  // B never ran to completion while A waited.
  release.store(true);
  blocked.Wait();
}

TEST(TaskGroupTest, WaitHelpsDrainWhenWorkersAreBusy) {
  // A 1-worker pool whose worker is parked: the waiting thread itself must
  // drain its group's queue (help-first), not starve behind the worker.
  ThreadPool pool(1);
  std::atomic<bool> release{false};
  std::atomic<bool> parked{false};
  TaskGroup blocker(&pool);
  blocker.Submit([&] {
    parked.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!parked.load()) std::this_thread::yield();

  TaskGroup mine(&pool);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    mine.Submit([&done] { done.fetch_add(1); });
  }
  mine.Wait();  // The only available thread is this one.
  EXPECT_EQ(done.load(), 8);
  release.store(true);
  blocker.Wait();
}

TEST(TaskGroupTest, NestedSubmitRunsInlineOnWorker) {
  // The nested-submit rule on the group API: a submission from a pool
  // worker into its own pool runs inline instead of deadlocking the pool.
  ThreadPool pool(2);
  TaskGroup group(&pool);
  std::atomic<bool> started{false};
  std::atomic<int> nested_inline{0};
  group.Submit([&] {
    started.store(true);
    const std::thread::id worker = std::this_thread::get_id();
    TaskGroup nested(&pool);
    nested.Submit([&nested_inline, worker] {
      if (std::this_thread::get_id() == worker) nested_inline.fetch_add(1);
    });
    nested.Wait();
  });
  // Spin until the task is running on the worker so Wait()'s help-first
  // drain cannot steal it onto this (non-worker) thread.
  while (!started.load()) std::this_thread::yield();
  group.Wait();
  EXPECT_EQ(nested_inline.load(), 1);
}

TEST(TaskGroupTest, NestedSubmitIntoAnotherPoolRunsOnThatPool) {
  // The rule is per pool: a worker of pool A submitting into a group on
  // pool B is an ordinary producer, so the task runs on B's worker. (A
  // server executor is such a worker; were it inlined, every command would
  // score on its one executor thread.)
  ThreadPool a(1);
  ThreadPool b(1);
  std::promise<std::thread::id> b_worker;
  b.Submit([&b_worker] { b_worker.set_value(std::this_thread::get_id()); });
  const std::thread::id b_id = b_worker.get_future().get();

  std::thread::id a_id;
  std::thread::id ran_on;
  std::atomic<bool> ran{false};
  TaskGroup outer(&a);
  std::atomic<bool> started{false};
  outer.Submit([&] {
    started.store(true);
    a_id = std::this_thread::get_id();
    TaskGroup nested(&b);
    nested.Submit([&] {
      ran_on = std::this_thread::get_id();
      ran.store(true);
    });
    // Let B's worker claim the task before Wait()'s help-first drain could
    // run it here (an inlined task has already run by now).
    while (!ran.load()) std::this_thread::yield();
    nested.Wait();
  });
  while (!started.load()) std::this_thread::yield();
  outer.Wait();
  EXPECT_NE(ran_on, a_id);
  EXPECT_EQ(ran_on, b_id);
}

TEST(TaskGroupTest, NestedSubmitIntoGlobalPoolRunsInlineOnGlobalWorker) {
  std::thread::id worker;
  std::thread::id ran_on;
  std::atomic<bool> started{false};
  TaskGroup outer;
  outer.Submit([&] {
    started.store(true);
    worker = std::this_thread::get_id();
    TaskGroup nested;
    nested.Submit([&ran_on] { ran_on = std::this_thread::get_id(); });
    nested.Wait();
  });
  while (!started.load()) std::this_thread::yield();
  outer.Wait();
  EXPECT_EQ(ran_on, worker);
}

TEST(TaskGroupTest, SubmitWaitCyclesAreReusable) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  std::atomic<int> counter{0};
  for (int cycle = 0; cycle < 5; ++cycle) {
    for (int i = 0; i < 20; ++i) {
      group.Submit([&counter] { counter.fetch_add(1); });
    }
    group.Wait();
    EXPECT_EQ(counter.load(), (cycle + 1) * 20);
  }
}

TEST(TaskGroupTest, DestructorWaitsForUnfinishedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  {
    TaskGroup group(&pool);
    for (int i = 0; i < 64; ++i) {
      group.Submit([&counter] { counter.fetch_add(1); });
    }
    // No Wait(): destruction must not abandon queued work (the counter and
    // this stack frame die right after the brace).
  }
  EXPECT_EQ(counter.load(), 64);
}

TEST(TaskGroupTest, ManyConcurrentGroupsStress) {
  // Many producer threads, each cycling through its own groups on one
  // shared pool, with re-submissions into the running group: every group
  // must see exactly its own tasks drained, exception-free, however the
  // chunks interleave on the workers. (This is the multi-tenant EvalSession
  // schedule in miniature; run under TSan in CI.)
  ThreadPool pool(3);
  std::atomic<int> grand_total{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 6; ++p) {
    producers.emplace_back([&pool, &grand_total] {
      for (int round = 0; round < 25; ++round) {
        TaskGroup group(&pool);
        std::atomic<int> local{0};
        for (int t = 0; t < 40; ++t) {
          group.Submit([&local, &group, t] {
            local.fetch_add(1);
            if (t % 8 == 0) {
              // Re-submission into the live group: inline when this task
              // runs on a worker, queued when the producer's help-first
              // Wait() ran it — both must land before Wait() returns.
              group.Submit([&local] { local.fetch_add(1); });
            }
          });
        }
        group.Wait();
        EXPECT_EQ(local.load(), 45);  // 40 tasks + 5 re-submissions.
        grand_total.fetch_add(local.load());
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  EXPECT_EQ(grand_total.load(), 6 * 25 * 45);
}

// --- ParallelFor (ported onto TaskGroup) --------------------------------------

TEST(ParallelForTest, CoversWholeRange) {
  std::vector<std::atomic<int>> hits(10000);
  ParallelFor(0, hits.size(), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  bool called = false;
  ParallelFor(5, 5, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, ReversedRangeIsNoop) {
  bool called = false;
  ParallelFor(7, 3, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, SmallRangeRunsInlineAsOneChunk) {
  // A range no larger than min_chunk must run as a single inline call on
  // the submitting thread (no pool round-trip).
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  size_t seen_lo = 99, seen_hi = 0;
  ParallelFor(
      2, 10,
      [&](size_t lo, size_t hi) {
        ++calls;
        seen_lo = lo;
        seen_hi = hi;
        EXPECT_EQ(std::this_thread::get_id(), caller);
      },
      /*min_chunk=*/8);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen_lo, 2u);
  EXPECT_EQ(seen_hi, 10u);
}

TEST(ParallelForTest, ChunksRespectMinChunkAndPartitionRange) {
  std::mutex mutex;
  std::vector<std::pair<size_t, size_t>> chunks;
  ParallelFor(
      0, 10000,
      [&](size_t lo, size_t hi) {
        std::lock_guard<std::mutex> lock(mutex);
        chunks.push_back({lo, hi});
      },
      /*min_chunk=*/64);
  std::sort(chunks.begin(), chunks.end());
  size_t expected_lo = 0;
  for (const auto& [lo, hi] : chunks) {
    EXPECT_EQ(lo, expected_lo);
    EXPECT_GT(hi, lo);
    expected_lo = hi;
  }
  EXPECT_EQ(expected_lo, 10000u);
  // Every chunk except possibly the last must carry at least min_chunk.
  for (size_t i = 0; i + 1 < chunks.size(); ++i) {
    EXPECT_GE(chunks[i].second - chunks[i].first, 64u);
  }
}

TEST(ParallelForTest, NestedCallsRunInlineInsteadOfDeadlocking) {
  // Regression (PR 3): a ParallelFor issued from inside a pool worker used
  // to submit chunks to the pool and block on them — with every worker
  // occupied by outer chunks, nobody could drain the inner tasks and the
  // call deadlocked. Nested calls on a worker run inline; outer chunks the
  // caller's help-first Wait() ran spawn sub-groups the caller drains
  // itself. Either way this completes — a deadlock hangs the test.
  std::atomic<int> inner_total{0};
  ParallelFor(
      0, 64,
      [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          ParallelFor(
              0, 100,
              [&](size_t inner_lo, size_t inner_hi) {
                inner_total.fetch_add(static_cast<int>(inner_hi - inner_lo));
              },
              /*min_chunk=*/1);
        }
      },
      /*min_chunk=*/1);
  EXPECT_EQ(inner_total.load(), 64 * 100);
}

TEST(ParallelForTest, CallFromWorkerTaskRunsInline) {
  // The inline rule observed directly: once a task is running on a worker
  // of the global pool, a ParallelFor (which targets that pool) inside it
  // must stay on that worker.
  TaskGroup group;
  std::atomic<bool> started{false};
  std::atomic<int> total{0};
  std::atomic<int> off_worker{0};
  group.Submit([&] {
    started.store(true);
    const std::thread::id worker = std::this_thread::get_id();
    ParallelFor(
        0, 50,
        [&](size_t lo, size_t hi) {
          total.fetch_add(static_cast<int>(hi - lo));
          if (std::this_thread::get_id() != worker) off_worker.fetch_add(1);
        },
        /*min_chunk=*/1);
  });
  // Pin the task to the worker before Wait() can help-run it here.
  while (!started.load()) std::this_thread::yield();
  group.Wait();
  EXPECT_EQ(total.load(), 50);
  EXPECT_EQ(off_worker.load(), 0);
}

TEST(ParallelForTest, ConcurrentCallsDoNotInterfere) {
  // Several threads issue independent ParallelFor calls against the shared
  // global pool; each must wait only for its own chunks.
  std::atomic<int> total{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&total] {
      for (int round = 0; round < 20; ++round) {
        std::atomic<int> local{0};
        ParallelFor(
            0, 2000,
            [&](size_t lo, size_t hi) {
              local.fetch_add(static_cast<int>(hi - lo));
            },
            /*min_chunk=*/16);
        // The call returned, so exactly its own range must be done.
        EXPECT_EQ(local.load(), 2000);
        total.fetch_add(local.load());
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(total.load(), 4 * 20 * 2000);
}

}  // namespace
}  // namespace kgeval
