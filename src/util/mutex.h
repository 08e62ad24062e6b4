#ifndef KGEVAL_UTIL_MUTEX_H_
#define KGEVAL_UTIL_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace kgeval {

/// std::mutex with the capability attribute Clang Thread Safety Analysis
/// needs: libstdc++'s std::mutex is unannotated, so GUARDED_BY(a raw
/// std::mutex) is invisible to the analysis — every locked structure in the
/// repo holds one of these instead. Zero overhead: the wrapper is exactly a
/// std::mutex plus compile-time attributes.
///
/// Lock with MutexLock (scoped, analysis-visible); wait on a CondVar with
/// the lock held. Manual Lock()/Unlock() exist for the rare split-scope
/// case but MutexLock is the default.
class KGEVAL_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() KGEVAL_ACQUIRE() { mu_.lock(); }
  void Unlock() KGEVAL_RELEASE() { mu_.unlock(); }

 private:
  friend class MutexLock;
  std::mutex mu_;
};

/// Scoped lock over a Mutex, visible to the analysis (SCOPED_CAPABILITY).
/// Holds a std::unique_lock underneath so CondVar::Wait can release and
/// reacquire during the wait; from the analysis's view the capability is
/// held for the whole scope — the standard treatment of condition waits
/// (the guarded invariant is re-established before Wait returns).
class KGEVAL_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) KGEVAL_ACQUIRE(mu) : lock_(mu->mu_) {}
  ~MutexLock() KGEVAL_RELEASE() = default;

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable paired with Mutex/MutexLock. Deliberately without the
/// predicate overload: a predicate lambda is analyzed as a separate
/// function that does not hold the capability, so guarded reads inside it
/// would warn — callers write the classic explicit loop instead, whose
/// guarded reads sit in the scope that holds the lock:
///
///   MutexLock lock(&mutex_);
///   while (!ready_) cond_.Wait(lock);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `lock`, waits, reacquires before returning.
  void Wait(MutexLock& lock) { cv_.wait(lock.lock_); }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace kgeval

#endif  // KGEVAL_UTIL_MUTEX_H_
