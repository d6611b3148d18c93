#pragma once
// Annotated synchronization primitives. libstdc++'s <mutex> carries no
// capability attributes, so clang's -Wthread-safety analysis cannot see
// std::mutex acquisitions; these thin wrappers re-export std::mutex /
// std::condition_variable with the annotations attached (the pattern from
// clang's thread-safety documentation). All annotated concurrent code in
// the repo locks through Mutex/MutexLock so the analysis has full
// visibility; std::mutex stays fine in code that is not annotated.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "util/annotations.hpp"

namespace ringnet::util {

/// std::mutex with the `capability` attribute, so members can be declared
/// RN_GUARDED_BY(mu_) and functions RN_REQUIRES(mu_).
class RN_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() RN_ACQUIRE() { mu_.lock(); }
  void unlock() RN_RELEASE() { mu_.unlock(); }

  /// The wrapped std::mutex, for interop (CondVar waits on it).
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

/// Scoped lock over Mutex (std::lock_guard shape). The body locks through
/// native() — invisible to the analysis — because the scoped-capability
/// attributes on the constructor/destructor already declare the effect;
/// routing through the annotated lock()/unlock() would double-count.
class RN_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) RN_ACQUIRE(mu) : mu_(&mu) {
    mu_->native().lock();
  }
  ~MutexLock() RN_RELEASE() { mu_->native().unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

/// Condition variable usable under MutexLock. wait() must be called with
/// `mu` held (enforced by RN_REQUIRES); it atomically releases the native
/// mutex while blocked and re-acquires before returning, so the capability
/// is held again on return — exactly the invariant the analysis assumes.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(Mutex& mu) RN_REQUIRES(mu) {
    // Adopt the already-held native mutex for the duration of the wait,
    // then release ownership back to the caller's MutexLock un-unlocked.
    std::unique_lock<std::mutex> lk(mu.native(), std::adopt_lock);
    cv_.wait(lk);
    lk.release();
  }

  /// wait() with a relative deadline: returns true when notified, false on
  /// timeout. Same capability contract as wait(). Used by the in-process
  /// transport's receive, which a NodeLoop calls with the time left to its
  /// next tick (a duration-bounded block is not a wall-clock *read*, so
  /// this stays outside the RN006 boundary).
  bool wait_for_us(Mutex& mu, std::int64_t timeout_us) RN_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.native(), std::adopt_lock);
    const auto status =
        cv_.wait_for(lk, std::chrono::microseconds(timeout_us));
    lk.release();
    return status == std::cv_status::no_timeout;
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace ringnet::util
