// Clang thread-safety annotations + annotated lock wrappers — the repo's ONLY lock primitives.
//
// PBFT's safety argument assumes each replica is a correct *sequential* state machine; a data
// race inside a replica process voids the f-of-n fault model the whole system is built on.
// The real-clock runtime is the multi-threaded part of this repository (one event-loop thread
// per node, transport-internal delivery threads, harness threads), and its lock discipline
// used to live in comments ("All Locked helpers require mu_", "listeners run with mu_
// released"). This header turns those comments into machine-checked contracts:
//
//   - BFT_GUARDED_BY(mu)        field may only be touched with `mu` held
//   - BFT_REQUIRES(mu)          function must be entered with `mu` held exclusively
//   - BFT_REQUIRES_SHARED(mu)   ... held at least shared
//   - BFT_EXCLUDES(mu)          function must be entered with `mu` NOT held (deadlock guard;
//                               e.g. ShardMapRegistry::NotifyAll, whose listeners re-enter)
//
// The macros expand to Clang's capability attributes under Clang and to nothing elsewhere, so
// GCC builds are unaffected; the CI lint lane builds with Clang and -Werror=thread-safety, and
// tests/annotation_compile/ pins that the macros are not silently expanding to nothing there.
//
// Raw std::mutex / std::shared_mutex / std::condition_variable are banned outside this header
// (enforced by tools/bft_lint.py rule `raw-mutex`): the analysis only sees locks acquired
// through annotated types, so one un-wrapped mutex is a hole in every contract above.
#ifndef SRC_COMMON_THREAD_ANNOTATIONS_H_
#define SRC_COMMON_THREAD_ANNOTATIONS_H_

#include <chrono>
#include <condition_variable>  // bft-lint: allow(raw-mutex) the one wrapping site
#include <mutex>               // bft-lint: allow(raw-mutex) the one wrapping site
#include <shared_mutex>        // bft-lint: allow(raw-mutex) the one wrapping site

// --- Attribute macros -----------------------------------------------------------------------

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define BFT_THREAD_ANNOTATION__(x) __attribute__((x))
#endif
#endif
#ifndef BFT_THREAD_ANNOTATION__
#define BFT_THREAD_ANNOTATION__(x)  // not Clang (or too old): annotations compile away
#endif

#define BFT_CAPABILITY(x) BFT_THREAD_ANNOTATION__(capability(x))
#define BFT_SCOPED_CAPABILITY BFT_THREAD_ANNOTATION__(scoped_lockable)
#define BFT_GUARDED_BY(x) BFT_THREAD_ANNOTATION__(guarded_by(x))
#define BFT_PT_GUARDED_BY(x) BFT_THREAD_ANNOTATION__(pt_guarded_by(x))
#define BFT_REQUIRES(...) BFT_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#define BFT_REQUIRES_SHARED(...) BFT_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))
#define BFT_ACQUIRE(...) BFT_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define BFT_ACQUIRE_SHARED(...) BFT_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))
#define BFT_RELEASE(...) BFT_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define BFT_RELEASE_SHARED(...) BFT_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))
#define BFT_TRY_ACQUIRE(...) BFT_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))
#define BFT_EXCLUDES(...) BFT_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))
#define BFT_RETURN_CAPABILITY(x) BFT_THREAD_ANNOTATION__(lock_returned(x))
#define BFT_NO_THREAD_SAFETY_ANALYSIS BFT_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace bft {

// --- Annotated lock types -------------------------------------------------------------------
// Zero-overhead forwards around the std primitives; the indirection exists solely so the
// capability attributes have a type to hang off.

class BFT_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() BFT_ACQUIRE() { mu_.lock(); }
  void unlock() BFT_RELEASE() { mu_.unlock(); }
  bool try_lock() BFT_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

class BFT_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() BFT_ACQUIRE() { mu_.lock(); }
  void unlock() BFT_RELEASE() { mu_.unlock(); }
  void lock_shared() BFT_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void unlock_shared() BFT_RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

// RAII exclusive hold of a Mutex. Unlock()/Lock() support the event-loop pattern of dropping
// the lock around a callback; the analysis tracks the toggles, so a blocking call or guarded
// access in the unlocked window is diagnosed.
class BFT_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) BFT_ACQUIRE(mu) : mu_(mu), held_(true) { mu_.lock(); }
  ~MutexLock() BFT_RELEASE() {
    if (held_) {
      mu_.unlock();
    }
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void Unlock() BFT_RELEASE() {
    held_ = false;
    mu_.unlock();
  }
  void Lock() BFT_ACQUIRE() {
    mu_.lock();
    held_ = true;
  }

 private:
  friend class CondVar;
  Mutex& mu_;
  bool held_;
};

// RAII shared (reader) hold of a SharedMutex. Per-node transport operations take this: many
// loop threads share the map lock, only Register/Unregister serialize exclusively.
class BFT_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) BFT_ACQUIRE_SHARED(mu) : mu_(mu), held_(true) {
    mu_.lock_shared();
  }
  ~ReaderMutexLock() BFT_RELEASE() {
    if (held_) {
      mu_.unlock_shared();
    }
  }
  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

  void Unlock() BFT_RELEASE() {
    held_ = false;
    mu_.unlock_shared();
  }
  void Lock() BFT_ACQUIRE_SHARED() {
    mu_.lock_shared();
    held_ = true;
  }

 private:
  SharedMutex& mu_;
  bool held_;
};

// RAII exclusive (writer) hold of a SharedMutex.
class BFT_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) BFT_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~WriterMutexLock() BFT_RELEASE() { mu_.unlock(); }
  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

// Condition variable bound to the annotated Mutex. Waits REQUIRE the mutex — the analysis
// then knows the caller holds it across the wait, and the blocking-under-lock lint recognizes
// the waited-on mutex as the one legitimately held. Timed waits return false on timeout.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) BFT_REQUIRES(mu) {
    std::unique_lock<std::mutex> adopted(mu.mu_, std::adopt_lock);
    cv_.wait(adopted);
    adopted.release();
  }

  template <typename Clock, typename Duration>
  bool WaitUntil(Mutex& mu, const std::chrono::time_point<Clock, Duration>& deadline)
      BFT_REQUIRES(mu) {
    std::unique_lock<std::mutex> adopted(mu.mu_, std::adopt_lock);
    bool ok = cv_.wait_until(adopted, deadline) == std::cv_status::no_timeout;
    adopted.release();
    return ok;
  }

  template <typename Rep, typename Period>
  bool WaitFor(Mutex& mu, const std::chrono::duration<Rep, Period>& rel) BFT_REQUIRES(mu) {
    std::unique_lock<std::mutex> adopted(mu.mu_, std::adopt_lock);
    bool ok = cv_.wait_for(adopted, rel) == std::cv_status::no_timeout;
    adopted.release();
    return ok;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace bft

#endif  // SRC_COMMON_THREAD_ANNOTATIONS_H_
