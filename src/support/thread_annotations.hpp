#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

/// \file thread_annotations.hpp
/// Clang Thread Safety Analysis support for the whole runtime stack.
///
/// Two things live here:
///
///  1. The PREMA_* annotation macros (Clang's `-Wthread-safety` attribute
///     set, https://clang.llvm.org/docs/ThreadSafetyAnalysis.html). Under
///     any non-Clang compiler they expand to nothing, so GCC builds see
///     plain classes.
///
///  2. Annotated synchronization primitives — `Mutex`, `RecursiveMutex`,
///     `LockGuard`, `UniqueLock`, `RecursiveLock`, `CondVar` — thin wrappers
///     over the `std::` equivalents that carry the capability attributes.
///     All library code uses these instead of raw `std::mutex` /
///     `std::lock_guard`; `prema_analyze` enforces that rule, which is what
///     makes the static analysis airtight: a mutex the analysis cannot see
///     cannot exist outside this header.
///
/// The analysis build is `-DPREMA_THREAD_SAFETY=ON` with a Clang toolchain
/// (adds `-Wthread-safety`; combine with the default-on PREMA_WERROR to make
/// findings fatal). See README "Correctness tooling".

#if defined(__clang__)
#define PREMA_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define PREMA_THREAD_ANNOTATION__(x)  // non-Clang: annotations compile away
#endif

/// Marks a class as a lockable capability ("mutex" in diagnostics).
#define PREMA_CAPABILITY(x) PREMA_THREAD_ANNOTATION__(capability(x))

/// Marks an RAII class whose constructor acquires and destructor releases.
#define PREMA_SCOPED_CAPABILITY PREMA_THREAD_ANNOTATION__(scoped_lockable)

/// Field may only be read/written while holding `x`.
#define PREMA_GUARDED_BY(x) PREMA_THREAD_ANNOTATION__(guarded_by(x))

/// Pointer field: the pointed-to data is protected by `x`.
#define PREMA_PT_GUARDED_BY(x) PREMA_THREAD_ANNOTATION__(pt_guarded_by(x))

/// Function requires the listed capabilities to be held on entry (and does
/// not release them).
#define PREMA_REQUIRES(...) \
  PREMA_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))

/// Function acquires the listed capabilities (held on exit, not on entry).
#define PREMA_ACQUIRE(...) \
  PREMA_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))

/// Function releases the listed capabilities.
#define PREMA_RELEASE(...) \
  PREMA_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))

/// Function attempts the acquisition; first arg is the success return value.
#define PREMA_TRY_ACQUIRE(...) \
  PREMA_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))

/// Function must NOT be called with the listed capabilities held.
#define PREMA_EXCLUDES(...) PREMA_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/// Declares (without runtime effect) that the capability is held — the
/// escape hatch for aliasing the analysis cannot follow, e.g. "this NodeRt's
/// `node->state_mutex()` is the same lock the caller acquired through a
/// different expression". Use sparingly and document why at each site.
#define PREMA_ASSERT_CAPABILITY(x) \
  PREMA_THREAD_ANNOTATION__(assert_capability(x))

/// Function returns a reference to the given capability (lets attribute
/// expressions name a private mutex through an accessor).
#define PREMA_RETURN_CAPABILITY(x) PREMA_THREAD_ANNOTATION__(lock_returned(x))

/// Analyzer-only guard declaration for fields protected by a lock the class
/// cannot name in a Clang attribute — e.g. the inner structs of
/// `ReliableLink` (protected by the enclosing class' `mu_`) or a coordinator
/// struct guarded by its owner's `state_mutex()`. Expands to nothing for
/// every compiler; `prema_analyze`'s lock-flow pass reads it as GUARDED_BY
/// coverage. The argument is documentation: name the guarding lock.
#define PREMA_GUARDED_BY_CONTEXT(x)

/// Opt a function out of the analysis entirely (last resort).
#define PREMA_NO_THREAD_SAFETY_ANALYSIS \
  PREMA_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace prema::util {

/// `std::mutex` carrying the capability attribute.
class PREMA_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() PREMA_ACQUIRE() { mu_.lock(); }
  void unlock() PREMA_RELEASE() { mu_.unlock(); }
  [[nodiscard]] bool try_lock() PREMA_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// The wrapped mutex, for std:: interop inside this header only.
  [[nodiscard]] std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

/// `std::recursive_mutex` carrying the capability attribute. Used for the
/// per-node runtime state lock, where protocol layers legitimately nest
/// (policy handler -> MOL migration -> delivery hooks).
class PREMA_CAPABILITY("mutex") RecursiveMutex {
 public:
  RecursiveMutex() = default;
  RecursiveMutex(const RecursiveMutex&) = delete;
  RecursiveMutex& operator=(const RecursiveMutex&) = delete;

  void lock() PREMA_ACQUIRE() { mu_.lock(); }
  void unlock() PREMA_RELEASE() { mu_.unlock(); }
  [[nodiscard]] bool try_lock() PREMA_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  [[nodiscard]] std::recursive_mutex& native() { return mu_; }

 private:
  std::recursive_mutex mu_;
};

/// RAII exclusive lock over `Mutex` (the `std::lock_guard` shape).
class PREMA_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& m) PREMA_ACQUIRE(m) : mu_(m) { mu_.native().lock(); }
  ~LockGuard() PREMA_RELEASE() { mu_.native().unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mu_;
};

/// Movable/unlockable lock over `Mutex` (the `std::unique_lock` shape);
/// required by `CondVar` waits.
class PREMA_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& m) PREMA_ACQUIRE(m) : lk_(m.native()) {}
  ~UniqueLock() PREMA_RELEASE() {}

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void unlock() PREMA_RELEASE() { lk_.unlock(); }
  void lock() PREMA_ACQUIRE() { lk_.lock(); }

  /// The wrapped lock, for CondVar interop inside this header only.
  [[nodiscard]] std::unique_lock<std::mutex>& native() { return lk_; }

 private:
  std::unique_lock<std::mutex> lk_;
};

/// RAII lock over `RecursiveMutex`. Returned by value from
/// `dmcs::Node::lock_state()`; guaranteed copy elision means the move
/// constructor never runs in practice.
class PREMA_SCOPED_CAPABILITY RecursiveLock {
 public:
  explicit RecursiveLock(RecursiveMutex& m) PREMA_ACQUIRE(m) : lk_(m.native()) {}
  ~RecursiveLock() PREMA_RELEASE() {}

  RecursiveLock(RecursiveLock&&) noexcept = default;
  RecursiveLock(const RecursiveLock&) = delete;
  RecursiveLock& operator=(const RecursiveLock&) = delete;

  void unlock() PREMA_RELEASE() { lk_.unlock(); }
  void lock() PREMA_ACQUIRE() { lk_.lock(); }

 private:
  std::unique_lock<std::recursive_mutex> lk_;
};

/// Condition variable working with `Mutex`/`UniqueLock`. Only the primitives
/// the runtime actually needs; waits re-establish the capability on return,
/// which matches the analysis' model (the lock is held again when the wait
/// returns), so no annotation is required on the wait functions.
class CondVar {
 public:
  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

  void wait(UniqueLock& lk) { cv_.wait(lk.native()); }

  template <typename Rep, typename Period>
  void wait_for(UniqueLock& lk, const std::chrono::duration<Rep, Period>& d) {
    cv_.wait_for(lk.native(), d);
  }

 private:
  std::condition_variable cv_;
};

}  // namespace prema::util
