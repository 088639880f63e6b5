/**
 * @file
 * Annotated mutex wrapper: the lock vocabulary of every concurrent
 * subsystem (thread pool, serve queue/server/registry, telemetry,
 * SNN grid store, trace/profile sinks).
 *
 * neuro::Mutex is a std::mutex carrying the Clang TSA "capability"
 * attribute; MutexGuard is the RAII scoped capability that acquires
 * it; CondVar pairs a std::condition_variable with a Mutex. Together
 * with the NEURO_GUARDED_BY / NEURO_REQUIRES annotations
 * (common/thread_annotations.h) they make lock discipline a
 * compile-time property under clang `-Wthread-safety` — see
 * docs/static_analysis.md for the lock-order table and how to read
 * the diagnostics.
 *
 * Library code under src/neuro uses these types instead of raw
 * std::mutex / manual .lock()/.unlock(); neurolint rules R6 and R7
 * enforce that on toolchains where the analysis cannot run.
 *
 * CondVar waits are written as explicit while-loops at the call
 * sites, not predicate lambdas: TSA cannot see that a lambda runs
 * with the lock held, so `while (!ready) cv.wait(m);` is the form the
 * analysis (and a human reader) can check.
 */

#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "neuro/common/thread_annotations.h"

namespace neuro {

/** A std::mutex that participates in thread-safety analysis. */
class NEURO_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    /** Prefer MutexGuard; exposed for the guard and special cases. */
    void lock() NEURO_ACQUIRE() { m_.lock(); }
    void unlock() NEURO_RELEASE() { m_.unlock(); }

  private:
    friend class CondVar;
    std::mutex m_;
};

/** RAII lock: holds @p mutex for the guard's lifetime. */
class NEURO_SCOPED_CAPABILITY MutexGuard
{
  public:
    explicit MutexGuard(Mutex &mutex) NEURO_ACQUIRE(mutex)
        : mutex_(mutex)
    {
        mutex_.lock();
    }

    ~MutexGuard() NEURO_RELEASE() { mutex_.unlock(); }

    MutexGuard(const MutexGuard &) = delete;
    MutexGuard &operator=(const MutexGuard &) = delete;

  private:
    Mutex &mutex_;
};

/**
 * Condition variable bound to neuro::Mutex. Every wait overload
 * requires the mutex held (spurious wakeups are possible — always
 * re-check the condition in a loop around the wait). Internally the
 * wait adopts the already-held std::mutex and releases it back
 * un-owned, so this keeps std::condition_variable's native fast path
 * (no condition_variable_any indirection).
 */
class CondVar
{
  public:
    CondVar() = default;
    CondVar(const CondVar &) = delete;
    CondVar &operator=(const CondVar &) = delete;

    /** Atomically release @p mutex, block, reacquire. */
    void
    wait(Mutex &mutex) NEURO_REQUIRES(mutex)
    {
        std::unique_lock<std::mutex> native(mutex.m_, std::adopt_lock);
        cv_.wait(native);
        native.release();
    }

    /** wait() bounded by an absolute deadline. */
    template <typename Clock, typename Duration>
    std::cv_status
    waitUntil(Mutex &mutex,
              const std::chrono::time_point<Clock, Duration> &deadline)
        NEURO_REQUIRES(mutex)
    {
        std::unique_lock<std::mutex> native(mutex.m_, std::adopt_lock);
        const std::cv_status status = cv_.wait_until(native, deadline);
        native.release();
        return status;
    }

    /** wait() bounded by a relative timeout. */
    template <typename Rep, typename Period>
    std::cv_status
    waitFor(Mutex &mutex,
            const std::chrono::duration<Rep, Period> &timeout)
        NEURO_REQUIRES(mutex)
    {
        std::unique_lock<std::mutex> native(mutex.m_, std::adopt_lock);
        const std::cv_status status = cv_.wait_for(native, timeout);
        native.release();
        return status;
    }

    /** Wake one waiter (callers usually hold the mutex; not required). */
    void notifyOne() { cv_.notify_one(); }

    /** Wake every waiter. */
    void notifyAll() { cv_.notify_all(); }

  private:
    std::condition_variable cv_;
};

} // namespace neuro
