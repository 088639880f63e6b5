/**
 * @file
 * Work-chunking parallel execution subsystem.
 *
 * A single lazily-started, process-wide thread pool backs four
 * primitives used across the simulators:
 *
 *  - parallelFor(begin, end, grain, fn): fn(i) for every index in
 *    [begin, end), sharded into contiguous chunks of at least `grain`
 *    indices;
 *  - parallelForRange(begin, end, grain, fn): fn(i0, i1) once per
 *    chunk, for callers that amortize per-worker scratch state;
 *  - parallelMap(n, fn): collects fn(i) into a vector, in index order;
 *  - parallelInvoke(tasks): runs a small set of heterogeneous tasks.
 *
 * Thread count: the NEURO_THREADS environment variable; default
 * hardware_concurrency.
 * A count of 1 is the fully serial fallback — every primitive then runs
 * inline on the caller with no pool, no atomics and no locking.
 *
 * Determinism contract: every primitive produces results independent
 * of the thread count and of chunk scheduling, provided fn(i) writes
 * only to per-index state (the library's callers all do; reductions
 * are performed serially afterwards in index order). Serial (threads=1)
 * and parallel runs are bit-identical. See docs/parallelism.md.
 *
 * Exceptions: the first exception thrown by any fn is captured and
 * rethrown on the calling thread after the whole range completes
 * (remaining chunks are skipped, not run).
 *
 * Nesting: a parallel primitive invoked from inside a pool task runs
 * serially inline on that worker. The outer layer already saturates
 * the pool, and running nested work inline cannot deadlock.
 *
 * Tasks that wait for each other: parallelInvoke() promises that up to
 * parallelWidth() tasks run at the same time (see there), and
 * awaitAtLeast() is the one wait such tasks use.
 */

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace neuro {

/** Range task: processes indices [begin, end). */
using RangeFn = std::function<void(std::size_t, std::size_t)>;

/**
 * The process-wide worker pool. Most code should use the free
 * functions below; the class is exposed for tests and for thread-count
 * control.
 */
class ThreadPool
{
  public:
    /** @return the process-wide pool (workers started on first use). */
    static ThreadPool &instance();

    /**
     * Configured parallelism width, including the calling thread
     * (1 = serial). Resolved from NEURO_THREADS /
     * hardware_concurrency on first call.
     */
    std::size_t threadCount();

    /**
     * Reconfigure the parallelism width (tests, thread sweeps). Joins
     * and restarts the workers; must not be called concurrently with
     * running parallel work. @p n == 0 selects hardware_concurrency.
     */
    void setThreadCount(std::size_t n);

    /** @return true on a thread currently executing a pool chunk. */
    static bool inParallelRegion();

    /**
     * Shard [begin, end) into chunks of at least @p grain indices and
     * run @p fn once per chunk across the workers plus the calling
     * thread. The calling thread runs the first chunk. Blocks until
     * the range completes; rethrows the first exception. @p grain == 0
     * picks a chunk size that yields ~4 chunks per thread.
     */
    void forRange(std::size_t begin, std::size_t end, std::size_t grain,
                  const RangeFn &fn);

    ~ThreadPool();

  private:
    ThreadPool();
    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    struct Impl;

    /** Lazily start the workers; @return the resolved thread count.
     *  All locking lives in Impl, whose members carry the TSA
     *  annotations (common/thread_annotations.h). */
    std::size_t ensureStarted();

    Impl *impl_ = nullptr;
};

/** @return the configured parallelism width (>= 1). */
std::size_t parallelThreadCount();

/** Set the parallelism width (0 = hardware_concurrency). */
void setParallelThreadCount(std::size_t n);

/** @return how many tasks a parallelInvoke() from this thread runs at
 *  the same time: 1 inside a pool task, parallelThreadCount()
 *  otherwise. */
std::size_t parallelWidth();

/** fn(i0, i1) per chunk; see ThreadPool::forRange. */
inline void
parallelForRange(std::size_t begin, std::size_t end, std::size_t grain,
                 const RangeFn &fn)
{
    ThreadPool::instance().forRange(begin, end, grain, fn);
}

/** fn(i) for every i in [begin, end), sharded across the pool. */
template <typename Fn>
void
parallelFor(std::size_t begin, std::size_t end, std::size_t grain,
            const Fn &fn)
{
    parallelForRange(begin, end, grain,
                     [&fn](std::size_t i0, std::size_t i1) {
                         for (std::size_t i = i0; i < i1; ++i)
                             fn(i);
                     });
}

/** parallelFor with an automatic grain size. */
template <typename Fn>
void
parallelFor(std::size_t begin, std::size_t end, const Fn &fn)
{
    parallelFor(begin, end, 0, fn);
}

/**
 * Evaluate fn(i) for i in [0, n) and return the results in index
 * order. T must be default-constructible; results are written to
 * per-index slots so the output is thread-count independent.
 */
template <typename T, typename Fn>
std::vector<T>
parallelMap(std::size_t n, const Fn &fn)
{
    std::vector<T> out(n);
    parallelFor(std::size_t{0}, n, std::size_t{1},
                [&](std::size_t i) { out[i] = fn(i); });
    return out;
}

/**
 * Run a handful of heterogeneous tasks (e.g. the three model trainings
 * of the Table 3 comparison) across the pool.
 *
 * The pool contract: called outside a pool task with at most
 * parallelThreadCount() tasks, parallelInvoke runs every task at the
 * same time. Task 0 runs on the caller and each other task on its own
 * worker, so the tasks may wait for one another. This holds because
 * top-level jobs take the pool one at a time, and a job is queued only
 * after every worker has let go of the job before it: all
 * parallelThreadCount() - 1 workers are free to take a task each.
 * Inside a pool task the tasks run inline, in order, on the calling
 * thread, so there they must not wait for one another.
 * parallelWidth() says which case holds.
 */
void parallelInvoke(std::vector<std::function<void()>> tasks);

/** Spin, then yield, until @p word reaches @p target. For tasks of one
 *  parallelInvoke() that wait for each other under its contract.
 *  @return the value seen (acquire). */
uint64_t awaitAtLeast(const std::atomic<uint64_t> &word, uint64_t target);

} // namespace neuro

