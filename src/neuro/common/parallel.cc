#include "neuro/common/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <string>
#include <thread>

#include "neuro/common/config.h"
#include "neuro/common/logging.h"
#include "neuro/common/mutex.h"
#include "neuro/common/profile.h"

namespace neuro {

namespace {

/** Depth of parallel-primitive nesting on this thread. Non-zero on a
 *  thread executing a pool chunk (workers, and the caller while it
 *  participates), which makes nested primitives run inline. */
thread_local int t_parallelDepth = 0;

std::size_t
hardwareThreads()
{
    const unsigned hc = std::thread::hardware_concurrency();
    return hc == 0 ? 1 : static_cast<std::size_t>(hc);
}

/** Resolve the initial thread count from NEURO_THREADS. */
std::size_t
envThreadCount()
{
    // Startup-only read; nothing in the process calls setenv.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    const char *env = std::getenv("NEURO_THREADS");
    if (env && *env) {
        char *end = nullptr;
        const long n = std::strtol(env, &end, 10);
        if (end != env && n >= 1)
            return static_cast<std::size_t>(n);
        warn("ignoring invalid NEURO_THREADS='%s'", env);
    }
    return hardwareThreads();
}

/**
 * Shared state of one forRange() call. Chunks are claimed with a
 * single fetch_add, so a fast worker simply claims more chunks; the
 * caller participates too and then waits for the last chunk to retire.
 * Held by shared_ptr so a worker that grabbed the job just as it
 * finished can still touch it safely.
 */
struct RangeJob
{
    std::size_t begin = 0;
    std::size_t grain = 1;
    std::size_t numChunks = 0;
    std::size_t end = 0;
    const RangeFn *fn = nullptr;

    std::atomic<std::size_t> nextChunk{0};
    std::atomic<std::size_t> chunksDone{0};
    std::atomic<bool> failed{false};

    Mutex mutex;
    CondVar allDone;
    std::exception_ptr error NEURO_GUARDED_BY(mutex);

    bool
    exhausted() const
    {
        return nextChunk.load(std::memory_order_relaxed) >= numChunks;
    }

    bool
    complete() const
    {
        return chunksDone.load(std::memory_order_acquire) == numChunks;
    }

    /** Claim and run chunks until the range is exhausted. The caller
     *  of forRange() is blocked for the whole claiming phase, so *fn
     *  outlives every chunk execution. */
    void
    work()
    {
        for (;;) {
            const std::size_t chunk =
                nextChunk.fetch_add(1, std::memory_order_relaxed);
            if (chunk >= numChunks)
                return;
            if (!failed.load(std::memory_order_relaxed)) {
                const std::size_t i0 = begin + chunk * grain;
                const std::size_t i1 = std::min(end, i0 + grain);
                try {
                    NEURO_PROFILE_SCOPE("parallel/chunk");
                    (*fn)(i0, i1);
                } catch (...) {
                    MutexGuard lock(mutex);
                    if (!error)
                        error = std::current_exception();
                    failed.store(true, std::memory_order_relaxed);
                }
            }
            const std::size_t done =
                chunksDone.fetch_add(1, std::memory_order_acq_rel) + 1;
            if (done == numChunks) {
                MutexGuard lock(mutex);
                allDone.notifyAll();
            }
        }
    }
};

} // namespace

struct ThreadPool::Impl
{
    /** Lock order (outermost first): configMutex / runMutex are never
     *  taken by worker threads and always precede the queue mutex. */
    Mutex configMutex NEURO_ACQUIRED_BEFORE(mutex);
    /** Serializes top-level forRange calls so one job owns the pool. */
    Mutex runMutex NEURO_ACQUIRED_BEFORE(mutex);
    /** Guards the job queue and the shutdown flag. */
    Mutex mutex;
    CondVar wake; ///< signals workers about new jobs.

    std::vector<std::thread> workers NEURO_GUARDED_BY(configMutex);
    std::size_t threadCount NEURO_GUARDED_BY(configMutex) = 0;
    std::deque<std::shared_ptr<RangeJob>> queue NEURO_GUARDED_BY(mutex);
    bool shutdown NEURO_GUARDED_BY(mutex) = false;

    void
    workerLoop()
    {
        for (;;) {
            std::shared_ptr<RangeJob> job;
            {
                MutexGuard lock(mutex);
                while (!shutdown && queue.empty())
                    wake.wait(mutex);
                if (shutdown)
                    return;
                job = queue.front();
                if (job->exhausted()) {
                    // Whoever notices first retires the spent job.
                    queue.pop_front();
                    continue;
                }
            }
            ++t_parallelDepth;
            job->work();
            --t_parallelDepth;
        }
    }

    void
    startWorkersLocked(std::size_t count) NEURO_REQUIRES(configMutex)
    {
        {
            MutexGuard lock(mutex);
            shutdown = false;
        }
        threadCount = count == 0 ? hardwareThreads() : count;
        // The calling thread participates, so n threads of parallelism
        // need n - 1 workers; 1 means fully serial with no workers.
        const std::size_t n = threadCount - 1;
        workers.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            workers.emplace_back([this] { workerLoop(); });
    }

    void
    stopWorkersLocked() NEURO_REQUIRES(configMutex)
    {
        {
            MutexGuard lock(mutex);
            shutdown = true;
        }
        wake.notifyAll();
        for (auto &w : workers)
            w.join();
        workers.clear();
        threadCount = 0;
    }
};

ThreadPool &
ThreadPool::instance()
{
    static ThreadPool pool;
    return pool;
}

ThreadPool::ThreadPool() : impl_(new Impl()) {}

ThreadPool::~ThreadPool()
{
    if (impl_) {
        {
            MutexGuard lock(impl_->configMutex);
            if (impl_->threadCount != 0)
                impl_->stopWorkersLocked();
        }
        delete impl_;
    }
}

std::size_t
ThreadPool::ensureStarted()
{
    // instance() construction is thread-safe; impl_ is created there,
    // so only the worker startup needs the config lock.
    MutexGuard lock(impl_->configMutex);
    if (impl_->threadCount == 0)
        impl_->startWorkersLocked(envThreadCount());
    return impl_->threadCount;
}

std::size_t
ThreadPool::threadCount()
{
    return ensureStarted();
}

void
ThreadPool::setThreadCount(std::size_t n)
{
    MutexGuard lock(impl_->configMutex);
    if (impl_->threadCount != 0)
        impl_->stopWorkersLocked();
    impl_->startWorkersLocked(n);
}

bool
ThreadPool::inParallelRegion()
{
    return t_parallelDepth > 0;
}

void
ThreadPool::forRange(std::size_t begin, std::size_t end,
                     std::size_t grain, const RangeFn &fn)
{
    if (begin >= end)
        return;
    const std::size_t threads = ensureStarted();
    const std::size_t n = end - begin;

    // Serial fallback: configured serial, nested inside a pool task,
    // or a range too small to be worth sharding. Chunks still execute
    // in index order here, which the determinism tests rely on.
    if (threads == 1 || t_parallelDepth > 0 || n == 1) {
        fn(begin, end);
        return;
    }

    if (grain == 0)
        grain = std::max<std::size_t>(1, n / (threads * 4));

    NEURO_PROFILE_SCOPE("parallel/for");

    auto job = std::make_shared<RangeJob>();
    job->begin = begin;
    job->end = end;
    job->grain = grain;
    job->numChunks = (n + grain - 1) / grain;
    job->fn = &fn;

    // One top-level job at a time: concurrent callers queue up here
    // rather than interleaving chunks in the worker queue.
    MutexGuard run(impl_->runMutex);
    {
        MutexGuard lock(impl_->mutex);
        impl_->queue.push_back(job);
    }
    impl_->wake.notifyAll();

    // The caller claims chunks alongside the workers.
    ++t_parallelDepth;
    job->work();
    --t_parallelDepth;

    {
        MutexGuard lock(job->mutex);
        while (!job->complete())
            job->allDone.wait(job->mutex);
    }
    {
        // Retire the job from the queue if no worker got to it first.
        MutexGuard lock(impl_->mutex);
        auto &q = impl_->queue;
        q.erase(std::remove(q.begin(), q.end(), job), q.end());
    }

    obsCount<"parallel.chunks">(job->numChunks);
    std::exception_ptr error;
    {
        MutexGuard lock(job->mutex);
        error = job->error;
    }
    if (error)
        std::rethrow_exception(error);
}

std::size_t
parallelThreadCount()
{
    return ThreadPool::instance().threadCount();
}

void
setParallelThreadCount(std::size_t n)
{
    ThreadPool::instance().setThreadCount(n);
}

void
initParallel(const Config &cfg)
{
    if (!cfg.has("threads"))
        return;
    const long n = cfg.getInt("threads", 0);
    if (n < 1) {
        warn("ignoring invalid threads=%ld (need >= 1)", n);
        return;
    }
    setParallelThreadCount(static_cast<std::size_t>(n));
}

void
parallelInvoke(std::vector<std::function<void()>> tasks)
{
    parallelFor(std::size_t{0}, tasks.size(), std::size_t{1},
                [&](std::size_t i) { tasks[i](); });
}

} // namespace neuro
