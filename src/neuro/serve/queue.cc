#include "neuro/serve/queue.h"

#include <algorithm>

#include "neuro/common/logging.h"

namespace neuro {
namespace serve {

const char *
requestStatusName(RequestStatus status)
{
    switch (status) {
    case RequestStatus::Ok: return "ok";
    case RequestStatus::Rejected: return "rejected";
    case RequestStatus::Expired: return "expired";
    }
    return "unknown";
}

RequestQueue::RequestQueue(std::size_t capacity) : capacity_(capacity)
{
    NEURO_ASSERT(capacity >= 1, "queue capacity must be >= 1");
}

bool
RequestQueue::push(PendingRequest &&pending)
{
    {
        MutexGuard lock(mutex_);
        if (closed_ || items_.size() >= capacity_)
            return false;
        items_.push_back(std::move(pending));
    }
    nonEmpty_.notifyOne();
    return true;
}

void
RequestQueue::close()
{
    {
        MutexGuard lock(mutex_);
        closed_ = true;
    }
    nonEmpty_.notifyAll();
}

bool
RequestQueue::closed() const
{
    MutexGuard lock(mutex_);
    return closed_;
}

std::size_t
RequestQueue::size() const
{
    MutexGuard lock(mutex_);
    return items_.size();
}

MicroBatcher::MicroBatcher(RequestQueue &queue, BatchPolicy policy)
    : queue_(queue), policy_(policy)
{
    NEURO_ASSERT(policy_.maxBatch >= 1, "maxBatch must be >= 1");
}

std::vector<PendingRequest>
MicroBatcher::nextBatch()
{
    std::vector<PendingRequest> batch;
    MutexGuard lock(queue_.mutex_);

    // Phase 1: wait for the first request (or close). Explicit wait
    // loops, not predicate lambdas: the thread-safety analysis cannot
    // see guarded members through a lambda.
    while (queue_.items_.empty() && !queue_.closed_)
        queue_.nonEmpty_.wait(queue_.mutex_);
    if (queue_.items_.empty())
        return batch; // closed and drained.

    // Phase 2: the first request opens the batch; wait for it to fill
    // up to maxBatch, but no longer than maxWaitMicros past the open,
    // never past the earliest deadline in hand, and not at all once
    // the queue is closed (shutdown drains at full speed).
    batch.push_back(std::move(queue_.items_.front()));
    queue_.items_.pop_front();
    // End of the request's queue stage / start of batch assembly.
    batch.back().dequeueTime = ServeClock::now();
    auto fillUntil =
        ServeClock::now() + std::chrono::microseconds(policy_.maxWaitMicros);
    while (batch.size() < policy_.maxBatch) {
        if (!queue_.items_.empty()) {
            batch.push_back(std::move(queue_.items_.front()));
            queue_.items_.pop_front();
            batch.back().dequeueTime = ServeClock::now();
            continue;
        }
        if (queue_.closed_)
            break;
        for (const PendingRequest &pending : batch) {
            fillUntil =
                std::min(fillUntil, pending.request.deadline);
        }
        if (ServeClock::now() >= fillUntil)
            break;
        if (queue_.nonEmpty_.waitUntil(queue_.mutex_, fillUntil) ==
            std::cv_status::timeout)
            break;
    }
    return batch;
}

} // namespace serve
} // namespace neuro
