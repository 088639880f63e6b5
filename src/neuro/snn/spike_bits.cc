#include "neuro/snn/spike_bits.h"

namespace neuro {
namespace snn {

PackedSpikeGrid::PackedSpikeGrid(std::size_t num_inputs, int period_ms)
{
    reset(num_inputs, period_ms);
}

void
PackedSpikeGrid::reset(std::size_t num_inputs, int period_ms)
{
    reset(num_inputs, period_ms, period_ms);
}

void
PackedSpikeGrid::reset(std::size_t num_inputs, int period_ms,
                       int horizon_ms)
{
    NEURO_ASSERT(period_ms > 0, "presentation period must be > 0");
    NEURO_ASSERT(horizon_ms > 0 && horizon_ms <= period_ms,
                 "horizon %d outside (0, %d]", horizon_ms, period_ms);
    numInputs_ = num_inputs;
    periodMs_ = period_ms;
    horizonMs_ = horizon_ms;
    finalized_ = false;
    rawTicks_.clear();
    rawInputs_.clear();
    activeTicks_.clear();
    tickOffsets_.clear();
    events_.clear();
}

void
PackedSpikeGrid::reserve(std::size_t spikes)
{
    rawTicks_.reserve(spikes);
    rawInputs_.reserve(spikes);
}

void
PackedSpikeGrid::finalize()
{
    NEURO_ASSERT(!finalized_, "grid already finalized");
    finalized_ = true;

    // Stable counting sort of the raw events by tick: per-tick spike
    // counts, prefix sums, then a placement pass that keeps emission
    // order inside each tick. Only ticks below the horizon can carry
    // a spike. The scratch is per thread, so finalizing allocates
    // nothing once the thread has seen a grid this size.
    thread_local std::vector<uint32_t> tick_scratch;
    const auto ticks = static_cast<std::size_t>(horizonMs_);
    tick_scratch.assign(ticks, 0);
    uint32_t *cursor = tick_scratch.data();
    for (int32_t t : rawTicks_)
        ++cursor[static_cast<std::size_t>(t)];

    activeTicks_.clear();
    tickOffsets_.clear();
    uint32_t offset = 0;
    for (std::size_t t = 0; t < ticks; ++t) {
        const uint32_t count = cursor[t];
        if (count == 0)
            continue;
        activeTicks_.push_back(static_cast<int32_t>(t));
        tickOffsets_.push_back(offset);
        cursor[t] = offset;
        offset += count;
    }
    tickOffsets_.push_back(offset);

    events_.resize(rawTicks_.size());
    for (std::size_t i = 0; i < rawTicks_.size(); ++i) {
        const auto t = static_cast<std::size_t>(rawTicks_[i]);
        events_[cursor[t]++] = rawInputs_[i];
    }

    rawTicks_.clear();
    rawInputs_.clear();
}

PackedSpikeGrid
PackedSpikeGrid::compactCopy() const
{
    NEURO_ASSERT(finalized_, "compactCopy requires finalize()");
    PackedSpikeGrid copy;
    copy.numInputs_ = numInputs_;
    copy.periodMs_ = periodMs_;
    copy.horizonMs_ = horizonMs_;
    copy.finalized_ = true;
    copy.activeTicks_ = activeTicks_;
    copy.tickOffsets_ = tickOffsets_;
    copy.events_ = events_;
    return copy;
}

const uint16_t *
PackedSpikeGrid::inputsAt(std::size_t k, std::size_t *count) const
{
    NEURO_ASSERT(finalized_, "event index requires finalize()");
    NEURO_ASSERT(k < activeTicks_.size(), "active tick out of range");
    *count = tickOffsets_[k + 1] - tickOffsets_[k];
    return events_.data() + tickOffsets_[k];
}

std::size_t
PackedSpikeGrid::bytes() const
{
    return rawTicks_.capacity() * sizeof(int32_t) +
        rawInputs_.capacity() * sizeof(uint16_t) +
        activeTicks_.capacity() * sizeof(int32_t) +
        tickOffsets_.capacity() * sizeof(uint32_t) +
        events_.capacity() * sizeof(uint16_t) + sizeof(*this);
}

} // namespace snn
} // namespace neuro
