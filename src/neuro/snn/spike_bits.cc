#include "neuro/snn/spike_bits.h"

#include "neuro/common/logging.h"

namespace neuro {
namespace snn {

PackedSpikeGrid::PackedSpikeGrid(std::size_t num_inputs, int period_ms)
{
    reset(num_inputs, period_ms);
}

void
PackedSpikeGrid::reset(std::size_t num_inputs, int period_ms)
{
    NEURO_ASSERT(period_ms > 0, "presentation period must be > 0");
    numInputs_ = num_inputs;
    periodMs_ = period_ms;
    finalized_ = false;
    rawTicks_.clear();
    rawInputs_.clear();
    activeTicks_.clear();
    tickOffsets_.clear();
    events_.clear();
}

void
PackedSpikeGrid::addSpike(int tick, uint16_t input)
{
    NEURO_ASSERT(!finalized_, "addSpike after finalize");
    NEURO_ASSERT(tick >= 0 && tick < periodMs_, "tick %d out of window",
                 tick);
    NEURO_ASSERT(input < numInputs_, "input spike out of range");
    rawTicks_.push_back(tick);
    rawInputs_.push_back(input);
}

void
PackedSpikeGrid::finalize()
{
    NEURO_ASSERT(!finalized_, "grid already finalized");
    finalized_ = true;

    // Stable counting sort of the raw events by tick: per-tick spike
    // counts, prefix sums, then a placement pass that keeps emission
    // order inside each tick.
    std::vector<uint32_t> per_tick(static_cast<std::size_t>(periodMs_), 0);
    for (int32_t t : rawTicks_)
        ++per_tick[static_cast<std::size_t>(t)];

    activeTicks_.clear();
    tickOffsets_.clear();
    uint32_t offset = 0;
    std::vector<uint32_t> cursor(per_tick.size(), 0);
    for (std::size_t t = 0; t < per_tick.size(); ++t) {
        if (per_tick[t] == 0)
            continue;
        activeTicks_.push_back(static_cast<int32_t>(t));
        tickOffsets_.push_back(offset);
        cursor[t] = offset;
        offset += per_tick[t];
    }
    tickOffsets_.push_back(offset);

    events_.resize(rawTicks_.size());
    for (std::size_t i = 0; i < rawTicks_.size(); ++i) {
        const auto t = static_cast<std::size_t>(rawTicks_[i]);
        events_[cursor[t]++] = rawInputs_[i];
    }

    // Merge duplicate (tick, input) pairs in one pass over the
    // tick-sorted events: an input already stamped with this tick is a
    // repeat, so the first emission wins and the order is kept. Every
    // active tick keeps its first event, so no tick empties.
    std::vector<int32_t> last_tick(numInputs_, -1);
    uint32_t kept = 0;
    for (std::size_t k = 0; k < activeTicks_.size(); ++k) {
        const int32_t t = activeTicks_[k];
        const uint32_t begin = tickOffsets_[k];
        const uint32_t end = tickOffsets_[k + 1];
        tickOffsets_[k] = kept;
        for (uint32_t i = begin; i < end; ++i) {
            const uint16_t input = events_[i];
            if (last_tick[input] == t)
                continue;
            last_tick[input] = t;
            events_[kept++] = input;
        }
    }
    tickOffsets_.back() = kept;
    events_.resize(kept);
    rawTicks_.clear();
    rawTicks_.shrink_to_fit();
    rawInputs_.clear();
    rawInputs_.shrink_to_fit();
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
