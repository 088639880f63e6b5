#include "neuro/snn/snn_wot.h"

#include <algorithm>
#include <cmath>

#include "neuro/common/logging.h"
#include "neuro/snn/network.h"

namespace neuro {
namespace snn {

SnnWotDatapath::SnnWotDatapath(const SnnNetwork &net)
    : numInputs_(net.config().numInputs),
      numNeurons_(net.config().numNeurons),
      weights_(numInputs_ * numNeurons_)
{
    const Matrix &w = net.weights();
    for (std::size_t n = 0; n < numNeurons_; ++n) {
        const float *row = w.row(n);
        for (std::size_t p = 0; p < numInputs_; ++p) {
            const long q = std::lround(row[p]);
            weights_[n * numInputs_ + p] =
                static_cast<uint8_t>(std::clamp(q, 0L, 255L));
        }
    }
}

uint32_t
SnnWotDatapath::shiftMultiply(uint8_t count, uint8_t weight)
{
    NEURO_ASSERT(count < 16, "spike count must fit in 4 bits");
    const uint32_t w = weight;
    uint32_t acc = 0;
    // One shifter + adder per count bit, as in Figure 7.
    if (count & 0x8)
        acc += w << 3;
    if (count & 0x4)
        acc += w << 2;
    if (count & 0x2)
        acc += w << 1;
    if (count & 0x1)
        acc += w;
    return acc;
}

int
SnnWotDatapath::forward(const uint8_t *counts,
                        std::vector<uint32_t> *potentials) const
{
    if (potentials)
        potentials->assign(numNeurons_, 0);
    int best = 0;
    uint32_t best_pot = 0;
    bool first = true;
    for (std::size_t n = 0; n < numNeurons_; ++n) {
        const uint8_t *row = weights_.data() + n * numInputs_;
        uint32_t pot = 0; // Wallace-tree accumulation.
        for (std::size_t p = 0; p < numInputs_; ++p)
            pot += shiftMultiply(counts[p], row[p]);
        if (potentials)
            (*potentials)[n] = pot;
        // Max tree: ties resolve to the lower index, as a comparator
        // tree with stable select would.
        if (first || pot > best_pot) {
            best_pot = pot;
            best = static_cast<int>(n);
            first = false;
        }
    }
    return best;
}

uint8_t
SnnWotDatapath::weight(std::size_t neuron, std::size_t input) const
{
    NEURO_ASSERT(neuron < numNeurons_ && input < numInputs_,
                 "weight index out of range");
    return weights_[neuron * numInputs_ + input];
}

uint8_t
SnnWotDatapath::weightAt(std::size_t idx) const
{
    NEURO_ASSERT(idx < weights_.size(), "weight index out of range");
    return weights_[idx];
}

void
SnnWotDatapath::setWeightAt(std::size_t idx, uint8_t value)
{
    NEURO_ASSERT(idx < weights_.size(), "weight index out of range");
    weights_[idx] = value;
}

} // namespace snn
} // namespace neuro
