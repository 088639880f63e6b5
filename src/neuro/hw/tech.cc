#include "neuro/hw/tech.h"

#include "neuro/common/logging.h"

namespace neuro {
namespace hw {

uint64_t
adderTreeFaCount(std::size_t num_inputs, int bits)
{
    NEURO_ASSERT(bits > 0, "operand width must be positive");
    if (num_inputs <= 1)
        return 0;
    // Level l of the balanced tree has ceil(n / 2^l) adders of width
    // (bits + l): operand width grows one bit per level to hold carries.
    uint64_t fa = 0;
    std::size_t operands = num_inputs;
    int level = 1;
    while (operands > 1) {
        const std::size_t adders = operands / 2;
        fa += static_cast<uint64_t>(adders) *
              static_cast<uint64_t>(bits + level);
        operands = adders + (operands % 2);
        ++level;
    }
    return fa;
}

int
log2Ceil(std::size_t n)
{
    int bits = 0;
    std::size_t v = 1;
    while (v < n) {
        v <<= 1;
        ++bits;
    }
    return bits;
}

} // namespace hw
} // namespace neuro
