#include "neuro/common/stats.h"

namespace neuro {

void
Distribution::sample(double v)
{
    if (count_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        if (v < min_)
            min_ = v;
        if (v > max_)
            max_ = v;
    }
    ++count_;
    sum_ += v;
}

double
Distribution::mean() const
{
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

} // namespace neuro
