#include "neuro/common/stats.h"

#include <cmath>

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
    sumSq_ += v * v;
}

double
Distribution::mean() const
{
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

double
Distribution::stddev() const
{
    if (count_ < 2)
        return 0.0;
    const double m = mean();
    const double var = sumSq_ / static_cast<double>(count_) - m * m;
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

void
Distribution::reset()
{
    *this = Distribution();
}

} // namespace neuro
