#include "neuro/common/matrix.h"

#include "neuro/common/logging.h"
#include "neuro/common/rng.h"
#include "neuro/kernels/kernels.h"

namespace neuro {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0f)
{
}

float &
Matrix::operator()(std::size_t r, std::size_t c)
{
    return data_[r * cols_ + c];
}

float
Matrix::operator()(std::size_t r, std::size_t c) const
{
    return data_[r * cols_ + c];
}

float *
Matrix::row(std::size_t r)
{
    NEURO_ASSERT(r < rows_, "row %zu out of range (%zu rows)", r, rows_);
    return data_.data() + r * cols_;
}

const float *
Matrix::row(std::size_t r) const
{
    NEURO_ASSERT(r < rows_, "row %zu out of range (%zu rows)", r, rows_);
    return data_.data() + r * cols_;
}

void
Matrix::fill(float v)
{
    for (auto &x : data_)
        x = v;
}

void
Matrix::fillUniform(Rng &rng, float lo, float hi)
{
    for (auto &x : data_)
        x = static_cast<float>(rng.uniform(lo, hi));
}

void
Matrix::fillGaussian(Rng &rng, float mean, float stddev)
{
    for (auto &x : data_)
        x = static_cast<float>(rng.gaussian(mean, stddev));
}

// The linear-algebra entry points delegate to the unified SIMD kernel
// layer (neuro/kernels/): one runtime-dispatched implementation shared
// with the strip, q8 and event-engine paths, bit-identical to the
// historical scalar loops at every ISA level (docs/kernels.md).

void
Matrix::gemv(const float *x, float *y) const
{
    kernels::gemv(data_.data(), rows_, cols_, x, y);
}

void
Matrix::gemvT(const float *x, float *y) const
{
    kernels::gemvT(data_.data(), rows_, cols_, x, y);
}

void
Matrix::addOuter(float eta, const float *d, const float *x)
{
    kernels::addOuter(data_.data(), rows_, cols_, eta, d, x);
}

void
Matrix::gemvBias(const float *x, float *y) const
{
    NEURO_ASSERT(cols_ > 0, "gemvBias needs a bias column");
    kernels::gemvBias(data_.data(), rows_, cols_, x, y);
}

} // namespace neuro
