#include "neuro/common/matrix.h"

#include "neuro/common/logging.h"
#include "neuro/common/rng.h"

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

} // namespace neuro
