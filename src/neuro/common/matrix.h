/**
 * @file
 * Minimal dense linear-algebra containers used by the network simulators.
 * Row-major float storage; the operations are the handful the MLP and SNN
 * implementations need (gemv, outer-product update, fills).
 */

#pragma once

#include <cstddef>
#include <vector>

namespace neuro {

class Rng;

/** A dense row-major matrix of floats. */
class Matrix
{
  public:
    Matrix() = default;

    /** Construct a rows x cols matrix, zero-initialized. */
    Matrix(std::size_t rows, std::size_t cols);

    /** @return the number of rows. */
    std::size_t rows() const { return rows_; }
    /** @return the number of columns. */
    std::size_t cols() const { return cols_; }
    /** @return total element count. */
    std::size_t size() const { return data_.size(); }

    /** Element access (no bounds check in release paths). */
    float &operator()(std::size_t r, std::size_t c);
    /** Element access, const. */
    float operator()(std::size_t r, std::size_t c) const;

    /** @return pointer to the first element of row @p r. */
    float *row(std::size_t r);
    /** @return const pointer to the first element of row @p r. */
    const float *row(std::size_t r) const;

    /** Set every element to @p v. */
    void fill(float v);

    /** Fill with uniform deviates in [lo, hi). */
    void fillUniform(Rng &rng, float lo, float hi);

    /** Fill with normal deviates. */
    void fillGaussian(Rng &rng, float mean, float stddev);

    /** y = this * x (rows x cols times cols-vector). */
    void gemv(const float *x, float *y) const;

    /** y = this^T * x (transposed product; x has rows() entries). */
    void gemvT(const float *x, float *y) const;

    /** this += eta * d * x^T (outer-product weight update). */
    void addOuter(float eta, const float *d, const float *x);

    /**
     * y = this * [x; 1]: affine product where the last column holds
     * bias weights fed by a constant 1 (the MLP's layer layout);
     * @p x has cols() - 1 entries.
     */
    void gemvBias(const float *x, float *y) const;

    /** @return underlying storage (for serialization / tests). */
    std::vector<float> &data() { return data_; }
    /** @return underlying storage, const. */
    const std::vector<float> &data() const { return data_; }

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<float> data_;
};

} // namespace neuro

