// Tests for the dense matrix kernels used by the network simulators.

#include <gtest/gtest.h>

#include <vector>

#include "neuro/common/matrix.h"
#include "neuro/common/rng.h"

namespace neuro {
namespace {

Matrix
makeSequential(std::size_t rows, std::size_t cols)
{
    Matrix m(rows, cols);
    float v = 1.0f;
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            m(r, c) = v++;
    return m;
}

TEST(Matrix, GeometryAndFill)
{
    Matrix m(3, 5);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 5u);
    EXPECT_EQ(m.size(), 15u);
    m.fill(2.5f);
    for (float v : m.data())
        EXPECT_FLOAT_EQ(v, 2.5f);
}

TEST(Matrix, GemvMatchesNaive)
{
    const Matrix m = makeSequential(3, 4);
    const std::vector<float> x = {1, 2, 3, 4};
    std::vector<float> y(3);
    m.gemv(x.data(), y.data());
    // Row 0: 1*1+2*2+3*3+4*4 = 30; row 1: 5+12+21+32 = 70; row 2: 110.
    EXPECT_FLOAT_EQ(y[0], 30.0f);
    EXPECT_FLOAT_EQ(y[1], 70.0f);
    EXPECT_FLOAT_EQ(y[2], 110.0f);
}

TEST(Matrix, GemvTransposedMatchesNaive)
{
    const Matrix m = makeSequential(2, 3);
    const std::vector<float> x = {1, 10};
    std::vector<float> y(3);
    m.gemvT(x.data(), y.data());
    EXPECT_FLOAT_EQ(y[0], 1 * 1 + 10 * 4);
    EXPECT_FLOAT_EQ(y[1], 1 * 2 + 10 * 5);
    EXPECT_FLOAT_EQ(y[2], 1 * 3 + 10 * 6);
}

TEST(Matrix, AddOuterAccumulates)
{
    Matrix m(2, 2);
    const std::vector<float> d = {1.0f, -2.0f};
    const std::vector<float> x = {3.0f, 4.0f};
    m.addOuter(0.5f, d.data(), x.data());
    EXPECT_FLOAT_EQ(m(0, 0), 1.5f);
    EXPECT_FLOAT_EQ(m(0, 1), 2.0f);
    EXPECT_FLOAT_EQ(m(1, 0), -3.0f);
    EXPECT_FLOAT_EQ(m(1, 1), -4.0f);
}

TEST(Matrix, RandomFillsCoverRange)
{
    Rng rng(3);
    Matrix m(20, 20);
    m.fillUniform(rng, -1.0f, 1.0f);
    float lo = 1e9f, hi = -1e9f, sum = 0.0f;
    for (float v : m.data()) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
        sum += v;
        ASSERT_GE(v, -1.0f);
        ASSERT_LT(v, 1.0f);
    }
    EXPECT_LT(lo, -0.8f);
    EXPECT_GT(hi, 0.8f);
    EXPECT_NEAR(sum / 400.0f, 0.0f, 0.1f);
}

} // namespace
} // namespace neuro
