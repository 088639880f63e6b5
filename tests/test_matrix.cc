// Tests for the dense matrix container the network simulators store
// their weights in.

#include <gtest/gtest.h>

#include <vector>

#include "neuro/common/matrix.h"
#include "neuro/common/rng.h"

namespace neuro {
namespace {

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
