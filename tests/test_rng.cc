// Tests for the software RNG: determinism, stream seeds and the
// distributions the simulators draw.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "neuro/common/rng.h"

namespace neuro {
namespace {

TEST(Rng, DeterministicPerSeed)
{
    Rng a(123), b(123), c(124);
    bool diverged = false;
    for (int i = 0; i < 100; ++i) {
        const uint64_t va = a.next();
        EXPECT_EQ(va, b.next());
        if (va != c.next())
            diverged = true;
    }
    EXPECT_TRUE(diverged);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, UniformIntUnbiasedRange)
{
    Rng rng(11);
    std::vector<int> hist(7, 0);
    for (int i = 0; i < 21000; ++i)
        ++hist[rng.uniformInt(7)];
    for (int bucket : hist)
        EXPECT_NEAR(bucket, 3000, 300);
}

TEST(Rng, DiscardGaussiansMatchesGaussianCalls)
{
    for (bool cached : {false, true}) {
        for (std::size_t n = 0; n <= 9; ++n) {
            Rng a(29), b(29);
            if (cached) {
                // One gaussian() leaves its pair's second deviate cached.
                (void)a.gaussian();
                (void)b.gaussian();
            }
            for (std::size_t k = 0; k < n; ++k)
                (void)a.gaussian();
            b.discardGaussians(n);
            // The cache goes first: three deviates reach past it.
            for (int k = 0; k < 3; ++k)
                ASSERT_EQ(a.gaussian(), b.gaussian())
                    << "n=" << n << " cached=" << cached << " k=" << k;
            for (int k = 0; k < 16; ++k)
                ASSERT_EQ(a.next(), b.next())
                    << "n=" << n << " cached=" << cached << " k=" << k;
        }
    }
}

TEST(Rng, GaussianMoments)
{
    Rng rng(13);
    double sum = 0.0, sum_sq = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sum_sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(19);
    double sum = 0.0;
    const int n = 40000;
    for (int i = 0; i < n; ++i) {
        const double e = rng.exponential(50.0);
        ASSERT_GT(e, 0.0);
        sum += e;
    }
    EXPECT_NEAR(sum / n, 50.0, 1.5);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(23);
    std::vector<uint32_t> order(257);
    rng.shuffle(order.data(), order.size());
    std::set<uint32_t> seen(order.begin(), order.end());
    EXPECT_EQ(seen.size(), order.size());
    EXPECT_EQ(*seen.begin(), 0u);
    EXPECT_EQ(*seen.rbegin(), order.size() - 1);
}

} // namespace
} // namespace neuro
