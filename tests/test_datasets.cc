// Tests for the dataset container and the three synthetic workload
// generators (MNIST / MPEG-7 / SAD stand-ins).

#include <gtest/gtest.h>

#include <cmath>

#include "neuro/datasets/glyphs.h"
#include "neuro/datasets/idx_loader.h"
#include "neuro/datasets/shapes.h"
#include "neuro/datasets/spoken_digits.h"
#include "neuro/datasets/synth_digits.h"

namespace neuro {
namespace datasets {
namespace {

TEST(Dataset, AddAndAccess)
{
    Dataset d("t", 2, 2, 3);
    Sample s;
    s.pixels = {0, 128, 255, 64};
    s.label = 2;
    d.add(s);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0].label, 2);
    float buf[4];
    d.normalized(0, buf);
    EXPECT_FLOAT_EQ(buf[0], 0.0f);
    EXPECT_FLOAT_EQ(buf[2], 1.0f);
    EXPECT_NEAR(buf[1], 128.0f / 255.0f, 1e-6);
}

TEST(Dataset, SliceAndHistogram)
{
    Dataset d("t", 1, 1, 2);
    for (int i = 0; i < 10; ++i) {
        Sample s;
        s.pixels = {static_cast<uint8_t>(i)};
        s.label = i % 2;
        d.add(s);
    }
    const Dataset head = d.slice(0, 4);
    EXPECT_EQ(head.size(), 4u);
    const auto hist = d.classHistogram();
    EXPECT_EQ(hist[0], 5u);
    EXPECT_EQ(hist[1], 5u);
}

TEST(GlyphBitmap, ParseAndSample)
{
    const GlyphBitmap g = GlyphBitmap::fromRows({"#.", ".#"});
    EXPECT_EQ(g.width, 2u);
    EXPECT_EQ(g.height, 2u);
    EXPECT_TRUE(g.at(0, 0));
    EXPECT_FALSE(g.at(1, 0));
    EXPECT_FALSE(g.at(-1, 0));
    // Centre of the ink cell has full coverage.
    EXPECT_NEAR(g.sample(0.5f, 0.5f), 1.0f, 1e-5);
    EXPECT_NEAR(g.sample(1.5f, 0.5f), 0.0f, 1e-5);
}

class DigitGeneratorTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(DigitGeneratorTest, GeometryLabelsAndDeterminism)
{
    SynthDigitsOptions opt;
    opt.trainSize = 60;
    opt.testSize = 20;
    opt.seed = GetParam();
    const Split a = makeSynthDigits(opt);
    const Split b = makeSynthDigits(opt);
    EXPECT_EQ(a.train.size(), 60u);
    EXPECT_EQ(a.test.size(), 20u);
    EXPECT_EQ(a.train.width(), 28u);
    EXPECT_EQ(a.train.numClasses(), 10);
    for (std::size_t i = 0; i < a.train.size(); ++i) {
        ASSERT_EQ(a.train[i].pixels, b.train[i].pixels)
            << "non-deterministic at " << i;
        ASSERT_EQ(a.train[i].label, b.train[i].label);
        ASSERT_GE(a.train[i].label, 0);
        ASSERT_LT(a.train[i].label, 10);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DigitGeneratorTest,
                         ::testing::Values(1u, 2u, 42u));

TEST(DigitGenerator, ImagesHaveInkAndBackground)
{
    SynthDigitsOptions opt;
    opt.trainSize = 30;
    opt.testSize = 1;
    const Split split = makeSynthDigits(opt);
    for (std::size_t i = 0; i < split.train.size(); ++i) {
        int bright = 0, dark = 0;
        for (uint8_t p : split.train[i].pixels) {
            if (p > 200)
                ++bright;
            if (p < 50)
                ++dark;
        }
        EXPECT_GT(bright, 20) << "image " << i << " has no ink";
        EXPECT_GT(dark, 300) << "image " << i << " has no background";
    }
}

TEST(DigitGenerator, DifferentSeedsDiffer)
{
    SynthDigitsOptions a, b;
    a.trainSize = b.trainSize = 10;
    a.testSize = b.testSize = 1;
    a.seed = 1;
    b.seed = 2;
    EXPECT_NE(makeSynthDigits(a).train[0].pixels,
              makeSynthDigits(b).train[0].pixels);
}

TEST(Shapes, GeometryAndClassNames)
{
    ShapesOptions opt;
    opt.trainSize = 40;
    opt.testSize = 10;
    const Split split = makeShapes(opt);
    EXPECT_EQ(split.train.numClasses(), kNumShapeClasses);
    EXPECT_EQ(split.train.width(), 28u);
}

TEST(Shapes, SilhouettesAreFilled)
{
    ShapesOptions opt;
    opt.trainSize = 20;
    opt.testSize = 1;
    opt.noiseStddev = 0.0f;
    const Split split = makeShapes(opt);
    for (std::size_t i = 0; i < split.train.size(); ++i) {
        int bright = 0;
        for (uint8_t p : split.train[i].pixels)
            if (p > 200)
                ++bright;
        EXPECT_GT(bright, 30) << "empty silhouette for class "
                              << split.train[i].label;
    }
}

TEST(SpokenDigits, GeometryAndClassSeparation)
{
    SpokenDigitsOptions opt;
    opt.trainSize = 200;
    opt.testSize = 50;
    const Split split = makeSpokenDigits(opt);
    EXPECT_EQ(split.train.width(), 13u);
    EXPECT_EQ(split.train.height(), 13u);
    // Mean images of two classes must differ substantially (the task is
    // learnable).
    std::vector<double> mean0(169, 0), mean1(169, 0);
    std::size_t n0 = 0, n1 = 0;
    for (std::size_t i = 0; i < split.train.size(); ++i) {
        const auto &s = split.train[i];
        if (s.label == 0) {
            ++n0;
            for (std::size_t k = 0; k < 169; ++k)
                mean0[k] += s.pixels[k];
        } else if (s.label == 1) {
            ++n1;
            for (std::size_t k = 0; k < 169; ++k)
                mean1[k] += s.pixels[k];
        }
    }
    ASSERT_GT(n0, 0u);
    ASSERT_GT(n1, 0u);
    double dist = 0;
    for (std::size_t k = 0; k < 169; ++k) {
        const double d = mean0[k] / static_cast<double>(n0) -
                         mean1[k] / static_cast<double>(n1);
        dist += d * d;
    }
    EXPECT_GT(std::sqrt(dist), 50.0);
}

TEST(IdxLoader, MissingDirectoryFailsCleanly)
{
    Split out;
    EXPECT_FALSE(loadMnistIdx("/nonexistent-dir-xyz", 10, 10, out));
}

} // namespace
} // namespace datasets
} // namespace neuro
