// Tests for the dataset container and the three synthetic workload
// generators (MNIST / MPEG-7 / SAD stand-ins).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <utility>
#include <vector>

#include "neuro/common/parallel.h"
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

TEST(Dataset, NormalizedMapsEveryByteExactly)
{
    // A 16x16 image holds every byte value once (whole 16-pixel
    // tiles); a 5x3 one covers the scalar tail.
    for (const auto &[w, h] : {std::pair<std::size_t, std::size_t>{16, 16},
                               {5, 3}}) {
        Dataset d("bytes", w, h, 1);
        Sample s;
        for (std::size_t k = 0; k < w * h; ++k)
            s.pixels.push_back(static_cast<uint8_t>(255 - k));
        d.add(s);
        std::vector<float> out(w * h);
        d.normalized(0, out.data());
        for (std::size_t k = 0; k < w * h; ++k) {
            const float expect =
                static_cast<float>(s.pixels[k]) / 255.0f;
            EXPECT_EQ(0, std::memcmp(&expect, &out[k], sizeof(float)))
                << "byte " << int{s.pixels[k]};
        }
    }
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

/** Occupancy at (x,y) read through the bitmap's border; out-of-range
 *  coordinates are empty. */
bool
inkAt(const GlyphBitmap &g, long x, long y)
{
    if (x < 0 || y < 0 || x >= static_cast<long>(g.width) ||
        y >= static_cast<long>(g.height)) {
        return false;
    }
    return g.ink[static_cast<std::size_t>(y + 1) * (g.width + 2) +
                 static_cast<std::size_t>(x + 1)] != 0.0f;
}

TEST(GlyphBitmap, ParseAndSample)
{
    const GlyphBitmap g = GlyphBitmap::fromRows({"#.", ".#"});
    EXPECT_EQ(g.width, 2u);
    EXPECT_EQ(g.height, 2u);
    EXPECT_TRUE(inkAt(g, 0, 0));
    EXPECT_FALSE(inkAt(g, 1, 0));
    EXPECT_FALSE(inkAt(g, -1, 0));
    // The one-cell border around the 2x2 cells is empty.
    ASSERT_EQ(g.ink.size(), 16u);
    for (std::size_t i : {0u, 1u, 2u, 3u, 4u, 7u, 8u, 11u, 12u, 13u, 14u, 15u})
        EXPECT_EQ(g.ink[i], 0.0f) << i;
    // Centre of the ink cell has full coverage.
    EXPECT_NEAR(g.sample(0.5f, 0.5f), 1.0f, 1e-5);
    EXPECT_NEAR(g.sample(1.5f, 0.5f), 0.0f, 1e-5);
}

TEST(GlyphBitmap, SampleEqualsBoundsCheckedBilinear)
{
    const GlyphBitmap g = GlyphBitmap::fromRows({"##.", ".#.", "#.#"});
    // Reference: std::floor and bounds-checked reads, as sample() read
    // the bitmap before its border and corner early-out.
    auto reference = [&g](float x, float y) {
        const float fx = x - 0.5f;
        const float fy = y - 0.5f;
        const long x0 = static_cast<long>(std::floor(fx));
        const long y0 = static_cast<long>(std::floor(fy));
        const float ax = fx - static_cast<float>(x0);
        const float ay = fy - static_cast<float>(y0);
        const float v00 = inkAt(g, x0, y0) ? 1.0f : 0.0f;
        const float v10 = inkAt(g, x0 + 1, y0) ? 1.0f : 0.0f;
        const float v01 = inkAt(g, x0, y0 + 1) ? 1.0f : 0.0f;
        const float v11 = inkAt(g, x0 + 1, y0 + 1) ? 1.0f : 0.0f;
        return (1 - ax) * (1 - ay) * v00 + ax * (1 - ay) * v10 +
               (1 - ax) * ay * v01 + ax * ay * v11;
    };
    // Steps of 1/8 land on cell edges and centres; the odd offset
    // lands between them, on both sides of zero.
    for (float step : {0.125f, 0.37f}) {
        for (float y = -3.0f; y <= 6.0f; y += step) {
            for (float x = -3.0f; x <= 6.0f; x += step) {
                const float want = reference(x, y);
                const float got = g.sample(x, y);
                ASSERT_EQ(std::signbit(got), std::signbit(want))
                    << x << "," << y;
                ASSERT_EQ(got, want) << x << "," << y;
            }
        }
    }
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

// Golden FNV-1a hashes over every label and pixel, computed with the
// serial draw-and-render loop the generators used before they rendered
// on the pool. Like CI's byte comparison of the paper CSVs, they
// assume GCC 12.2's float results (libm sin/cos/log/sqrt included).

uint64_t
splitHash(const Split &split)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](uint8_t byte) {
        h ^= byte;
        h *= 0x100000001b3ULL;
    };
    for (const Dataset *d : {&split.train, &split.test}) {
        for (std::size_t i = 0; i < d->size(); ++i) {
            mix(static_cast<uint8_t>((*d)[i].label));
            for (uint8_t p : (*d)[i].pixels)
                mix(p);
        }
    }
    return h;
}

struct GoldenCase
{
    const char *name;
    std::function<Split()> make;
    uint64_t hash;
};

Split
digits(std::size_t train, std::size_t test, uint64_t seed,
       std::size_t side = 28)
{
    SynthDigitsOptions opt;
    opt.trainSize = train;
    opt.testSize = test;
    opt.seed = seed;
    opt.width = opt.height = side;
    return makeSynthDigits(opt);
}

std::vector<GoldenCase>
goldenCases()
{
    return {
        {"digits seed 1", [] { return digits(1000, 500, 1); },
         0x6cc3a3fc6a623fecULL},
        {"digits seed 2", [] { return digits(1000, 500, 2); },
         0x07adbe3f882ed1a6ULL},
        // 729 pixels per image: an odd number of noise draws, so the
        // Box-Muller cache carries from each image into the next.
        {"digits 27x27", [] { return digits(301, 99, 3, 27); },
         0x6768c2d7a14bb18bULL},
        {"shapes",
         [] {
             ShapesOptions opt;
             opt.trainSize = 400;
             opt.testSize = 100;
             opt.seed = 5;
             return makeShapes(opt);
         },
         0x1096e8f24fcc2387ULL},
    };
}

TEST(GeneratorGolden, SameBytesAtAnyThreadCount)
{
    const std::size_t saved = parallelThreadCount();
    for (std::size_t threads : {1u, 2u, 4u}) {
        setParallelThreadCount(threads);
        for (const GoldenCase &c : goldenCases())
            EXPECT_EQ(splitHash(c.make()), c.hash)
                << c.name << " at " << threads << " threads";
    }
    setParallelThreadCount(saved);
}

TEST(GeneratorGolden, SameBytesInsideAPoolTask)
{
    const std::size_t saved = parallelThreadCount();
    setParallelThreadCount(4);
    const std::vector<GoldenCase> cases = goldenCases();
    // Each generator runs inline on the thread that took its task.
    const std::vector<uint64_t> hashes =
        parallelMap<uint64_t>(cases.size(), [&](std::size_t i) {
            return splitHash(cases[i].make());
        });
    setParallelThreadCount(saved);
    for (std::size_t i = 0; i < cases.size(); ++i)
        EXPECT_EQ(hashes[i], cases[i].hash) << cases[i].name;
}

TEST(GeneratorGolden, MlpBenchmarkSplit)
{
    // The 4,000/2,000 split the MLP pipeline benchmark trains on.
    EXPECT_EQ(splitHash(digits(4000, 2000, 1)), 0xe220a1efc0327a64ULL);
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
