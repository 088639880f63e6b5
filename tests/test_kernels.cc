/**
 * @file
 * The unified SIMD kernel layer's contract suite (docs/kernels.md):
 * every dispatchable ISA level must be bit-identical to a hand-rolled
 * scalar reference of the documented summation schedule, over ragged
 * shapes that exercise unroll tails and row-block remainders. Also
 * covers lengths at the edges of the fixed-trip tiles, the q8
 * saturation edges, the strip/per-sample equivalence, dispatch
 * forcing (NEURO_SIMD=off and friends) and the kernel call counters.
 */

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "neuro/common/rng.h"
#include "neuro/kernels/kernels.h"
#include "neuro/telemetry/metrics.h"

namespace neuro {
namespace kernels {
namespace {

// ------------------------------------------------------- references
// Independent re-statements of the contract in docs/kernels.md. If a
// kernel body drifts from the documented schedule, these fail even
// when all ISA tables still agree with each other.

/** dotUnrolled's schedule: 4 partials, (a0+a1)+(a2+a3), then tail. */
float
refDot(const float *w, const float *x, std::size_t n)
{
    float a0 = 0.0f, a1 = 0.0f, a2 = 0.0f, a3 = 0.0f;
    std::size_t c = 0;
    for (; c + 4 <= n; c += 4) {
        a0 += w[c] * x[c];
        a1 += w[c + 1] * x[c + 1];
        a2 += w[c + 2] * x[c + 2];
        a3 += w[c + 3] * x[c + 3];
    }
    float acc = (a0 + a1) + (a2 + a3);
    for (; c < n; ++c)
        acc += w[c] * x[c];
    return acc;
}

void
refGemv(const std::vector<float> &w, std::size_t rows, std::size_t cols,
        const std::vector<float> &x, std::vector<float> &y)
{
    y.resize(rows);
    for (std::size_t r = 0; r < rows; ++r)
        y[r] = refDot(w.data() + r * cols, x.data(), cols);
}

void
refGemvBias(const std::vector<float> &w, std::size_t rows,
            std::size_t cols, const std::vector<float> &x,
            std::vector<float> &y)
{
    y.resize(rows);
    for (std::size_t r = 0; r < rows; ++r) {
        const float *wr = w.data() + r * cols;
        y[r] = refDot(wr, x.data(), cols - 1) + wr[cols - 1];
    }
}

/** gemvT's schedule: 4-row blocks, (p0+p1)+(p2+p3) per element, with
 *  the zero-input block/row skip. */
void
refGemvT(const std::vector<float> &w, std::size_t rows, std::size_t cols,
         const std::vector<float> &x, std::vector<float> &y)
{
    y.assign(cols, 0.0f);
    std::size_t r = 0;
    for (; r + 4 <= rows; r += 4) {
        const float x0 = x[r], x1 = x[r + 1];
        const float x2 = x[r + 2], x3 = x[r + 3];
        if (x0 == 0.0f && x1 == 0.0f && x2 == 0.0f && x3 == 0.0f)
            continue;
        for (std::size_t c = 0; c < cols; ++c) {
            y[c] += (w[r * cols + c] * x0 + w[(r + 1) * cols + c] * x1) +
                (w[(r + 2) * cols + c] * x2 + w[(r + 3) * cols + c] * x3);
        }
    }
    for (; r < rows; ++r) {
        if (x[r] == 0.0f)
            continue;
        for (std::size_t c = 0; c < cols; ++c)
            y[c] += w[r * cols + c] * x[r];
    }
}

void
refAddOuterBias(std::vector<float> &w, std::size_t rows,
                std::size_t cols, float eta, const std::vector<float> &d,
                const std::vector<float> &x)
{
    for (std::size_t r = 0; r < rows; ++r) {
        const float scale = eta * d[r];
        if (scale == 0.0f)
            continue;
        for (std::size_t c = 0; c + 1 < cols; ++c)
            w[r * cols + c] += scale * x[c];
        w[r * cols + cols - 1] += scale;
    }
}

/** addOuter's schedule: one scale per row, zero-scale rows skipped. */
void
refAddOuter(std::vector<float> &w, std::size_t rows, std::size_t cols,
            float eta, const std::vector<float> &d,
            const std::vector<float> &x)
{
    for (std::size_t r = 0; r < rows; ++r) {
        const float scale = eta * d[r];
        if (scale == 0.0f)
            continue;
        for (std::size_t c = 0; c < cols; ++c)
            w[r * cols + c] += scale * x[c];
    }
}

int32_t
refDotQ8(const int8_t *wr, const uint8_t *x, std::size_t fan_in)
{
    int32_t acc = static_cast<int32_t>(wr[fan_in]) * 255;
    for (std::size_t i = 0; i < fan_in; ++i)
        acc += static_cast<int32_t>(wr[i]) * x[i];
    return acc;
}

// --------------------------------------------------------- fixtures

/** Ragged shapes: unroll tails (every cols % 4 and (cols - 1) % 4
 *  with at least one full 8-row gemv block), row-block remainders on
 *  both sides of the 4-row strip and 8-row gemv blocks, degenerate
 *  single-row/column cases, and column counts below, at and above
 *  one and four 16-element tiles (gemvT, addOuter), including the
 *  SNN's 300-neuron row. */
const std::size_t kShapes[][2] = {
    {1, 1},   {1, 5},   {3, 2},    {4, 4},    {5, 3},
    {6, 15},  {6, 16},  {6, 63},   {6, 65},   {6, 300},
    {7, 17},  {8, 9},   {8, 785},  {9, 785},  {10, 101},
    {11, 787}, {15, 4}, {16, 5},   {16, 786}, {17, 33},
    {24, 101}, {33, 64}, {100, 785},
};

/** Float offsets of the weight matrix in its buffer: 1 misaligns
 *  every row start, covering the unaligned vector loads. */
const std::size_t kWeightOffsets[] = {0, 1};

class KernelsTest : public ::testing::Test
{
  protected:
    void TearDown() override { setSimdMode(SimdMode::Auto); }

    /**
     * Distinct ISA levels reachable on this machine/build: forcing a
     * level the CPU or the toolchain lacks falls back, so deduplicate
     * on the ISA actually selected. Always contains Scalar.
     */
    static std::vector<SimdMode>
    reachableModes()
    {
        std::vector<SimdMode> modes{SimdMode::Off};
        if (setSimdMode(SimdMode::Avx2) == SimdIsa::Avx2)
            modes.push_back(SimdMode::Avx2);
        if (setSimdMode(SimdMode::Avx512) == SimdIsa::Avx512)
            modes.push_back(SimdMode::Avx512);
        setSimdMode(SimdMode::Auto);
        return modes;
    }

    static std::vector<float>
    randomVec(Rng &rng, std::size_t n)
    {
        std::vector<float> v(n);
        for (auto &e : v)
            e = static_cast<float>(rng.uniform(-1.0, 1.0));
        return v;
    }
};

// ----------------------------------------------------- float kernels

TEST_F(KernelsTest, GemvMatchesReferenceAtEveryIsa)
{
    Rng rng(101);
    for (const auto &shape : kShapes) {
        const std::size_t rows = shape[0], cols = shape[1];
        const auto w = randomVec(rng, rows * cols);
        const auto x = randomVec(rng, cols);
        std::vector<float> expect;
        refGemv(w, rows, cols, x, expect);
        for (std::size_t offset : kWeightOffsets) {
            std::vector<float> buf(offset, 0.0f);
            buf.insert(buf.end(), w.begin(), w.end());
            for (SimdMode mode : reachableModes()) {
                setSimdMode(mode);
                std::vector<float> y(rows, -1.0f);
                gemv(buf.data() + offset, rows, cols, x.data(),
                     y.data());
                ASSERT_EQ(0, std::memcmp(expect.data(), y.data(),
                                         rows * sizeof(float)))
                    << "gemv " << rows << "x" << cols << " offset "
                    << offset << " differs at " << isaName(activeIsa());
            }
        }
    }
}

TEST_F(KernelsTest, GemvBiasMatchesReferenceAtEveryIsa)
{
    Rng rng(102);
    for (const auto &shape : kShapes) {
        const std::size_t rows = shape[0], cols = shape[1];
        const auto w = randomVec(rng, rows * cols);
        const auto x = randomVec(rng, cols - 1);
        std::vector<float> expect;
        refGemvBias(w, rows, cols, x, expect);
        for (std::size_t offset : kWeightOffsets) {
            std::vector<float> buf(offset, 0.0f);
            buf.insert(buf.end(), w.begin(), w.end());
            for (SimdMode mode : reachableModes()) {
                setSimdMode(mode);
                std::vector<float> y(rows, -1.0f);
                gemvBias(buf.data() + offset, rows, cols, x.data(),
                         y.data());
                ASSERT_EQ(0, std::memcmp(expect.data(), y.data(),
                                         rows * sizeof(float)))
                    << "gemvBias " << rows << "x" << cols << " offset "
                    << offset << " differs at " << isaName(activeIsa());
            }
        }
    }
}

TEST_F(KernelsTest, GemvTMatchesReferenceAtEveryIsa)
{
    Rng rng(103);
    for (const auto &shape : kShapes) {
        const std::size_t rows = shape[0], cols = shape[1];
        const auto w = randomVec(rng, rows * cols);
        auto x = randomVec(rng, rows);
        // Exercise the zero-skip: zero out some inputs (and one whole
        // aligned block of four when there is one).
        for (std::size_t r = 0; r < rows; r += 3)
            x[r] = 0.0f;
        if (rows >= 8)
            x[4] = x[5] = x[6] = x[7] = 0.0f;
        std::vector<float> expect;
        refGemvT(w, rows, cols, x, expect);
        for (SimdMode mode : reachableModes()) {
            setSimdMode(mode);
            std::vector<float> y(cols, -1.0f);
            gemvT(w.data(), rows, cols, x.data(), y.data());
            ASSERT_EQ(0, std::memcmp(expect.data(), y.data(),
                                     cols * sizeof(float)))
                << "gemvT " << rows << "x" << cols << " differs at "
                << isaName(activeIsa());
        }
    }
}

TEST_F(KernelsTest, StripSamplesMatchGemvBiasAtEveryIsa)
{
    Rng rng(104);
    for (const auto &shape : kShapes) {
        const std::size_t rows = shape[0], cols = shape[1];
        const auto w = randomVec(rng, rows * cols);
        // kStripWidth distinct samples, interleaved sample-minor.
        std::vector<std::vector<float>> xs;
        for (std::size_t b = 0; b < kStripWidth; ++b)
            xs.push_back(randomVec(rng, cols - 1));
        std::vector<float> strip((cols - 1) * kStripWidth);
        for (std::size_t k = 0; k + 1 < cols; ++k)
            for (std::size_t b = 0; b < kStripWidth; ++b)
                strip[k * kStripWidth + b] = xs[b][k];
        for (SimdMode mode : reachableModes()) {
            setSimdMode(mode);
            std::vector<float> out(rows * kStripWidth, -1.0f);
            gemvBiasStrip(w.data(), rows, cols, strip.data(),
                          out.data());
            for (std::size_t b = 0; b < kStripWidth; ++b) {
                std::vector<float> expect;
                refGemvBias(w, rows, cols, xs[b], expect);
                for (std::size_t r = 0; r < rows; ++r) {
                    ASSERT_EQ(expect[r], out[r * kStripWidth + b])
                        << "strip sample " << b << " row " << r
                        << " of " << rows << "x" << cols << " at "
                        << isaName(activeIsa());
                }
            }
        }
    }
}

TEST_F(KernelsTest, AddOuterBiasMatchesReferenceAtEveryIsa)
{
    Rng rng(105);
    for (const auto &shape : kShapes) {
        const std::size_t rows = shape[0], cols = shape[1];
        const auto w0 = randomVec(rng, rows * cols);
        auto d = randomVec(rng, rows);
        d[0] = 0.0f; // exercise the zero-delta row skip.
        const auto x = randomVec(rng, cols - 1);
        auto expect = w0;
        refAddOuterBias(expect, rows, cols, 0.25f, d, x);
        for (SimdMode mode : reachableModes()) {
            setSimdMode(mode);
            auto w = w0;
            addOuterBias(w.data(), rows, cols, 0.25f, d.data(),
                         x.data());
            ASSERT_EQ(0, std::memcmp(expect.data(), w.data(),
                                     w.size() * sizeof(float)))
                << "addOuterBias " << rows << "x" << cols
                << " differs at " << isaName(activeIsa());
        }
    }
}

TEST_F(KernelsTest, AddOuterMatchesReferenceAtEveryIsa)
{
    Rng rng(110);
    for (const auto &shape : kShapes) {
        const std::size_t rows = shape[0], cols = shape[1];
        const auto w0 = randomVec(rng, rows * cols);
        auto d = randomVec(rng, rows);
        d[0] = 0.0f; // exercise the zero-delta row skip.
        const auto x = randomVec(rng, cols);
        auto expect = w0;
        refAddOuter(expect, rows, cols, 0.25f, d, x);
        for (SimdMode mode : reachableModes()) {
            setSimdMode(mode);
            auto w = w0;
            addOuter(w.data(), rows, cols, 0.25f, d.data(), x.data());
            ASSERT_EQ(0, std::memcmp(expect.data(), w.data(),
                                     w.size() * sizeof(float)))
                << "addOuter " << rows << "x" << cols << " differs at "
                << isaName(activeIsa());
        }
    }
}

TEST_F(KernelsTest, AddRowF64MatchesReference)
{
    // Lengths below, at and above one and four 16-element tiles, and
    // the SNN's 300-neuron row.
    Rng rng(107);
    for (std::size_t n : {1, 7, 15, 16, 17, 63, 64, 65, 300, 301}) {
        const auto src = randomVec(rng, n);
        const auto dst0 = randomVec(rng, n);
        std::vector<double> acc0(n);
        for (std::size_t i = 0; i < n; ++i)
            acc0[i] = static_cast<double>(dst0[i]);
        std::vector<double> expect_d(acc0);
        for (std::size_t i = 0; i < n; ++i)
            expect_d[i] += static_cast<double>(src[i]);

        for (SimdMode mode : reachableModes()) {
            setSimdMode(mode);
            auto acc = acc0;
            addRowF64(acc.data(), src.data(), n);
            ASSERT_EQ(0, std::memcmp(expect_d.data(), acc.data(),
                                     n * sizeof(double)))
                << "addRowF64 n=" << n << " differs at "
                << isaName(activeIsa());
        }
    }
}

TEST_F(KernelsTest, LifStepMatchesReferenceAndFlagsAnyCrossing)
{
    // Every kShapes column count plus the tile edges and the SNN's
    // 300-neuron layer.
    std::vector<std::size_t> lengths{1, 15, 16, 17, 300};
    for (const auto &shape : kShapes)
        lengths.push_back(shape[1]);

    Rng rng(113);
    const double factor = 0.9875;
    for (std::size_t n : lengths) {
        std::vector<double> pot0(n), drive(n), none(n);
        for (std::size_t i = 0; i < n; ++i) {
            pot0[i] = rng.uniform(0.0, 1000.0);
            drive[i] = rng.uniform(0.0, 50.0);
        }
        std::vector<double> expect(pot0);
        for (std::size_t i = 0; i < n; ++i) {
            expect[i] = pot0[i] * factor + drive[i];
            none[i] = expect[i] + 1.0;
        }

        // Threshold sets: nothing crosses; the only crossing is the
        // last element (in the ragged tail when n % 16 != 0); the
        // only crossing is exactly pot == thr, at the first element.
        std::vector<double> last_only(none);
        last_only[n - 1] = expect[n - 1] - 1.0;
        std::vector<double> equal_first(none);
        equal_first[0] = expect[0];
        const std::pair<const std::vector<double> *, bool> cases[] = {
            {&none, false}, {&last_only, true}, {&equal_first, true}};

        for (SimdMode mode : reachableModes()) {
            setSimdMode(mode);
            for (const auto &[thr, crossed] : cases) {
                auto pot = pot0;
                EXPECT_EQ(crossed, lifStep(pot.data(), drive.data(),
                                           thr->data(), factor, n))
                    << "lifStep n=" << n << " at " << isaName(activeIsa());
                ASSERT_EQ(0, std::memcmp(expect.data(), pot.data(),
                                         n * sizeof(double)))
                    << "lifStep n=" << n << " differs at "
                    << isaName(activeIsa());
            }
        }
    }
}

// -------------------------------------------------- integer kernels

TEST_F(KernelsTest, Q8MatchesReferenceIncludingSaturationEdges)
{
    // Worst-case magnitudes: every weight at the int8 rails, every
    // activation at the uint8 rail — the exact-int32 accumulator must
    // carry |acc| = fan_in * 128 * 255 without wrapping.
    const std::size_t rows = 6, fan_in = 1000, cols = fan_in + 1;
    std::vector<int8_t> w(rows * cols);
    std::vector<uint8_t> x(fan_in, 255);
    for (std::size_t r = 0; r < rows; ++r) {
        const int8_t v = (r % 2 == 0) ? int8_t{-128} : int8_t{127};
        for (std::size_t c = 0; c < cols; ++c)
            w[r * cols + c] = v;
    }
    // Plus one mixed row exercising sign cancellation.
    for (std::size_t c = 0; c < cols; ++c)
        w[5 * cols + c] = static_cast<int8_t>((c * 37) % 255 - 128);

    std::vector<int32_t> expect(rows);
    for (std::size_t r = 0; r < rows; ++r)
        expect[r] = refDotQ8(w.data() + r * cols, x.data(), fan_in);
    EXPECT_EQ(expect[0], -128 * 255 - 128 * 255 * 1000);
    EXPECT_EQ(expect[1], 127 * 255 + 127 * 255 * 1000);

    for (SimdMode mode : reachableModes()) {
        setSimdMode(mode);
        std::vector<int32_t> y(rows, 0);
        gemvBiasQ8(w.data(), rows, cols, x.data(), y.data());
        EXPECT_EQ(expect, y) << "q8 differs at " << isaName(activeIsa());
    }

    // Ragged fan-ins against random codes, around the 64-code blocks.
    Rng rng(108);
    for (std::size_t fi : {1, 3, 17, 63, 64, 65, 127, 128, 129, 784}) {
        std::vector<int8_t> wr(fi + 1);
        std::vector<uint8_t> xr(fi);
        for (auto &v : wr)
            v = static_cast<int8_t>(rng.uniform(-128.0, 128.0));
        for (auto &v : xr)
            v = static_cast<uint8_t>(rng.uniform(0.0, 256.0));
        const int32_t want = refDotQ8(wr.data(), xr.data(), fi);
        for (SimdMode mode : reachableModes()) {
            setSimdMode(mode);
            int32_t got = 0;
            gemvBiasQ8(wr.data(), 1, fi + 1, xr.data(), &got);
            EXPECT_EQ(want, got) << "q8 fan-in " << fi << " at "
                                 << isaName(activeIsa());
        }
    }
}

TEST_F(KernelsTest, PopcountWordsMatchesReferenceAtEveryIsa)
{
    Rng rng(109);
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                          std::size_t{64}}) {
        std::vector<uint64_t> words(n);
        for (auto &w : words) {
            w = (rng.uniformInt(uint64_t{1} << 32) << 32) |
                rng.uniformInt(uint64_t{1} << 32);
        }
        if (n > 0) {
            words[0] = 0;
            words[n - 1] = ~uint64_t{0};
        }
        std::size_t expect = 0;
        for (uint64_t w : words) {
            for (; w != 0; w &= w - 1)
                ++expect;
        }
        for (SimdMode mode : reachableModes()) {
            setSimdMode(mode);
            EXPECT_EQ(expect, popcountWords(words.data(), n))
                << "popcount n=" << n << " at " << isaName(activeIsa());
        }
    }
}

// ----------------------------------------------- dispatch & metrics

TEST_F(KernelsTest, ForcingModesSelectsExpectedTables)
{
    // `off` must always pin the scalar table — the NEURO_SIMD=off
    // debugging contract.
    EXPECT_EQ(SimdIsa::Scalar, setSimdMode(SimdMode::Off));
    EXPECT_EQ(SimdIsa::Scalar, activeIsa());
    EXPECT_STREQ("scalar", isaName(activeIsa()));

    // Auto never selects something the CPU cannot run; forcing an
    // unavailable level falls back instead of crashing.
    const SimdIsa widest = setSimdMode(SimdMode::Auto);
    const SimdIsa forced512 = setSimdMode(SimdMode::Avx512);
    EXPECT_LE(static_cast<int>(forced512), static_cast<int>(SimdIsa::Avx512));
    setSimdMode(SimdMode::Auto);
    EXPECT_EQ(widest, activeIsa());
}

TEST_F(KernelsTest, ParseSimdModeCoversDocumentedSpellings)
{
    SimdMode mode = SimdMode::Auto;
    EXPECT_TRUE(parseSimdMode("off", &mode));
    EXPECT_EQ(SimdMode::Off, mode);
    EXPECT_TRUE(parseSimdMode("scalar", &mode));
    EXPECT_EQ(SimdMode::Off, mode);
    EXPECT_TRUE(parseSimdMode("avx2", &mode));
    EXPECT_EQ(SimdMode::Avx2, mode);
    EXPECT_TRUE(parseSimdMode("avx512", &mode));
    EXPECT_EQ(SimdMode::Avx512, mode);
    EXPECT_TRUE(parseSimdMode("auto", &mode));
    EXPECT_EQ(SimdMode::Auto, mode);
    EXPECT_FALSE(parseSimdMode("sse9", &mode));
    EXPECT_FALSE(parseSimdMode(nullptr, &mode));
}

TEST_F(KernelsTest, CallCountersAndIsaGaugeAreRegistered)
{
    auto &reg = telemetry::MetricRegistry::instance();
    const auto gemv_calls = reg.counter("kernels.gemv.calls");
    const auto gemvt_calls = reg.counter("kernels.gemvT.calls");
    const auto outer_calls = reg.counter("kernels.outer.calls");
    const auto pop_calls = reg.counter("kernels.popcount.calls");
    const auto isa_gauge = reg.gauge("kernels.dispatch.isa");

    const float w[2] = {1.0f, 2.0f};
    const float x[1] = {3.0f};
    float y[1] = {};
    const uint64_t before_gemv = gemv_calls->value();
    gemvBias(w, 1, 2, x, y);
    EXPECT_EQ(before_gemv + 1, gemv_calls->value());

    // gemvT counts its calls; the SNN drive row add is not gemvT work
    // and counts nothing (snn.input_spikes carries its call count).
    float yt[2] = {};
    const uint64_t before_gemvt = gemvt_calls->value();
    gemvT(w, 1, 2, x, yt);
    EXPECT_EQ(before_gemvt + 1, gemvt_calls->value());
    double acc[2] = {};
    addRowF64(acc, w, 2);
    EXPECT_EQ(before_gemvt + 1, gemvt_calls->value());

    float wo[2] = {0.0f, 0.0f};
    const float d[1] = {1.0f};
    const uint64_t before_outer = outer_calls->value();
    addOuterBias(wo, 1, 2, 0.5f, d, x);
    EXPECT_EQ(before_outer + 1, outer_calls->value());

    const uint64_t bits = 0xff;
    const uint64_t before_pop = pop_calls->value();
    EXPECT_EQ(std::size_t{8}, popcountWords(&bits, 1));
    EXPECT_EQ(before_pop + 1, pop_calls->value());

    // The gauge mirrors the active table (0=scalar, 1=avx2, 2=avx512).
    setSimdMode(SimdMode::Off);
    EXPECT_EQ(0.0, isa_gauge->value());
    const SimdIsa widest = setSimdMode(SimdMode::Auto);
    EXPECT_EQ(static_cast<double>(static_cast<int>(widest)),
              isa_gauge->value());
}

} // namespace
} // namespace kernels
} // namespace neuro
