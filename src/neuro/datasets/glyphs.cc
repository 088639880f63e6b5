#include "neuro/datasets/glyphs.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "neuro/common/logging.h"
#include "neuro/common/parallel.h"

namespace neuro {
namespace datasets {

namespace {

/** std::floor for a float whose floor fits a long, without libm. */
inline long
floorToLong(float v)
{
    const long t = static_cast<long>(v); // truncates toward zero
    return t - (static_cast<float>(t) > v ? 1 : 0);
}

/** gaussian() draws rasterize() makes for one image. */
std::size_t
noiseDraws(std::size_t pixels, const AffineJitter &jitter)
{
    return jitter.noiseStddev > 0.0f ? pixels : 0;
}

/**
 * Common rasterization core: for each output pixel, map its centre back
 * into source space via the inverse affine transform and evaluate the
 * coverage function there; then apply noise and quantize into @p out.
 */
template <typename Coverage>
void
rasterize(const Coverage &coverage, std::size_t width, std::size_t height,
          const AffineJitter &jitter, Rng &rng, uint8_t *out)
{
    const float cx = static_cast<float>(width) * 0.5f;
    const float cy = static_cast<float>(height) * 0.5f;
    const float cosr = std::cos(jitter.rotation);
    const float sinr = std::sin(jitter.rotation);
    const float inv_scale = 1.0f / std::max(jitter.scale, 0.05f);

    for (std::size_t py = 0; py < height; ++py) {
        for (std::size_t px = 0; px < width; ++px) {
            // Output pixel centre, recentred and untranslated.
            float x = static_cast<float>(px) + 0.5f - cx - jitter.translateX;
            float y = static_cast<float>(py) + 0.5f - cy - jitter.translateY;
            // Inverse rotation.
            float rx = cosr * x + sinr * y;
            float ry = -sinr * x + cosr * y;
            // Inverse shear (forward transform applies x += shear*y).
            rx -= jitter.shear * ry;
            // Inverse scale.
            rx *= inv_scale;
            ry *= inv_scale;
            const float v = coverage(rx, ry);
            float lum = 255.0f * std::clamp(v, 0.0f, 1.0f);
            if (jitter.noiseStddev > 0.0f) {
                lum += static_cast<float>(
                    rng.gaussian(0.0, jitter.noiseStddev));
            }
            out[py * width + px] = static_cast<uint8_t>(
                std::clamp(lum, 0.0f, 255.0f));
        }
    }
}

/** Draw a random jitter within @p limits (six uniforms). */
AffineJitter
randomJitter(Rng &rng, const JitterLimits &limits)
{
    AffineJitter j;
    j.rotation = static_cast<float>(
        rng.uniform(-limits.maxRotation, limits.maxRotation));
    j.scale =
        static_cast<float>(rng.uniform(limits.minScale, limits.maxScale));
    j.shear =
        static_cast<float>(rng.uniform(-limits.maxShear, limits.maxShear));
    j.translateX = static_cast<float>(
        rng.uniform(-limits.maxTranslate, limits.maxTranslate));
    j.translateY = static_cast<float>(
        rng.uniform(-limits.maxTranslate, limits.maxTranslate));
    j.thickness = static_cast<float>(rng.uniform(0.0, limits.maxThickness));
    j.noiseStddev = limits.noiseStddev;
    return j;
}

/** One image's draw-pass results. */
struct ImageDraws
{
    int label = 0;
    AffineJitter jitter;
    Rng noise;                 ///< rng as the first noise draw finds it.
    uint8_t *pixels = nullptr; ///< the stored sample's pixel buffer.
};

/** Images per draw-then-render round of generateImages(); a round's
 *  draws (about 22 KB) fit on any thread's stack. */
constexpr std::size_t kRenderBlock = 256;

} // namespace

GlyphBitmap
GlyphBitmap::fromRows(const std::vector<std::string> &rows)
{
    NEURO_ASSERT(!rows.empty(), "glyph needs at least one row");
    GlyphBitmap g;
    g.height = rows.size();
    g.width = rows[0].size();
    const std::size_t stride = g.width + 2;
    g.ink.assign(stride * (g.height + 2), 0.0f);
    for (std::size_t y = 0; y < g.height; ++y) {
        NEURO_ASSERT(rows[y].size() == g.width, "ragged glyph rows");
        for (std::size_t x = 0; x < g.width; ++x)
            g.ink[(y + 1) * stride + x + 1] = rows[y][x] == '#' ? 1.0f : 0.0f;
    }
    return g;
}

float
GlyphBitmap::sample(float x, float y) const
{
    const float fx = x - 0.5f;
    const float fy = y - 0.5f;
    const long x0 = floorToLong(fx);
    const long y0 = floorToLong(fy);
    // No corner on the bitmap: every term below is a non-negative
    // weight times 0, so the sum is +0.
    if (x0 < -1 || y0 < -1 || x0 >= static_cast<long>(width) ||
        y0 >= static_cast<long>(height)) {
        return 0.0f;
    }
    const float ax = fx - static_cast<float>(x0);
    const float ay = fy - static_cast<float>(y0);
    // x0, y0 >= -1, so the border keeps all four corners in the array.
    const std::size_t stride = width + 2;
    const float *c = ink.data() + static_cast<std::size_t>(y0 + 1) * stride +
        static_cast<std::size_t>(x0 + 1);
    const float v00 = c[0];
    const float v10 = c[1];
    const float v01 = c[stride];
    const float v11 = c[stride + 1];
    return (1 - ax) * (1 - ay) * v00 + ax * (1 - ay) * v10 +
           (1 - ax) * ay * v01 + ax * ay * v11;
}

void
renderGlyph(const GlyphBitmap &glyph, std::size_t width, std::size_t height,
            const AffineJitter &jitter, Rng &rng, uint8_t *out)
{
    // The glyph occupies ~70% of the output tile, as MNIST digits do.
    const float gw = static_cast<float>(glyph.width);
    const float gh = static_cast<float>(glyph.height);
    const float tile = 0.7f * static_cast<float>(std::min(width, height));
    const float unit = tile / std::max(gw, gh);

    auto coverage = [&](float x, float y) {
        // Map centred pixel coordinates into glyph space.
        const float gx = x / unit + gw * 0.5f;
        const float gy = y / unit + gh * 0.5f;
        float v = glyph.sample(gx, gy);
        if (jitter.thickness > 0.0f) {
            // Dilate: max coverage over a small ring of offsets.
            const float r = jitter.thickness;
            static const float offs[4][2] = {
                {1.f, 0.f}, {-1.f, 0.f}, {0.f, 1.f}, {0.f, -1.f}};
            for (const auto &o : offs) {
                v = std::max(v,
                             glyph.sample(gx + o[0] * r, gy + o[1] * r));
            }
        }
        return v;
    };
    rasterize(coverage, width, height, jitter, rng, out);
}

void
renderSdf(float (*sdf)(float, float), std::size_t width, std::size_t height,
          const AffineJitter &jitter, Rng &rng, uint8_t *out)
{
    // The unit SDF domain spans ~80% of the tile; smooth the boundary by
    // about one pixel for anti-aliased edges.
    const float half = 0.4f * static_cast<float>(std::min(width, height));
    const float edge = 1.0f / half;
    auto coverage = [&](float x, float y) {
        const float d = sdf(x / half, y / half) - jitter.thickness * edge;
        // Smoothstep from d=+edge (outside) to d=-edge (inside).
        const float t = std::clamp((edge - d) / (2.0f * edge), 0.0f, 1.0f);
        return t * t * (3.0f - 2.0f * t);
    };
    rasterize(coverage, width, height, jitter, rng, out);
}

void
generateImages(Dataset &out, std::size_t count, const JitterLimits &limits,
               Rng &rng, const RenderFn &render)
{
    const std::size_t pixels = out.inputSize();
    const auto classes = static_cast<uint64_t>(out.numClasses());
    // Round scratch lives on the stack, so the heap sees what a serial
    // loop makes: one pixel buffer per image, appended in image order.
    std::array<ImageDraws, kRenderBlock> draws;
    for (std::size_t first = 0; first < count; first += kRenderBlock) {
        const std::size_t n = std::min(kRenderBlock, count - first);
        for (std::size_t i = 0; i < n; ++i) {
            ImageDraws &d = draws[i];
            Sample s;
            s.label = d.label = static_cast<int>(rng.uniformInt(classes));
            d.jitter = randomJitter(rng, limits);
            d.noise = rng;
            rng.discardGaussians(noiseDraws(pixels, d.jitter));
            s.pixels.resize(pixels);
            // Moving the sample into the dataset keeps its buffer.
            d.pixels = s.pixels.data();
            out.add(std::move(s));
        }
        parallelFor(0, n, [&](std::size_t i) {
            ImageDraws &d = draws[i];
            render(d.label, d.jitter, d.noise, d.pixels);
        });
    }
}

} // namespace datasets
} // namespace neuro
