#include "neuro/datasets/shapes.h"

#include <array>
#include <cmath>

#include "neuro/common/rng.h"
#include "neuro/datasets/glyphs.h"

namespace neuro {
namespace datasets {

namespace {

float
length(float x, float y)
{
    return std::sqrt(x * x + y * y);
}

/** Disc of radius 0.8. */
float
sdfDisc(float x, float y)
{
    return length(x, y) - 0.8f;
}

/** Ring (annulus) centred at radius 0.62. */
float
sdfRing(float x, float y)
{
    return std::fabs(length(x, y) - 0.62f) - 0.2f;
}

/** Axis-aligned square. */
float
sdfSquare(float x, float y)
{
    const float dx = std::fabs(x) - 0.65f;
    const float dy = std::fabs(y) - 0.65f;
    const float ox = std::max(dx, 0.0f);
    const float oy = std::max(dy, 0.0f);
    return length(ox, oy) + std::min(std::max(dx, dy), 0.0f);
}

/** Equilateral-ish triangle pointing up. */
float
sdfTriangle(float x, float y)
{
    const float k = std::sqrt(3.0f);
    x = std::fabs(x) - 0.7f;
    y = y + 0.7f / k + 0.25f;
    if (x + k * y > 0.0f) {
        const float nx = (x - k * y) / 2.0f;
        const float ny = (-k * x - y) / 2.0f;
        x = nx;
        y = ny;
    }
    x -= std::clamp(x, -1.4f, 0.0f);
    return -length(x, y) * (y < 0.0f ? -1.0f : 1.0f);
}

/** Five-pointed star (angular modulation of the radius). */
float
sdfStar(float x, float y)
{
    const float r = length(x, y);
    const float theta = std::atan2(y, x);
    const float radius = 0.45f + 0.32f * std::cos(5.0f * theta);
    return r - radius;
}

/** Plus / cross. */
float
sdfCross(float x, float y)
{
    const float ax = std::fabs(x);
    const float ay = std::fabs(y);
    const float bar1 = std::max(ax - 0.8f, ay - 0.25f);
    const float bar2 = std::max(ay - 0.8f, ax - 0.25f);
    return std::min(bar1, bar2);
}

/** Horizontal ellipse. */
float
sdfEllipse(float x, float y)
{
    // Approximate SDF: scaled-space distance.
    const float k = length(x / 0.85f, y / 0.45f);
    return (k - 1.0f) * 0.45f;
}

/** Crescent: disc minus offset disc. */
float
sdfCrescent(float x, float y)
{
    const float outer = length(x, y) - 0.75f;
    const float inner = length(x - 0.38f, y) - 0.62f;
    return std::max(outer, -inner);
}

/** "H" bars shape (two verticals plus crossbar). */
float
sdfH(float x, float y)
{
    const float left = std::max(std::fabs(x + 0.5f) - 0.18f,
                                std::fabs(y) - 0.75f);
    const float right = std::max(std::fabs(x - 0.5f) - 0.18f,
                                 std::fabs(y) - 0.75f);
    const float bar = std::max(std::fabs(x) - 0.55f,
                               std::fabs(y) - 0.16f);
    return std::min(std::min(left, right), bar);
}

/** Diamond (rotated square / L1 ball). */
float
sdfDiamond(float x, float y)
{
    return (std::fabs(x) + std::fabs(y)) - 0.85f;
}

using Sdf = float (*)(float, float);

const std::array<Sdf, kNumShapeClasses> kShapeSdfs = {
    sdfDisc,  sdfRing,    sdfSquare,   sdfTriangle, sdfStar,
    sdfCross, sdfEllipse, sdfCrescent, sdfH,        sdfDiamond,
};

} // namespace

Split
makeShapes(const ShapesOptions &options)
{
    JitterLimits limits;
    limits.maxRotation = 0.6f;
    limits.minScale = 0.75f;
    limits.maxScale = 1.1f;
    limits.maxShear = 0.12f;
    limits.maxTranslate = 1.5f;
    limits.noiseStddev = options.noiseStddev;
    const RenderFn render = [&](int label, const AffineJitter &jitter,
                                Rng &noise, uint8_t *pixels) {
        renderSdf(kShapeSdfs[static_cast<std::size_t>(label)], options.width,
                  options.height, jitter, noise, pixels);
    };

    Rng rng(options.seed * 0xd1342543de82ef95ULL + 29);
    Split split;
    split.train = Dataset("shapes-train", options.width, options.height,
                          kNumShapeClasses);
    split.test = Dataset("shapes-test", options.width, options.height,
                         kNumShapeClasses);
    generateImages(split.train, options.trainSize, limits, rng, render);
    generateImages(split.test, options.testSize, limits, rng, render);
    return split;
}

} // namespace datasets
} // namespace neuro
