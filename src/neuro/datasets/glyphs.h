/**
 * @file
 * Glyph rasterization shared by the synthetic digit and shape generators.
 * A glyph is a small binary bitmap (or a signed-distance function) that is
 * rendered into an 8-bit luminance image under a random affine transform
 * with stroke-thickness and noise jitter, producing MNIST-like variation.
 *
 * Both generators build their datasets through generateImages(): a serial
 * pass makes every draw from the shared generator except the per-pixel
 * noise, recording where each image's noise starts, and the images then
 * rasterize on the pool (docs/parallelism.md, "Dataset synthesis").
 */

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "neuro/common/rng.h"
#include "neuro/datasets/dataset.h"

namespace neuro {
namespace datasets {

/** A small binary bitmap glyph described by '#'/'.' rows. */
struct GlyphBitmap
{
    std::size_t width = 0;  ///< columns.
    std::size_t height = 0; ///< rows.
    /** Row-major occupancy, 1.0f for ink and 0.0f for empty, with a
     *  one-cell empty border: (width + 2) x (height + 2) cells, so
     *  sample() reads its four corners without bounds checks. */
    std::vector<float> ink;

    /** Parse from equal-length strings; '#' marks ink. */
    static GlyphBitmap fromRows(const std::vector<std::string> &rows);

    /**
     * Bilinear ink coverage at continuous glyph coordinates in
     * [0,width) x [0,height); returns a value in [0,1] (exactly +0
     * where no corner touches the bitmap).
     */
    float sample(float x, float y) const;
};

/** Parameters of a 2-D affine jitter applied when rasterizing. */
struct AffineJitter
{
    float rotation = 0.0f;    ///< radians.
    float scale = 1.0f;       ///< isotropic scale.
    float shear = 0.0f;       ///< x-shear coefficient.
    float translateX = 0.0f;  ///< pixels, output space.
    float translateY = 0.0f;  ///< pixels, output space.
    float thickness = 0.0f;   ///< extra stroke radius, glyph cells.
    float noiseStddev = 0.0f; ///< additive luminance noise (0..255 scale).
};

/** The extremes generateImages() draws each image's jitter within. */
struct JitterLimits
{
    float maxRotation = 0.0f;  ///< radians, symmetric.
    float minScale = 1.0f;     ///< smallest isotropic scale.
    float maxScale = 1.0f;     ///< largest isotropic scale.
    float maxShear = 0.0f;     ///< shear range, symmetric.
    float maxTranslate = 0.0f; ///< pixels, symmetric, per axis.
    float maxThickness = 0.0f; ///< stroke dilation, glyph cells.
    float noiseStddev = 0.0f;  ///< copied into every jitter.
};

/**
 * Rasterize @p glyph into a width x height 8-bit luminance image at
 * @p out under @p jitter. Ink is bright (towards 255) on a dark
 * background, matching MNIST's polarity. With noise on, it draws one
 * gaussian() from @p rng per pixel, in row-major order.
 */
void renderGlyph(const GlyphBitmap &glyph, std::size_t width,
                 std::size_t height, const AffineJitter &jitter, Rng &rng,
                 uint8_t *out);

/**
 * Rasterize a signed-distance function (negative inside) under @p jitter
 * into @p out, drawing noise as renderGlyph() does; the SDF is expressed
 * in a unit domain [-1,1]^2.
 */
void renderSdf(float (*sdf)(float, float), std::size_t width,
               std::size_t height, const AffineJitter &jitter, Rng &rng,
               uint8_t *out);

/**
 * Rasterizes one image of class @p label into @p pixels (the dataset's
 * geometry) through renderGlyph() or renderSdf(), drawing its noise
 * from @p noise. Called on pool workers: it may only read shared state.
 */
using RenderFn = std::function<void(int label, const AffineJitter &jitter,
                                    Rng &noise, uint8_t *pixels)>;

/**
 * Append @p count images to @p out. Each image's draws are those of a
 * serial loop over the images: a label uniform over out.numClasses(),
 * then a jitter within @p limits (six uniforms: rotation, scale, shear,
 * x and y translation, thickness), then the render's per-pixel noise.
 * A serial pass makes the first two, copies @p rng as the image's
 * noise stream and moves @p rng past the noise with discardGaussians();
 * the images then render in parallel from their copies. Images go in
 * rounds of a few hundred, each a draw pass then a render; pixel
 * buffers are allocated on the calling thread. The bytes equal the
 * serial loop's at any thread count, and @p rng ends where the loop
 * leaves it.
 */
void generateImages(Dataset &out, std::size_t count,
                    const JitterLimits &limits, Rng &rng,
                    const RenderFn &render);

} // namespace datasets
} // namespace neuro
