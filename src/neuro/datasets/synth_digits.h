/**
 * @file
 * Synthetic handwritten-digit workload: the offline stand-in for MNIST.
 *
 * Ten digit glyphs are rasterized at 28x28 under per-sample affine jitter
 * (rotation, scale, shear, translation), stroke-thickness variation and
 * additive luminance noise, reproducing the statistical character of
 * MNIST (8-bit greyscale, centred digits, ~70% occupancy) so that every
 * model comparison in the paper can be rerun without the original files.
 * If a real MNIST directory is available (NEURO_MNIST_DIR), callers can
 * prefer it via mnistLike().
 *
 * All draws come from one generator seeded by the options' seed, in the
 * order of a serial image-by-image loop; the images render on the pool
 * (generateImages() in glyphs.h), and every byte is the same at any
 * thread count.
 */

#pragma once

#include <cstdint>

#include "neuro/datasets/dataset.h"

namespace neuro {
namespace datasets {

/** Generation knobs for the synthetic digit workload. */
struct SynthDigitsOptions
{
    std::size_t trainSize = 10000;  ///< training samples.
    std::size_t testSize = 2000;    ///< test samples.
    uint64_t seed = 1;              ///< generator seed.
    std::size_t width = 28;         ///< image width.
    std::size_t height = 28;        ///< image height.
    float maxRotation = 0.22f;      ///< radians (~12.5 degrees).
    float minScale = 0.85f;         ///< smallest glyph scale.
    float maxScale = 1.10f;         ///< largest glyph scale.
    float maxShear = 0.18f;         ///< shear range.
    float maxTranslate = 1.6f;      ///< pixels.
    float maxThickness = 0.45f;     ///< stroke dilation, glyph cells.
    float noiseStddev = 8.0f;       ///< luminance noise (0..255).
};

/** Generate a train/test split of synthetic digits. */
Split makeSynthDigits(const SynthDigitsOptions &options);

/**
 * The project's "MNIST" workload: real MNIST if NEURO_MNIST_DIR points at
 * the IDX files, otherwise the synthetic generator above with the given
 * sizes. Both paths produce 28x28, 10-class, 8-bit data.
 */
Split mnistLike(std::size_t train_size, std::size_t test_size,
                uint64_t seed);

} // namespace datasets
} // namespace neuro

