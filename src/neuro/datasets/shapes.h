/**
 * @file
 * Synthetic object-silhouette workload: the offline stand-in for the
 * MPEG-7 CE Shape-1 Part-B benchmark used in the paper's Section 4.5.
 * Ten shape classes are defined as signed-distance functions and rendered
 * as binary-ish silhouettes at 28x28 under rotation/scale jitter, matching
 * the paper's network geometry (MLP 28x28-15-10, SNN 28x28-90).
 */

#pragma once

#include <cstdint>

#include "neuro/datasets/dataset.h"

namespace neuro {
namespace datasets {

/** Generation knobs for the shape workload. */
struct ShapesOptions
{
    std::size_t trainSize = 4000; ///< training samples.
    std::size_t testSize = 1000;  ///< test samples.
    uint64_t seed = 2;            ///< generator seed.
    std::size_t width = 28;       ///< image width.
    std::size_t height = 28;      ///< image height.
    float noiseStddev = 6.0f;     ///< additive luminance noise.
};

/** Number of shape classes. */
constexpr int kNumShapeClasses = 10;

/** Generate a train/test split of silhouettes. */
Split makeShapes(const ShapesOptions &options);

} // namespace datasets
} // namespace neuro

