/**
 * @file
 * Terminal rendering of images and receptive fields: a luminance ramp
 * over a fixed character palette. Used by the inspection tools to show
 * learned STDP receptive fields.
 */

#pragma once

#include <cstddef>
#include <string>

namespace neuro {

/**
 * Render a row-major float image as ASCII; values are min/max
 * normalized over the image before mapping to the ramp " .:-=+*#%@".
 */
std::string renderAscii(const float *data, std::size_t width,
                        std::size_t height);

/**
 * Render several same-sized float images side by side (e.g. a row of
 * receptive fields), separated by @p gap spaces.
 */
std::string renderAsciiRow(const float *const *images,
                           std::size_t count, std::size_t width,
                           std::size_t height, std::size_t gap = 2);

} // namespace neuro

