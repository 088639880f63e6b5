#include "neuro/common/ascii_art.h"

#include <algorithm>
#include <vector>

#include "neuro/common/logging.h"

namespace neuro {

namespace {

const char kRamp[] = " .:-=+*#%@";
constexpr std::size_t kRampSize = sizeof(kRamp) - 2; // max index.

char
toChar(float v, float lo, float hi)
{
    if (hi <= lo)
        return kRamp[0];
    const float t = std::clamp((v - lo) / (hi - lo), 0.0f, 1.0f);
    return kRamp[static_cast<std::size_t>(
        t * static_cast<float>(kRampSize) + 0.5f)];
}

} // namespace

std::string
renderAscii(const float *data, std::size_t width, std::size_t height)
{
    NEURO_ASSERT(width > 0 && height > 0, "empty image");
    float lo = data[0], hi = data[0];
    for (std::size_t i = 1; i < width * height; ++i) {
        lo = std::min(lo, data[i]);
        hi = std::max(hi, data[i]);
    }
    std::string out;
    out.reserve(height * (width + 1));
    for (std::size_t y = 0; y < height; ++y) {
        for (std::size_t x = 0; x < width; ++x)
            out.push_back(toChar(data[y * width + x], lo, hi));
        out.push_back('\n');
    }
    return out;
}

std::string
renderAsciiRow(const float *const *images, std::size_t count,
               std::size_t width, std::size_t height, std::size_t gap)
{
    NEURO_ASSERT(count > 0, "no images");
    std::vector<std::string> rendered;
    rendered.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        rendered.push_back(renderAscii(images[i], width, height));

    std::string out;
    for (std::size_t y = 0; y < height; ++y) {
        for (std::size_t i = 0; i < count; ++i) {
            out.append(rendered[i], y * (width + 1), width);
            if (i + 1 < count)
                out.append(gap, ' ');
        }
        out.push_back('\n');
    }
    return out;
}

} // namespace neuro
