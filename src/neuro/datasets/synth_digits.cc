#include "neuro/datasets/synth_digits.h"

#include <array>
#include <cstdlib>

#include "neuro/common/logging.h"
#include "neuro/common/rng.h"
#include "neuro/datasets/glyphs.h"
#include "neuro/datasets/idx_loader.h"

namespace neuro {
namespace datasets {

namespace {

/** The ten digit prototypes, 8x12 binary bitmaps. */
const std::array<std::vector<std::string>, 10> kDigitRows = {{
    {
        "..####..", ".##..##.", "##....##", "##....##", "##....##",
        "##....##", "##....##", "##....##", "##....##", "##....##",
        ".##..##.", "..####..",
    },
    {
        "...##...", "..###...", ".####...", "...##...", "...##...",
        "...##...", "...##...", "...##...", "...##...", "...##...",
        "...##...", ".######.",
    },
    {
        "..####..", ".##..##.", "##....##", "......##", ".....##.",
        "....##..", "...##...", "..##....", ".##.....", "##......",
        "##......", "########",
    },
    {
        "..####..", ".##..##.", "......##", "......##", ".....##.",
        "..####..", ".....##.", "......##", "......##", "......##",
        ".##..##.", "..####..",
    },
    {
        ".....##.", "....###.", "...####.", "..##.##.", ".##..##.",
        "##...##.", "##...##.", "########", ".....##.", ".....##.",
        ".....##.", ".....##.",
    },
    {
        "########", "##......", "##......", "##......", "######..",
        "......##", "......##", "......##", "......##", "......##",
        ".##..##.", "..####..",
    },
    {
        "..####..", ".##..##.", "##......", "##......", "######..",
        "###..##.", "##....##", "##....##", "##....##", "##....##",
        ".##..##.", "..####..",
    },
    {
        "########", "......##", ".....##.", ".....##.", "....##..",
        "....##..", "...##...", "...##...", "..##....", "..##....",
        "..##....", "..##....",
    },
    {
        "..####..", ".##..##.", "##....##", "##....##", ".##..##.",
        "..####..", ".##..##.", "##....##", "##....##", "##....##",
        ".##..##.", "..####..",
    },
    {
        "..####..", ".##..##.", "##....##", "##....##", "##....##",
        "##....##", ".##.###.", "..##.##.", "......##", "......##",
        ".##..##.", "..####..",
    },
}};

} // namespace

Split
makeSynthDigits(const SynthDigitsOptions &options)
{
    std::array<GlyphBitmap, 10> glyphs;
    for (std::size_t d = 0; d < 10; ++d)
        glyphs[d] = GlyphBitmap::fromRows(kDigitRows[d]);

    JitterLimits limits;
    limits.maxRotation = options.maxRotation;
    limits.minScale = options.minScale;
    limits.maxScale = options.maxScale;
    limits.maxShear = options.maxShear;
    limits.maxTranslate = options.maxTranslate;
    limits.maxThickness = options.maxThickness;
    limits.noiseStddev = options.noiseStddev;
    const RenderFn render = [&](int label, const AffineJitter &jitter,
                                Rng &noise, uint8_t *pixels) {
        renderGlyph(glyphs[static_cast<std::size_t>(label)], options.width,
                    options.height, jitter, noise, pixels);
    };

    Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + 17);
    Split split;
    split.train = Dataset("synth-digits-train", options.width,
                          options.height, 10);
    split.test = Dataset("synth-digits-test", options.width, options.height,
                         10);
    generateImages(split.train, options.trainSize, limits, rng, render);
    generateImages(split.test, options.testSize, limits, rng, render);
    return split;
}

Split
mnistLike(std::size_t train_size, std::size_t test_size, uint64_t seed)
{
    if (const char *dir = std::getenv("NEURO_MNIST_DIR")) {
        Split real;
        if (loadMnistIdx(dir, train_size, test_size, real)) {
            inform("using real MNIST from %s (%zu train / %zu test)", dir,
                   real.train.size(), real.test.size());
            return real;
        }
        warn("NEURO_MNIST_DIR=%s set but IDX files unreadable; "
             "falling back to synthetic digits", dir);
    }
    SynthDigitsOptions opt;
    opt.trainSize = train_size;
    opt.testSize = test_size;
    opt.seed = seed;
    return makeSynthDigits(opt);
}

} // namespace datasets
} // namespace neuro
