// Tests for the ASCII-art and PGM rendering helpers.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "neuro/common/ascii_art.h"
#include "neuro/common/pgm.h"

namespace neuro {
namespace {

TEST(AsciiArt, ShapeAndRamp)
{
    const float data[6] = {0.0f, 0.5f, 1.0f, 1.0f, 0.5f, 0.0f};
    const std::string out = renderAscii(data, 3, 2);
    // 2 lines of 3 chars + newlines.
    EXPECT_EQ(out.size(), 2u * 4u);
    EXPECT_EQ(out[0], ' ');  // minimum maps to blank.
    EXPECT_EQ(out[2], '@');  // maximum maps to densest glyph.
    EXPECT_EQ(out[3], '\n');
}

TEST(AsciiArt, ConstantImageDoesNotDivideByZero)
{
    const float data[4] = {5.0f, 5.0f, 5.0f, 5.0f};
    const std::string out = renderAscii(data, 2, 2);
    EXPECT_EQ(out[0], ' ');
}

TEST(AsciiArt, RowLaysImagesSideBySide)
{
    const float a[4] = {0, 0, 0, 0};
    const float b[4] = {1, 1, 1, 1};
    const float *imgs[2] = {a, b};
    const std::string out = renderAsciiRow(imgs, 2, 2, 2, 3);
    // Each line: 2 + 3 gap + 2 chars + newline.
    std::istringstream lines(out);
    std::string line;
    int count = 0;
    while (std::getline(lines, line)) {
        EXPECT_EQ(line.size(), 7u);
        ++count;
    }
    EXPECT_EQ(count, 2);
}

TEST(Pgm, WritesValidHeaderAndPayload)
{
    const std::string path = "/tmp/neuro_test.pgm";
    const uint8_t data[6] = {0, 50, 100, 150, 200, 250};
    ASSERT_TRUE(writePgm(path, data, 3, 2));
    std::ifstream in(path, std::ios::binary);
    std::string magic;
    in >> magic;
    EXPECT_EQ(magic, "P5");
    int w = 0, h = 0, maxval = 0;
    in >> w >> h >> maxval;
    EXPECT_EQ(w, 3);
    EXPECT_EQ(h, 2);
    EXPECT_EQ(maxval, 255);
    in.get(); // single whitespace after header.
    char payload[6];
    ASSERT_TRUE(in.read(payload, 6));
    EXPECT_EQ(static_cast<uint8_t>(payload[5]), 250);
    std::remove(path.c_str());
}

TEST(Pgm, NormalizedWriteSpansFullRange)
{
    const std::string path = "/tmp/neuro_test_norm.pgm";
    const float data[4] = {-1.0f, 0.0f, 1.0f, 3.0f};
    ASSERT_TRUE(writePgmNormalized(path, data, 2, 2));
    std::ifstream in(path, std::ios::binary);
    std::string line;
    std::getline(in, line); // P5
    std::getline(in, line); // dims
    std::getline(in, line); // maxval
    char payload[4];
    ASSERT_TRUE(in.read(payload, 4));
    EXPECT_EQ(static_cast<uint8_t>(payload[0]), 0);
    EXPECT_EQ(static_cast<uint8_t>(payload[3]), 255);
    std::remove(path.c_str());
}

TEST(Pgm, BadPathFails)
{
    const uint8_t data[1] = {1};
    EXPECT_FALSE(writePgm("/no-such-dir-xyz/a.pgm", data, 1, 1));
}

} // namespace
} // namespace neuro
