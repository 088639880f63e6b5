// Tests for the MNIST IDX loader, using tiny IDX files generated on the
// fly: the success path, and corrupt or lying headers that must be
// rejected without allocating what they claim.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "neuro/datasets/idx_loader.h"

namespace neuro {
namespace datasets {
namespace {

void
writeU32(std::ofstream &out, uint32_t v)
{
    const unsigned char bytes[4] = {
        static_cast<unsigned char>(v >> 24),
        static_cast<unsigned char>(v >> 16),
        static_cast<unsigned char>(v >> 8),
        static_cast<unsigned char>(v)};
    out.write(reinterpret_cast<const char *>(bytes), 4);
}

void
writeImages(const std::string &path, uint32_t count, uint32_t rows,
            uint32_t cols, uint8_t fill)
{
    std::ofstream out(path, std::ios::binary);
    writeU32(out, 0x00000803);
    writeU32(out, count);
    writeU32(out, rows);
    writeU32(out, cols);
    for (uint32_t i = 0; i < count * rows * cols; ++i)
        out.put(static_cast<char>(fill + i % 7));
}

/** Write an idx3 header claiming @p count images of @p rows x @p cols
 *  pixels, followed by only @p bytes pixel bytes. */
void
writeImageHeader(const std::string &path, uint32_t count, uint32_t rows,
                 uint32_t cols, uint32_t bytes)
{
    std::ofstream out(path, std::ios::binary);
    writeU32(out, 0x00000803);
    writeU32(out, count);
    writeU32(out, rows);
    writeU32(out, cols);
    for (uint32_t i = 0; i < bytes; ++i)
        out.put(static_cast<char>(i % 7));
}

void
writeLabels(const std::string &path, uint32_t count, int modulo)
{
    std::ofstream out(path, std::ios::binary);
    writeU32(out, 0x00000801);
    writeU32(out, count);
    for (uint32_t i = 0; i < count; ++i)
        out.put(static_cast<char>(i % static_cast<uint32_t>(modulo)));
}

class IdxFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Unique per process: ctest runs each case as its own process,
        // possibly in parallel, and TearDown removes the directory.
        dir_ = "/tmp/neuro_idx_test." +
               std::to_string(static_cast<long>(::getpid()));
        std::filesystem::create_directories(dir_);
        writeImages(dir_ + "/train-images-idx3-ubyte", 12, 4, 4, 10);
        writeLabels(dir_ + "/train-labels-idx1-ubyte", 12, 10);
        writeImages(dir_ + "/t10k-images-idx3-ubyte", 5, 4, 4, 50);
        writeLabels(dir_ + "/t10k-labels-idx1-ubyte", 5, 10);
    }

    void
    TearDown() override
    {
        std::filesystem::remove_all(dir_);
    }

    std::string dir_;
};

TEST_F(IdxFixture, LoadsFullFiles)
{
    Split split;
    ASSERT_TRUE(loadMnistIdx(dir_, 0, 0, split));
    EXPECT_EQ(split.train.size(), 12u);
    EXPECT_EQ(split.test.size(), 5u);
    EXPECT_EQ(split.train.width(), 4u);
    EXPECT_EQ(split.train.height(), 4u);
    EXPECT_EQ(split.train[0].label, 0);
    EXPECT_EQ(split.train[3].label, 3);
    EXPECT_EQ(split.train[0].pixels[0], 10);
}

TEST_F(IdxFixture, TruncatesToRequestedSizes)
{
    Split split;
    ASSERT_TRUE(loadMnistIdx(dir_, 7, 3, split));
    EXPECT_EQ(split.train.size(), 7u);
    EXPECT_EQ(split.test.size(), 3u);
}

TEST_F(IdxFixture, RejectsCorruptMagic)
{
    // Corrupt the training images magic number.
    std::ofstream out(dir_ + "/train-images-idx3-ubyte",
                      std::ios::binary);
    writeU32(out, 0xdeadbeef);
    out.close();
    Split split;
    EXPECT_FALSE(loadMnistIdx(dir_, 0, 0, split));
}

TEST_F(IdxFixture, RejectsOutOfRangeLabels)
{
    writeLabels(dir_ + "/train-labels-idx1-ubyte", 12, 100); // >9.
    Split split;
    EXPECT_FALSE(loadMnistIdx(dir_, 0, 0, split));
}

TEST_F(IdxFixture, RejectsImageCountBeyondFile)
{
    // 2^32 - 1 images of 4x4 claimed, 12 present.
    writeImageHeader(dir_ + "/train-images-idx3-ubyte", 0xFFFFFFFFu, 4, 4,
                     12 * 16);
    Split split;
    EXPECT_FALSE(loadMnistIdx(dir_, 0, 0, split));
}

TEST_F(IdxFixture, RejectsImageSizeBeyondFile)
{
    // 12 images of 65535x65535 pixels claimed, 12 x 4x4 present.
    writeImageHeader(dir_ + "/train-images-idx3-ubyte", 12, 0xFFFFu,
                     0xFFFFu, 12 * 16);
    Split split;
    EXPECT_FALSE(loadMnistIdx(dir_, 0, 0, split));
}

TEST_F(IdxFixture, RejectsLabelFileShorterThanItsCount)
{
    // 2^32 - 1 labels claimed, 12 present.
    {
        std::ofstream out(dir_ + "/train-labels-idx1-ubyte", std::ios::binary);
        writeU32(out, 0x00000801);
        writeU32(out, 0xFFFFFFFFu);
        for (int i = 0; i < 12; ++i)
            out.put(static_cast<char>(i % 10));
    }
    Split split;
    EXPECT_FALSE(loadMnistIdx(dir_, 0, 0, split));
}

} // namespace
} // namespace datasets
} // namespace neuro
