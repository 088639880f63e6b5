// Tests for the Archive container and the model save/load round trips.

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include "neuro/common/rng.h"
#include "neuro/common/serialize.h"
#include "neuro/datasets/synth_digits.h"
#include "neuro/mlp/backprop.h"
#include "neuro/snn/serialize.h"
#include "neuro/snn/snn_wot.h"

namespace neuro {
namespace {

TEST(Archive, PutAndGet)
{
    Archive archive;
    archive.putFloats("w", {1.0f, 2.0f});
    archive.putInts("shape", {3, 4});
    archive.putScalar("eta", 0.25);
    EXPECT_TRUE(archive.has("w"));
    EXPECT_TRUE(archive.has("shape"));
    ASSERT_NE(archive.floats("w"), nullptr);
    EXPECT_EQ((*archive.floats("w"))[1], 2.0f);
    ASSERT_NE(archive.ints("shape"), nullptr);
    EXPECT_EQ((*archive.ints("shape"))[0], 3);
    EXPECT_EQ(archive.scalar("eta"), 0.25);
    EXPECT_FALSE(archive.has("missing"));
}

TEST(Archive, TypedLookupsFindNothingAbsentOrOfTheOtherType)
{
    Archive archive;
    archive.putFloats("w", {1.0f, 2.0f});
    archive.putInts("shape", {3, 4});
    archive.putScalar("eta", 0.25);
    EXPECT_EQ(archive.floats("missing"), nullptr);
    EXPECT_EQ(archive.ints("missing"), nullptr);
    EXPECT_EQ(archive.scalar("missing"), std::nullopt);
    EXPECT_EQ(archive.floats("shape"), nullptr);
    EXPECT_EQ(archive.ints("w"), nullptr);
    EXPECT_EQ(archive.scalar("shape"), std::nullopt);
    // A scalar is a one-element float array.
    EXPECT_EQ(archive.scalar("w"), std::nullopt);
    archive.putFloats("empty", {});
    EXPECT_EQ(archive.scalar("empty"), std::nullopt);
}

TEST(Archive, OverwriteChangesType)
{
    Archive archive;
    archive.putFloats("x", {1.0f});
    archive.putInts("x", {7});
    ASSERT_NE(archive.ints("x"), nullptr);
    EXPECT_EQ((*archive.ints("x"))[0], 7);
    EXPECT_EQ(archive.floats("x"), nullptr);
    EXPECT_EQ(archive.size(), 1u);
}

TEST(Archive, FileRoundTrip)
{
    const std::string path = "/tmp/neuro_test_archive.ncmp";
    Archive archive;
    archive.putFloats("weights", {0.5f, -1.5f, 3.25f});
    archive.putInts("layers", {784, 100, 10});
    ASSERT_TRUE(archive.save(path));

    Archive loaded;
    ASSERT_TRUE(loaded.load(path));
    ASSERT_NE(loaded.floats("weights"), nullptr);
    EXPECT_EQ(*loaded.floats("weights"),
              (std::vector<float>{0.5f, -1.5f, 3.25f}));
    ASSERT_NE(loaded.ints("layers"), nullptr);
    EXPECT_EQ(*loaded.ints("layers"),
              (std::vector<int64_t>{784, 100, 10}));
    std::remove(path.c_str());
}

TEST(Archive, RejectsGarbageFile)
{
    const std::string path = "/tmp/neuro_test_garbage.ncmp";
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fputs("not an archive at all", f);
        std::fclose(f);
    }
    Archive archive;
    archive.putScalar("keep", 1.0);
    EXPECT_FALSE(archive.load(path));
    EXPECT_NE(archive.lastError().find("bad magic"), std::string::npos)
        << archive.lastError();
    EXPECT_TRUE(archive.has("keep")) << "failed load must not clobber";
    std::remove(path.c_str());
}

namespace {

/** Write a valid two-record archive to @p path; @return its size. */
long
writeValidArchive(const std::string &path)
{
    Archive archive;
    archive.putFloats("weights", std::vector<float>(64, 1.5f));
    archive.putInts("layers", {784, 100, 10});
    EXPECT_TRUE(archive.save(path));
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fclose(f);
    return size;
}

/** Overwrite one byte of the file at @p offset. */
void
patchByte(const std::string &path, long offset, char value)
{
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    std::fputc(value, f);
    std::fclose(f);
}

} // namespace

TEST(Archive, MissingFileReportsError)
{
    Archive archive;
    EXPECT_FALSE(archive.load("/tmp/neuro_no_such_file.ncmp"));
    EXPECT_NE(archive.lastError().find("cannot open"),
              std::string::npos)
        << archive.lastError();
    // A later success clears the error.
    const std::string path = "/tmp/neuro_test_clear_error.ncmp";
    writeValidArchive(path);
    EXPECT_TRUE(archive.load(path));
    EXPECT_TRUE(archive.lastError().empty());
    std::remove(path.c_str());
}

TEST(Archive, UnsupportedVersionRejected)
{
    const std::string path = "/tmp/neuro_test_badversion.ncmp";
    writeValidArchive(path);
    patchByte(path, 4, 9); // version word follows the 4-byte magic.
    Archive archive;
    EXPECT_FALSE(archive.load(path));
    EXPECT_NE(archive.lastError().find("unsupported version"),
              std::string::npos)
        << archive.lastError();
    std::remove(path.c_str());
}

TEST(Archive, TruncatedPayloadRejected)
{
    const std::string path = "/tmp/neuro_test_truncated.ncmp";
    const long size = writeValidArchive(path);
    ASSERT_GT(size, 16);
    ASSERT_EQ(::truncate(path.c_str(),
                         static_cast<off_t>(size - 12)), 0);
    Archive archive;
    archive.putScalar("keep", 2.0);
    EXPECT_FALSE(archive.load(path));
    EXPECT_FALSE(archive.lastError().empty());
    EXPECT_TRUE(archive.has("keep")) << "failed load must not clobber";
    std::remove(path.c_str());
}

TEST(Archive, TruncatedHeaderRejected)
{
    const std::string path = "/tmp/neuro_test_shortheader.ncmp";
    writeValidArchive(path);
    ASSERT_EQ(::truncate(path.c_str(), 6), 0); // magic + half a version.
    Archive archive;
    EXPECT_FALSE(archive.load(path));
    EXPECT_NE(archive.lastError().find("truncated header"),
              std::string::npos)
        << archive.lastError();
    std::remove(path.c_str());
}

TEST(Archive, OversizedElementCountRejected)
{
    // A record claiming far more elements than the file holds must be
    // rejected by the size check, not attempted as an allocation.
    const std::string path = "/tmp/neuro_test_hugecount.ncmp";
    writeValidArchive(path);
    // The first record is "layers" (maps iterate float-then-int; the
    // float map holds "weights", written first): patch the low bytes
    // of its u64 element count, which sits after the 4-byte name
    // length + 7-byte name + 1-byte tag.
    const long countOffset = 4 + 4 + 4 + 4 + 7 + 1;
    patchByte(path, countOffset + 3, 0x7f); // ~2^30 elements.
    Archive archive;
    EXPECT_FALSE(archive.load(path));
    EXPECT_NE(archive.lastError().find("claims"), std::string::npos)
        << archive.lastError();
    std::remove(path.c_str());
}

TEST(Archive, UnknownTypeTagRejected)
{
    const std::string path = "/tmp/neuro_test_badtag.ncmp";
    writeValidArchive(path);
    const long tagOffset = 4 + 4 + 4 + 4 + 7; // tag byte of "weights".
    patchByte(path, tagOffset, 42);
    Archive archive;
    EXPECT_FALSE(archive.load(path));
    EXPECT_NE(archive.lastError().find("unknown type tag"),
              std::string::npos)
        << archive.lastError();
    std::remove(path.c_str());
}

TEST(MlpSerialize, RoundTripPreservesPredictions)
{
    datasets::SynthDigitsOptions opt;
    opt.trainSize = 200;
    opt.testSize = 50;
    const datasets::Split split = datasets::makeSynthDigits(opt);
    mlp::MlpConfig config;
    config.layerSizes = {784, 12, 10};
    Rng rng(3);
    mlp::Mlp net(config, rng);
    mlp::TrainConfig train;
    train.epochs = 3;
    mlp::train(net, split.train, train);

    Archive archive;
    net.serialize(archive);
    auto restored = mlp::Mlp::deserialize(archive);
    ASSERT_TRUE(restored.has_value());

    std::vector<float> input(net.inputSize());
    for (std::size_t i = 0; i < split.test.size(); ++i) {
        split.test.normalized(i, input.data());
        ASSERT_EQ(net.predict(input.data()),
                  restored->predict(input.data()))
            << "prediction diverged at sample " << i;
    }
}

TEST(MlpSerialize, MissingRecordsRejected)
{
    Archive archive;
    archive.putInts("mlp.layers", {4, 2});
    EXPECT_FALSE(mlp::Mlp::deserialize(archive).has_value());
}

/** A saved 4-3-2 MLP with its float record @p name set to
 *  @p values (no edit when @p name is empty). */
Archive
mlpWithFloats(const std::string &name, std::vector<float> values)
{
    mlp::MlpConfig config;
    config.layerSizes = {4, 3, 2};
    Rng rng(9);
    Archive archive;
    mlp::Mlp(config, rng).serialize(archive);
    if (!name.empty())
        archive.putFloats(name, std::move(values));
    return archive;
}

/** The saved 4-3-2 MLP with its int record @p name set to @p values. */
Archive
mlpWithInts(const std::string &name, std::vector<int64_t> values)
{
    Archive archive = mlpWithFloats("", {});
    archive.putInts(name, std::move(values));
    return archive;
}

/** @return whether Mlp::deserialize() takes @p archive. */
bool
mlpLoads(const Archive &archive)
{
    return mlp::Mlp::deserialize(archive).has_value();
}

TEST(MlpSerialize, EachBadRecordIsRejected)
{
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const int64_t huge = int64_t{1} << 40;
    EXPECT_TRUE(mlpLoads(mlpWithFloats("", {})));
    EXPECT_FALSE(mlpLoads(mlpWithInts("mlp.slope", {}))) << "no slope";
    EXPECT_FALSE(mlpLoads(mlpWithFloats("mlp.slope", {0.0f})));
    EXPECT_FALSE(mlpLoads(mlpWithFloats("mlp.slope", {nan})));
    EXPECT_FALSE(mlpLoads(mlpWithFloats("mlp.activation", {3.0f})));
    EXPECT_FALSE(mlpLoads(mlpWithFloats("mlp.activation", {-1.0f})));
    EXPECT_FALSE(mlpLoads(mlpWithFloats("mlp.activation", {nan})));
    EXPECT_FALSE(mlpLoads(mlpWithFloats("mlp.layers", {4.0f, 3.0f, 2.0f})));
    EXPECT_FALSE(mlpLoads(mlpWithInts("mlp.layers", {4})));
    EXPECT_FALSE(mlpLoads(mlpWithInts("mlp.layers", {4, -3, 2})));
    // Sized past any payload: refused before a layer is allocated.
    EXPECT_FALSE(mlpLoads(mlpWithInts("mlp.layers", {huge, huge})));
    EXPECT_FALSE(mlpLoads(mlpWithInts("mlp.weights1", {0, 0, 0, 0})));
    EXPECT_FALSE(mlpLoads(mlpWithFloats("mlp.weights0", {1.0f})));
}

TEST(SnnSerialize, RoundTripPreservesForwardCounts)
{
    snn::SnnConfig config;
    config.numInputs = 16;
    config.numNeurons = 6;
    Rng rng(5);
    snn::SnnNetwork net(config, rng);
    const std::vector<int> labels = {0, 1, 2, 0, 1, 2};

    Archive archive;
    snn::saveSnn(net, labels, archive);
    auto restored = snn::loadSnn(archive);
    ASSERT_TRUE(restored.has_value());
    EXPECT_EQ(restored->labels, labels);
    EXPECT_EQ(restored->network.config().numNeurons, 6u);

    const snn::SnnWotDatapath original(net);
    const snn::SnnWotDatapath reloaded(restored->network);
    Rng probe(6);
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<uint8_t> counts(16);
        for (auto &c : counts)
            c = static_cast<uint8_t>(probe.uniformInt(11));
        EXPECT_EQ(original.forward(counts.data()),
                  reloaded.forward(counts.data()));
    }
    // Thresholds restored too.
    for (std::size_t n = 0; n < 6; ++n) {
        EXPECT_FLOAT_EQ(
            static_cast<float>(net.thresholds()[n]),
            static_cast<float>(restored->network.thresholds()[n]));
    }
}

TEST(SnnSerialize, ShapeMismatchRejected)
{
    snn::SnnConfig config;
    config.numInputs = 8;
    config.numNeurons = 4;
    Rng rng(7);
    snn::SnnNetwork net(config, rng);
    Archive archive;
    snn::saveSnn(net, {0, 1, 2, 3}, archive);
    // Corrupt the weight record length.
    archive.putFloats("snn.weights", {1.0f, 2.0f});
    EXPECT_FALSE(snn::loadSnn(archive).has_value());
}

/** A saved, labeled 16-4 SNN with its float record @p name set to
 *  @p values (no edit when @p name is empty). */
Archive
snnWithFloats(const std::string &name, std::vector<float> values)
{
    snn::SnnConfig config;
    config.numInputs = 16;
    config.numNeurons = 4;
    Rng rng(11);
    Archive archive;
    snn::saveSnn(snn::SnnNetwork(config, rng), {0, 1, 2, 3}, archive);
    if (!name.empty())
        archive.putFloats(name, std::move(values));
    return archive;
}

/** The saved 16-4 SNN with its int record @p name set to @p values. */
Archive
snnWithInts(const std::string &name, std::vector<int64_t> values)
{
    Archive archive = snnWithFloats("", {});
    archive.putInts(name, std::move(values));
    return archive;
}

/** @return whether loadSnn() takes @p archive. */
bool
snnLoads(const Archive &archive)
{
    return snn::loadSnn(archive).has_value();
}

TEST(SnnSerialize, EachBadRecordIsRejected)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const int64_t huge = int64_t{1} << 40;
    EXPECT_TRUE(snnLoads(snnWithFloats("", {})));
    // Scalars: absent (an int record is no float scalar), <= 0 or not
    // finite.
    EXPECT_FALSE(snnLoads(snnWithInts("snn.tleak", {}))) << "no tleak";
    EXPECT_FALSE(snnLoads(snnWithFloats("snn.tleak", {0.0f})));
    EXPECT_FALSE(snnLoads(snnWithFloats("snn.tleak", {inf})));
    EXPECT_FALSE(snnLoads(snnWithFloats("snn.threshold0", {-1.0f})));
    EXPECT_FALSE(snnLoads(snnWithFloats("snn.threshold0", {nan})));
    // Timing {period, U, Tinhibit, Trefrac, scheme}.
    EXPECT_FALSE(snnLoads(snnWithInts("snn.timing", {500, 0, 5, 20, 0})));
    EXPECT_FALSE(snnLoads(snnWithInts("snn.timing", {500, 50, -5, 20, 0})));
    EXPECT_FALSE(snnLoads(snnWithInts("snn.timing", {500, 50, 5, -1, 0})));
    EXPECT_FALSE(snnLoads(snnWithInts("snn.timing", {huge, 50, 5, 20, 0})));
    EXPECT_FALSE(snnLoads(snnWithInts("snn.timing", {500, 50, 5, 20, 6})));
    EXPECT_FALSE(snnLoads(snnWithInts("snn.timing", {500, 50, 5, 20, -1})));
    EXPECT_FALSE(snnLoads(snnWithInts("snn.timing", {500, 50})));
    EXPECT_FALSE(snnLoads(snnWithFloats("snn.timing", {500, 50, 5, 20, 0})));
    // Shape and payloads.
    EXPECT_FALSE(snnLoads(snnWithFloats("snn.shape", {16.0f, 4.0f})));
    // Sized past any payload: refused before the network is built.
    EXPECT_FALSE(snnLoads(snnWithInts("snn.shape", {65536, huge})));
    EXPECT_FALSE(snnLoads(snnWithInts("snn.weights", {0, 0, 0, 0})));
    std::vector<float> weights(64, 1.0f);
    weights[7] = nan;
    EXPECT_FALSE(snnLoads(snnWithFloats("snn.weights", weights)));
    EXPECT_FALSE(snnLoads(snnWithFloats("snn.thresholds", {1.0f})));
    EXPECT_FALSE(
        snnLoads(snnWithFloats("snn.thresholds", {1.0f, inf, 1.0f, 1.0f})));
    EXPECT_FALSE(snnLoads(snnWithInts("snn.labels", {0, 1})));
    EXPECT_FALSE(snnLoads(snnWithInts("snn.labels", {0, 1, -2, 3})));
    EXPECT_FALSE(snnLoads(snnWithInts("snn.labels", {0, 1, huge, 3})));
    EXPECT_FALSE(snnLoads(snnWithFloats("snn.labels", {0, 1, 2, 3})));

    // More inputs than a grid's uint16_t inputs index, with consistent
    // payloads.
    Archive wide = snnWithInts("snn.shape", {65537, 1});
    wide.putFloats("snn.weights", std::vector<float>(65537, 1.0f));
    wide.putFloats("snn.thresholds", {1.0f});
    wide.putInts("snn.labels", {0});
    EXPECT_FALSE(snnLoads(wide));
    wide.putInts("snn.shape", {65536, 1});
    wide.putFloats("snn.weights", std::vector<float>(65536, 1.0f));
    EXPECT_TRUE(snnLoads(wide));
}

TEST(SnnSerialize, NonPositivePeriodRejected)
{
    // The network sizes its decay table from the period at
    // construction, so a corrupt period must be refused at load.
    snn::SnnConfig config;
    config.numInputs = 8;
    config.numNeurons = 4;
    Rng rng(8);
    snn::SnnNetwork net(config, rng);
    Archive archive;
    snn::saveSnn(net, {0, 1, 2, 3}, archive);
    for (const int64_t period : {0, -5}) {
        archive.putInts("snn.timing", {period, 50, 5, 20, 0});
        EXPECT_FALSE(snn::loadSnn(archive).has_value()) << period;
    }
}

} // namespace
} // namespace neuro
