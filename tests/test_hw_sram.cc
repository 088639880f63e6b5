// Tests for the SRAM model: bank geometry and Table 6 reproduction.

#include <gtest/gtest.h>

#include "neuro/core/reports.h"
#include "neuro/hw/sram.h"

namespace neuro {
namespace hw {
namespace {

TEST(SramBank, CalibrationPointsExact)
{
    // The three published bank characterizations must round-trip.
    const SramBank d128 = makeBank(128);
    EXPECT_NEAR(d128.areaUm2, 40772.0, 1.0);
    EXPECT_NEAR(d128.readEnergyPj, 32.46, 0.01);
    const SramBank d200 = makeBank(200);
    EXPECT_NEAR(d200.areaUm2, 46002.0, 1.0);
    EXPECT_NEAR(d200.readEnergyPj, 33.05, 0.01);
    const SramBank d784 = makeBank(784);
    EXPECT_NEAR(d784.areaUm2, 108351.0, 1.0);
    EXPECT_NEAR(d784.readEnergyPj, 44.41, 0.01);
}

TEST(SramBank, InterpolatesMonotonically)
{
    double prev_area = 0.0;
    for (std::size_t depth : {64u, 128u, 160u, 200u, 400u, 784u, 1600u}) {
        const SramBank bank = makeBank(depth);
        EXPECT_GT(bank.areaUm2, prev_area) << depth;
        EXPECT_GT(bank.readEnergyPj, 0.0);
        prev_area = bank.areaUm2;
    }
}

/** Table 6 reproduction: for each ni, derived bank counts and depth
 *  must match the paper exactly, and the array totals closely. */
class Table6Test : public ::testing::TestWithParam<int>
{
};

TEST_P(Table6Test, GeometryMatchesPaper)
{
    const auto &row = core::paper::kTable6[GetParam()];
    // SNN: 300 neurons x 784 inputs.
    const SramArray snn = makeSynapticStorage("snn", 300, 784, row.ni);
    EXPECT_EQ(snn.numBanks, row.snnBanks) << "SNN banks at ni=" << row.ni;
    EXPECT_EQ(snn.bank.depth, row.depth) << "depth at ni=" << row.ni;
    EXPECT_NEAR(snn.bank.readEnergyPj, row.readEnergyPj, 0.5);
    EXPECT_NEAR(snn.totalAreaUm2() / 1e6, row.snnAreaMm2,
                row.snnAreaMm2 * 0.05);
    EXPECT_NEAR(snn.energyPerCyclePj() / 1e3, row.snnEnergyNj,
                row.snnEnergyNj * 0.05);

    // MLP: hidden 100 x 784 plus output 10 x 100.
    const SramArray hidden =
        makeSynapticStorage("mlp-h", 100, 784, row.ni);
    const SramArray output =
        makeSynapticStorage("mlp-o", 10, 100, row.ni);
    EXPECT_EQ(hidden.numBanks + output.numBanks, row.mlpBanks)
        << "MLP banks at ni=" << row.ni;
    EXPECT_NEAR((hidden.totalAreaUm2() + output.totalAreaUm2()) / 1e6,
                row.mlpAreaMm2, row.mlpAreaMm2 * 0.15);
}

INSTANTIATE_TEST_SUITE_P(Rows, Table6Test, ::testing::Values(0, 1, 2, 3));

TEST(SynapticStorage, DepthFloorsAt128)
{
    const SramArray array = makeSynapticStorage("a", 10, 64, 16);
    EXPECT_EQ(array.bank.depth, 128u);
}

TEST(SramArray, EnergyAccounting)
{
    SramArray array = makeSynapticStorage("a", 16, 784, 1);
    array.readsPerImage = 1000;
    EXPECT_DOUBLE_EQ(array.energyPerImagePj(),
                     array.bank.readEnergyPj * 1000.0);
    EXPECT_DOUBLE_EQ(array.energyPerCyclePj(),
                     array.bank.readEnergyPj *
                         static_cast<double>(array.numBanks));
}

} // namespace
} // namespace hw
} // namespace neuro
