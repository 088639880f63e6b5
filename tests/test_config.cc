// Tests for the configuration registry and experiment scaling.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "neuro/common/config.h"

namespace neuro {
namespace {

TEST(Config, SetAndTypedGet)
{
    Config cfg;
    cfg.set("alpha", "42");
    cfg.set("beta", "3.5");
    cfg.set("gamma", "yes");
    cfg.set("delta", "hello");
    EXPECT_EQ(cfg.getInt("alpha", 0), 42);
    EXPECT_DOUBLE_EQ(cfg.getDouble("beta", 0.0), 3.5);
    EXPECT_TRUE(cfg.getBool("gamma", false));
    EXPECT_EQ(cfg.getString("delta", ""), "hello");
}

TEST(Config, FallbacksWhenAbsent)
{
    Config cfg;
    EXPECT_EQ(cfg.getInt("missing", -7), -7);
    EXPECT_DOUBLE_EQ(cfg.getDouble("missing", 1.5), 1.5);
    EXPECT_FALSE(cfg.getBool("missing", false));
    EXPECT_EQ(cfg.getString("missing", "dft"), "dft");
    EXPECT_FALSE(cfg.has("missing"));
}

TEST(Config, FallbackOnUnparsableValue)
{
    Config cfg;
    cfg.set("n", "not-a-number");
    EXPECT_EQ(cfg.getInt("n", 9), 9);
    EXPECT_DOUBLE_EQ(cfg.getDouble("n", 2.0), 2.0);
    cfg.set("b", "maybe");
    EXPECT_TRUE(cfg.getBool("b", true));
    // A value parses whole and in range, or not at all: no prefix of
    // it is read.
    cfg.set("train", "2e3");
    EXPECT_EQ(cfg.getInt("train", 500), 500);
    cfg.set("port", "7411x");
    EXPECT_EQ(cfg.getInt("port", 7400), 7400);
    cfg.set("latency_us", "3.5ms");
    EXPECT_DOUBLE_EQ(cfg.getDouble("latency_us", 100.0), 100.0);
    cfg.set("big", "99999999999999999999999");
    EXPECT_EQ(cfg.getInt("big", 3), 3);
    cfg.set("huge", "1e999");
    EXPECT_DOUBLE_EQ(cfg.getDouble("huge", 4.0), 4.0);
    // Whole values still parse.
    cfg.set("train", "2000");
    EXPECT_EQ(cfg.getInt("train", 500), 2000);
    cfg.set("latency_us", "3.5");
    EXPECT_DOUBLE_EQ(cfg.getDouble("latency_us", 100.0), 3.5);
}

TEST(Config, ParseArgsKeyValueOnly)
{
    Config cfg;
    const char *argv[] = {"prog", "train=100", "--flag", "x=y=z", "=bad"};
    cfg.parseArgs(5, const_cast<char **>(argv));
    EXPECT_EQ(cfg.getInt("train", 0), 100);
    EXPECT_EQ(cfg.getString("x", ""), "y=z");
    EXPECT_FALSE(cfg.has("--flag"));
    EXPECT_FALSE(cfg.has(""));
    // Bare `--flag` is stored as a truthy key, dashes normalized.
    EXPECT_TRUE(cfg.getBool("flag", false));
}

TEST(Config, ParseArgsDashedFlags)
{
    Config cfg;
    const char *argv[] = {"prog", "--trace=out.json", "--stats-dump",
                          "accuracy", "-x"};
    cfg.parseArgs(5, const_cast<char **>(argv));
    EXPECT_EQ(cfg.getString("trace", ""), "out.json");
    EXPECT_TRUE(cfg.getBool("stats_dump", false));
    // Subcommand words and single-dash tokens are left alone.
    EXPECT_FALSE(cfg.has("accuracy"));
    EXPECT_FALSE(cfg.has("x"));
}

TEST(Config, WarnsOnUnknownDashedFlag)
{
    Config cfg;
    // --theads matches no known flag (thread count is NEURO_THREADS):
    // flagged, but the value still lands (passthrough preserved for
    // forward compatibility).
    const char *argv[] = {"prog", "--theads=4", "train=100"};
    cfg.parseArgs(3, const_cast<char **>(argv));
    ASSERT_EQ(cfg.unknownFlags().size(), 1u);
    EXPECT_EQ(cfg.unknownFlags()[0], "theads");
    EXPECT_EQ(cfg.getInt("theads", 0), 4);
    EXPECT_EQ(cfg.getInt("train", 0), 100);
}

TEST(Config, KnownFlagsDoNotWarn)
{
    Config cfg;
    const char *argv[] = {"prog", "--port=2", "--listen",
                          "--deadline-us=50", "--quick"};
    cfg.parseArgs(5, const_cast<char **>(argv));
    EXPECT_TRUE(cfg.unknownFlags().empty());
    EXPECT_EQ(cfg.getInt("port", 0), 2);
    EXPECT_TRUE(cfg.getBool("quick", false));
}

TEST(Config, ProcessSettingFlagsAreUnknown)
{
    // Threads, SIMD, trace, stats dump and metrics are set through the
    // NEURO_* environment only; their dashed spellings are not flags.
    Config cfg;
    const char *argv[] = {"prog",          "--threads=2",
                          "--simd=avx2",   "--trace=out.json",
                          "--stats-dump",  "--metrics=m.prom",
                          "--metrics-period-ms=50"};
    cfg.parseArgs(7, const_cast<char **>(argv));
    const std::vector<std::string> expected = {
        "threads", "simd", "trace", "stats_dump", "metrics",
        "metrics_period_ms"};
    EXPECT_EQ(cfg.unknownFlags(), expected);
}

TEST(Config, UnknownFlagListResetsPerParse)
{
    Config cfg;
    const char *bad[] = {"prog", "--no-such-thing"};
    cfg.parseArgs(2, const_cast<char **>(bad));
    EXPECT_EQ(cfg.unknownFlags().size(), 1u);
    const char *good[] = {"prog", "--quick"};
    cfg.parseArgs(2, const_cast<char **>(good));
    EXPECT_TRUE(cfg.unknownFlags().empty());
}

TEST(Config, PlainKeyValueNeverWarns)
{
    Config cfg;
    // Undashed key=value pairs are the benches' open namespace; they
    // must stay exempt from the known-flag check.
    const char *argv[] = {"prog", "theads=4", "exotic_knob=yes"};
    cfg.parseArgs(3, const_cast<char **>(argv));
    EXPECT_TRUE(cfg.unknownFlags().empty());
    EXPECT_EQ(cfg.getInt("theads", 0), 4);
}

TEST(Config, ScaledRespectsMinimum)
{
    // experimentScale() is latched once per process; whatever it is,
    // scaled() must respect the floor and never exceed n for scale<=1.
    EXPECT_GE(scaled(1000, 10), 10u);
    EXPECT_LE(scaled(1000, 10), 1000u);
    EXPECT_EQ(scaled(0, 5), 5u);
}

} // namespace
} // namespace neuro
