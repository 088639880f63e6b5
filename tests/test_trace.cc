// Trace-layer tests: a small SNN training run recorded through the
// Chrome trace_event sink must produce valid JSON with paired,
// monotonically timestamped events; with tracing disabled the run must
// leave no trace file content and no scope entries in the registry.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "neuro/common/profile.h"
#include "neuro/common/rng.h"
#include "neuro/common/trace.h"
#include "neuro/snn/trainer.h"
#include "neuro/telemetry/metrics.h"

namespace neuro {
namespace {

/** Two-class 8x8 task, as in the trainer tests but tiny. */
datasets::Dataset
makeHalves(std::size_t count, uint64_t seed)
{
    datasets::Dataset data("halves", 8, 8, 2);
    Rng rng(seed);
    for (std::size_t i = 0; i < count; ++i) {
        datasets::Sample s;
        s.label = static_cast<int>(i % 2);
        s.pixels.assign(64, 0);
        for (std::size_t y = 0; y < 8; ++y) {
            const bool bright = (s.label == 0) ? (y < 4) : (y >= 4);
            for (std::size_t x = 0; x < 8; ++x) {
                s.pixels[y * 8 + x] = bright
                    ? static_cast<uint8_t>(200 + rng.uniformInt(56))
                    : static_cast<uint8_t>(rng.uniformInt(25));
            }
        }
        data.add(std::move(s));
    }
    return data;
}

snn::SnnConfig
tinyConfig()
{
    snn::SnnConfig config;
    config.numInputs = 64;
    config.numNeurons = 4;
    config.coding.periodMs = 100;
    config.coding.minIntervalMs = 20;
    config.tLeakMs = 200.0;
    config.initialThreshold = 0.5 * 32.0 * 8.0 * 127.0;
    config.homeostasis.epochMs = 20 * 100;
    return config;
}

void
runTinyTraining()
{
    const datasets::Dataset data = makeHalves(10, 3);
    const snn::SnnConfig config = tinyConfig();
    Rng rng(5);
    snn::SnnNetwork net(config, rng);
    snn::SnnStdpTrainer trainer(config);
    snn::SnnTrainConfig train;
    train.epochs = 1;
    trainer.train(net, data, train);
}

/** One parsed trace event (the fields our validator cares about). */
struct TraceEvent
{
    std::string name;
    char phase = 0;
    double ts = 0.0;
    int tid = 0;
    bool hasArgsValue = false;
};

/** Extract a JSON string field; fails the test if absent. */
std::string
stringField(const std::string &line, const std::string &key)
{
    const std::string needle = "\"" + key + "\":\"";
    const auto pos = line.find(needle);
    EXPECT_NE(pos, std::string::npos) << key << " missing in " << line;
    if (pos == std::string::npos)
        return "";
    const auto start = pos + needle.size();
    const auto end = line.find('"', start);
    EXPECT_NE(end, std::string::npos);
    return line.substr(start, end - start);
}

/** Extract a JSON numeric field; fails the test if absent. */
double
numberField(const std::string &line, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    const auto pos = line.find(needle);
    EXPECT_NE(pos, std::string::npos) << key << " missing in " << line;
    if (pos == std::string::npos)
        return 0.0;
    return std::strtod(line.c_str() + pos + needle.size(), nullptr);
}

/**
 * Parse the trace file back: structural JSON validation (balanced
 * braces/brackets outside strings, array framing) plus per-line event
 * extraction (the writer emits one event object per line).
 */
std::vector<TraceEvent>
parseTrace(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();

    // Structural validation.
    int depth = 0;
    bool inString = false;
    bool escaped = false;
    for (const char c : text) {
        if (inString) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                inString = false;
            continue;
        }
        if (c == '"')
            inString = true;
        else if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']')
            --depth;
        EXPECT_GE(depth, 0) << "unbalanced JSON";
    }
    EXPECT_EQ(depth, 0) << "unbalanced JSON";
    EXPECT_FALSE(inString) << "unterminated string";
    EXPECT_EQ(text.find_first_not_of(" \n\t"), text.find('['))
        << "not a JSON array";

    // Event extraction.
    std::vector<TraceEvent> events;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.find('{') == std::string::npos)
            continue;
        TraceEvent ev;
        ev.name = stringField(line, "name");
        const std::string ph = stringField(line, "ph");
        EXPECT_EQ(ph.size(), 1u);
        ev.phase = ph.empty() ? 0 : ph[0];
        ev.ts = numberField(line, "ts");
        ev.tid = static_cast<int>(numberField(line, "tid"));
        ev.hasArgsValue =
            line.find("\"args\":{\"value\":") != std::string::npos;
        events.push_back(std::move(ev));
    }
    return events;
}

class TraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Tracer::instance().stop();
        telemetry::MetricRegistry::instance().resetValues();
    }

    void
    TearDown() override { Tracer::instance().stop(); }
};

TEST_F(TraceTest, SnnTrainingEmitsValidPairedChromeTrace)
{
    const std::string path =
        ::testing::TempDir() + "/neuro_trace_test.json";
    ASSERT_TRUE(Tracer::instance().start(path));
    runTinyTraining();
    Tracer::instance().stop();

    const std::vector<TraceEvent> events = parseTrace(path);
    ASSERT_FALSE(events.empty());

    // Timestamps are monotonic in file order and begin/end events nest
    // properly per thread (single-threaded here: one global stack).
    double last_ts = 0.0;
    std::vector<std::string> stack;
    std::map<std::string, int64_t> balance;
    std::size_t counters = 0;
    for (const TraceEvent &ev : events) {
        EXPECT_GE(ev.ts, last_ts) << "timestamps must be monotonic";
        last_ts = ev.ts;
        switch (ev.phase) {
          case 'B':
            stack.push_back(ev.name);
            ++balance[ev.name];
            break;
          case 'E':
            ASSERT_FALSE(stack.empty())
                << "end event without begin: " << ev.name;
            EXPECT_EQ(stack.back(), ev.name) << "misnested scope";
            stack.pop_back();
            --balance[ev.name];
            break;
          case 'C':
            EXPECT_TRUE(ev.hasArgsValue)
                << "counter without value: " << ev.name;
            ++counters;
            break;
          case 'i':
            break;
          default:
            ADD_FAILURE() << "unknown phase '" << ev.phase << "'";
        }
    }
    EXPECT_TRUE(stack.empty()) << "unclosed scopes remain";
    for (const auto &[name, b] : balance)
        EXPECT_EQ(b, 0) << "unbalanced begin/end for " << name;

    // The instrumented layers all show up.
    EXPECT_GT(balance.count("snn/train"), 0u);
    EXPECT_GT(balance.count("snn/train/epoch"), 0u);
    // Training presents through present(), traced as
    // "snn/present_events".
    EXPECT_GT(balance.count("snn/present_events"), 0u);
    EXPECT_GT(counters, 0u);
    bool sawSpikeCounter = false;
    for (const TraceEvent &ev : events) {
        if (ev.phase == 'C' && ev.name == "snn.input_spikes")
            sawSpikeCounter = true;
    }
    EXPECT_TRUE(sawSpikeCounter);
    std::remove(path.c_str());
}

TEST_F(TraceTest, DisabledTracingRecordsNothing)
{
    // A trace stopped before the run: the tracer's gate is closed, so
    // the file holds no events, while the always-on metric registry
    // still counts the same run.
    const std::string path =
        ::testing::TempDir() + "/neuro_trace_disabled.json";
    ASSERT_TRUE(Tracer::instance().start(path));
    Tracer::instance().stop();
    ASSERT_FALSE(Tracer::enabled());
    runTinyTraining();
    EXPECT_TRUE(parseTrace(path).empty());
    auto &reg = telemetry::MetricRegistry::instance();
    EXPECT_EQ(reg.histogram("scope/snn/train")->count(), 1u);
    EXPECT_GT(reg.histogram("scope/snn/present_events")->count(), 0u);
    EXPECT_GT(reg.counter("snn.input_spikes")->value(), 0u);
    std::remove(path.c_str());
}

} // namespace
} // namespace neuro
