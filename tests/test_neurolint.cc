/**
 * @file
 * Tests for the neurolint project linter: the tokenizer must not be
 * fooled by strings/comments, every rule R1-R8 must fire on a known-bad
 * snippet, every suppression must silence exactly its rule, and the
 * baseline must downgrade (not hide) pre-existing findings. The
 * checked-in fixtures under tools/neurolint/fixtures are replayed from
 * disk so the ctest WILL_FAIL gate and this suite can never drift.
 */

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "neurolint/lexer.h"
#include "neurolint/rules.h"

using neurolint::Finding;
using neurolint::lintSource;
using neurolint::Token;
using neurolint::TokKind;

namespace {

std::vector<std::string>
rulesFired(const std::vector<Finding> &findings)
{
    std::vector<std::string> rules;
    for (const Finding &f : findings)
        rules.push_back(f.rule);
    return rules;
}

bool
fired(const std::vector<Finding> &findings, const std::string &rule)
{
    for (const Finding &f : findings) {
        if (f.rule == rule)
            return true;
    }
    return false;
}

std::string
readFixture(const std::string &name)
{
    const std::string path =
        std::string(NEUROLINT_FIXTURE_DIR) + "/" + name;
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing fixture " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

} // namespace

// --- Tokenizer ---------------------------------------------------------

TEST(Lexer, ClassifiesBasicTokens)
{
    const auto toks = neurolint::tokenize(
        "int x = 42; // trailing\nstd::string s = \"rand()\";\n");
    ASSERT_GE(toks.size(), 8u);
    EXPECT_EQ(toks[0].kind, TokKind::Identifier);
    EXPECT_EQ(toks[0].text, "int");
    EXPECT_EQ(toks[0].line, 1);
    bool sawComment = false, sawString = false;
    for (const Token &t : toks) {
        sawComment = sawComment || (t.kind == TokKind::Comment &&
                                    t.text == " trailing");
        sawString = sawString ||
                    (t.kind == TokKind::String && t.text == "rand()");
    }
    EXPECT_TRUE(sawComment);
    EXPECT_TRUE(sawString);
}

TEST(Lexer, LiteralsAndCommentsHideCode)
{
    // rand/cout/random_device appear only inside strings, raw strings,
    // char soup and comments: nothing may fire.
    const std::string src =
        "const char *a = \"srand(1); std::cout << x;\";\n"
        "const char *b = R\"(std::random_device dev;)\";\n"
        "/* rand() in a block comment */\n"
        "// std::cerr << \"oops\";\n";
    EXPECT_TRUE(lintSource("src/neuro/core/x.cc", src).empty());
}

TEST(Lexer, TracksLineNumbersAcrossBlockComments)
{
    const auto toks =
        neurolint::tokenize("/* line1\nline2\nline3 */ rand");
    ASSERT_EQ(toks.size(), 2u);
    EXPECT_EQ(toks[0].kind, TokKind::Comment);
    EXPECT_EQ(toks[0].line, 1);
    EXPECT_EQ(toks[1].text, "rand");
    EXPECT_EQ(toks[1].line, 3);
}

TEST(Lexer, DigitSeparatorIsNotACharLiteral)
{
    const auto toks = neurolint::tokenize("int big = 1'000'000;");
    for (const Token &t : toks)
        EXPECT_NE(t.kind, TokKind::CharLit) << t.text;
}

// --- R1: no raw libc/std randomness ------------------------------------

TEST(RuleR1, FiresOnRandSrandRandomDevice)
{
    const auto f = lintSource("src/neuro/core/x.cc",
                              "void f() { srand(7); int v = rand(); "
                              "std::random_device d; }");
    EXPECT_EQ(rulesFired(f), (std::vector<std::string>{"R1", "R1", "R1"}));
}

TEST(RuleR1, IgnoresMemberCallsAndForeignNamespaces)
{
    const auto f = lintSource(
        "src/neuro/core/x.cc",
        "void f(Gen &g) { g.rand(); gp->rand(); mylib::rand(); }");
    EXPECT_TRUE(f.empty()) << f[0].message;
}

TEST(RuleR1, StdQualifiedStillFires)
{
    EXPECT_TRUE(fired(lintSource("src/neuro/core/x.cc",
                                 "int f() { return std::rand(); }"),
                      "R1"));
}

TEST(RuleR1, RngImplementationIsExempt)
{
    EXPECT_TRUE(lintSource("src/neuro/common/rng.cc",
                           "int f() { return rand(); }")
                    .empty());
}

// --- R2: per-index streams in the data-parallel primitives -------------

TEST(RuleR2, FiresOnUnderivedRngInsideParallelFor)
{
    const auto f = lintSource(
        "src/neuro/snn/x.cc",
        "void f(uint64_t seed) { parallelFor(0, n, [&](size_t i) {\n"
        "    Rng r(seed + i); use(r); }); }");
    ASSERT_TRUE(fired(f, "R2"));
}

TEST(RuleR2, DeriveStreamSeedPasses)
{
    const auto f = lintSource(
        "src/neuro/snn/x.cc",
        "void f(uint64_t seed) { parallelMap(n, [&](size_t i) {\n"
        "    Rng r(deriveStreamSeed(seed, i)); return r.uniform(); }); }");
    EXPECT_TRUE(f.empty()) << f[0].message;
}

TEST(RuleR2, FiresOnSharedReferenceAndNewRng)
{
    const auto f = lintSource(
        "src/neuro/snn/x.cc",
        "void f(Rng &shared) { parallelForRange(0, n, g,\n"
        "  [&](size_t a, size_t b) {\n"
        "    Rng &r = shared;\n"
        "    Rng *h = new Rng(1);\n"
        "  }); }");
    EXPECT_EQ(rulesFired(f), (std::vector<std::string>{"R2", "R2"}));
}

TEST(RuleR2, ParallelInvokeTasksAreExempt)
{
    // Heterogeneous tasks with disjoint seeds are deterministic per
    // task; only the data-parallel primitives shard per index.
    const auto f = lintSource(
        "src/neuro/core/x.cc",
        "void f(uint64_t seed) { parallelInvoke({ [&] {\n"
        "    Rng rng(seed); train(rng); } }); }");
    EXPECT_TRUE(f.empty()) << f[0].message;
}

TEST(RuleR2, RngOutsideParallelRegionPasses)
{
    EXPECT_TRUE(lintSource("src/neuro/mlp/x.cc",
                           "void f() { Rng rng(3); rng.shuffle(a, n); }")
                    .empty());
}

// --- R3: console I/O stays in the sanctioned writers -------------------

TEST(RuleR3, FiresInLibraryAndTestCode)
{
    const std::string src = "void f() { std::cout << 1; }";
    EXPECT_TRUE(fired(lintSource("src/neuro/hw/x.cc", src), "R3"));
    EXPECT_TRUE(fired(lintSource("tests/test_x.cc", src), "R3"));
}

TEST(RuleR3, SanctionedWritersAreExempt)
{
    const std::string src =
        "void f() { std::cout << 1; std::cerr << 2; }";
    EXPECT_TRUE(lintSource("src/neuro/common/logging.cc", src).empty());
    EXPECT_TRUE(lintSource("tools/neurocmp_cli.cpp", src).empty());
    EXPECT_TRUE(lintSource("bench/bench_x.cpp", src).empty());
    EXPECT_TRUE(lintSource("examples/quickstart.cpp", src).empty());
}

// --- R4: pragma once ---------------------------------------------------

TEST(RuleR4, FiresOnGuardOnlyHeader)
{
    const auto f = lintSource("src/neuro/hw/x.h",
                              "#ifndef X_H\n#define X_H\nint v;\n"
                              "#endif\n");
    ASSERT_TRUE(fired(f, "R4"));
    EXPECT_EQ(f[0].line, 1);
}

TEST(RuleR4, PragmaOnceAndNonHeadersPass)
{
    EXPECT_TRUE(lintSource("src/neuro/hw/x.h",
                           "#pragma once\nint v;\n")
                    .empty());
    EXPECT_TRUE(lintSource("src/neuro/hw/x.cc", "int v;\n").empty());
}

// --- R5: ordered-sum loops accumulate in double ------------------------

TEST(RuleR5, FiresOnFloatAccumulator)
{
    const auto f = lintSource(
        "src/neuro/snn/x.cc",
        "double f(const float *row, const uint16_t *s, size_t n) {\n"
        "    float drive = 0.0f;\n"
        "    // neurolint: ordered-sum\n"
        "    for (size_t i = 0; i < n; ++i)\n"
        "        drive += row[s[i]];\n"
        "    return drive;\n"
        "}\n");
    ASSERT_TRUE(fired(f, "R5"));
    EXPECT_EQ(f[0].line, 5);
}

TEST(RuleR5, FiresOnFloatCastAndFloatDeclInsideLoop)
{
    const auto f = lintSource(
        "src/neuro/snn/x.cc",
        "double f(const float *row, size_t n) {\n"
        "    double acc = 0.0;\n"
        "    // neurolint: ordered-sum\n"
        "    for (size_t i = 0; i < n; ++i) {\n"
        "        float w = row[i];\n"
        "        acc += static_cast<float>(w);\n"
        "    }\n"
        "    return acc;\n"
        "}\n");
    EXPECT_EQ(rulesFired(f), (std::vector<std::string>{"R5", "R5"}));
}

TEST(RuleR5, DoubleAccumulationOverFloatRowsPasses)
{
    // The sanctioned pattern from snn/network.cc: double accumulator,
    // float weight rows read through a pointer.
    const auto f = lintSource(
        "src/neuro/snn/x.cc",
        "double f(const float *row, const uint16_t *s, size_t n) {\n"
        "    double drive = 0.0;\n"
        "    // neurolint: ordered-sum\n"
        "    for (size_t i = 0; i < n; ++i)\n"
        "        drive += row[s[i]];\n"
        "    return drive;\n"
        "}\n");
    EXPECT_TRUE(f.empty()) << f[0].message;
}

TEST(RuleR5, UntaggedLoopsAreNotChecked)
{
    EXPECT_TRUE(lintSource("src/neuro/mlp/x.cc",
                           "float f(const float *v, size_t n) {\n"
                           "    float s = 0.0f;\n"
                           "    for (size_t i = 0; i < n; ++i)\n"
                           "        s += v[i];\n"
                           "    return s;\n"
                           "}\n")
                    .empty());
}

// --- R6: raw mutex/CV types stay out of library code -------------------

TEST(RuleR6, FiresOnRawStdMutexAndConditionVariable)
{
    const auto f = lintSource(
        "src/neuro/serve/x.cc",
        "class Q { std::mutex m_; std::condition_variable cv_;\n"
        "          std::shared_mutex rw_; };");
    EXPECT_EQ(rulesFired(f), (std::vector<std::string>{"R6", "R6", "R6"}));
}

TEST(RuleR6, WrapperTypesAndForeignNamespacesPass)
{
    EXPECT_TRUE(lintSource("src/neuro/serve/x.cc",
                           "class Q { Mutex m_; CondVar cv_;\n"
                           "          other::mutex weird_; };")
                    .empty());
}

TEST(RuleR6, TestsBenchesToolsAndTheWrapperAreExempt)
{
    const std::string src = "std::mutex m; std::condition_variable cv;";
    EXPECT_TRUE(lintSource("tests/test_x.cc", src).empty());
    EXPECT_TRUE(lintSource("bench/bench_x.cpp", src).empty());
    EXPECT_TRUE(lintSource("examples/quickstart.cpp", src).empty());
    EXPECT_TRUE(lintSource("tools/neurocmp_cli.cpp", src).empty());
    EXPECT_TRUE(lintSource("src/neuro/common/mutex.h",
                           "#pragma once\n" + src)
                    .empty());
}

TEST(RuleR6, IncludeDirectiveDoesNotFire)
{
    EXPECT_TRUE(lintSource("src/neuro/serve/x.cc",
                           "#include <mutex>\nint v;\n")
                    .empty());
}

// --- R7: critical sections are scoped, not hand-locked -----------------

TEST(RuleR7, FiresOnManualLockUnlockPairs)
{
    const auto f = lintSource(
        "src/neuro/serve/x.cc",
        "void f(Mutex &m) { m.lock(); work(); m.unlock(); }");
    EXPECT_EQ(rulesFired(f), (std::vector<std::string>{"R7", "R7"}));
}

TEST(RuleR7, FiresOnTryLockAndPointerReceivers)
{
    const auto f = lintSource("src/neuro/serve/x.cc",
                              "void f(Mutex *m) { if (m->try_lock())\n"
                              "    m->unlock(); }");
    EXPECT_EQ(rulesFired(f), (std::vector<std::string>{"R7", "R7"}));
}

TEST(RuleR7, GuardsAndNonMemberNamesPass)
{
    // MutexGuard construction and a free function named lock() are
    // not member .lock() calls.
    EXPECT_TRUE(lintSource("src/neuro/serve/x.cc",
                           "void f(Mutex &m) { MutexGuard lock(m);\n"
                           "    lock_all(); }")
                    .empty());
    EXPECT_TRUE(lintSource("tests/test_x.cc",
                           "void f(std::mutex &m) { m.lock(); }")
                    .empty());
}

// --- R8: atomics spell their memory_order ------------------------------

TEST(RuleR8, FiresOnDefaultSeqCstOperations)
{
    const auto f = lintSource(
        "src/neuro/serve/x.cc",
        "std::atomic<int> v{0};\n"
        "void f() { v.store(1); v.fetch_add(2); v.exchange(3);\n"
        "           int x = v.load(); (void)x; }");
    EXPECT_EQ(rulesFired(f),
              (std::vector<std::string>{"R8", "R8", "R8", "R8"}));
}

TEST(RuleR8, ExplicitOrdersPass)
{
    EXPECT_TRUE(lintSource(
                    "src/neuro/serve/x.cc",
                    "std::atomic<int> v{0};\n"
                    "void f() { v.store(1, std::memory_order_release);\n"
                    "    v.fetch_add(2, std::memory_order_relaxed);\n"
                    "    int x = v.load(std::memory_order_acquire);\n"
                    "    (void)x; }")
                    .empty());
}

TEST(RuleR8, ArgTakingLoadNeedsAtomicReceiver)
{
    // Archive::load(path) takes an argument and the receiver is not a
    // declared atomic: a file load, not an atomic read.
    EXPECT_TRUE(lintSource("src/neuro/serve/x.cc",
                           "bool f(Archive &archive, std::string p) {\n"
                           "    return archive.load(p); }")
                    .empty());
    // Same shape on a declared atomic: C++26-style load(order) misuse
    // aside, an argument that is not a memory_order still fires.
    EXPECT_TRUE(fired(lintSource("src/neuro/serve/x.cc",
                                 "std::atomic<int> v{0};\n"
                                 "int f(int d) { return v.load(d); }"),
                      "R8"));
}

TEST(RuleR8, ZeroArgLoadFiresEvenWithoutDeclaration)
{
    EXPECT_TRUE(fired(lintSource("src/neuro/serve/x.cc",
                                 "int f(Flags &flags) {\n"
                                 "    return flags.load(); }"),
                      "R8"));
}

TEST(RuleR8, TestsAndBenchesAreExempt)
{
    const std::string src =
        "std::atomic<int> v{0}; void f() { v.store(1); }";
    EXPECT_TRUE(lintSource("tests/test_x.cc", src).empty());
    EXPECT_TRUE(lintSource("bench/bench_x.cpp", src).empty());
}

// --- Suppressions ------------------------------------------------------

TEST(Suppression, AllowSilencesOnlyItsRule)
{
    // Same line.
    EXPECT_TRUE(lintSource("src/neuro/core/x.cc",
                           "int f() { return rand(); } "
                           "// neurolint: allow(R1)")
                    .empty());
    // Preceding line.
    EXPECT_TRUE(lintSource("src/neuro/core/x.cc",
                           "// neurolint: allow(R1)\n"
                           "int f() { return rand(); }")
                    .empty());
    // Wrong rule: still fires.
    EXPECT_TRUE(fired(lintSource("src/neuro/core/x.cc",
                                 "// neurolint: allow(R3)\n"
                                 "int f() { return rand(); }"),
                      "R1"));
    // Two lines above: out of range, still fires.
    EXPECT_TRUE(fired(lintSource("src/neuro/core/x.cc",
                                 "// neurolint: allow(R1)\n\n"
                                 "int f() { return rand(); }"),
                      "R1"));
}

TEST(Suppression, CommaListAndCaseInsensitivity)
{
    EXPECT_TRUE(lintSource("src/neuro/core/x.cc",
                           "// neurolint: allow(r1, R3)\n"
                           "int f() { std::cout << rand(); return 0; }")
                    .empty());
}

TEST(Suppression, ConcurrencyRulesHonorAllow)
{
    EXPECT_TRUE(lintSource("src/neuro/serve/x.cc",
                           "// neurolint: allow(R6)\n"
                           "std::mutex m_;")
                    .empty());
    EXPECT_TRUE(lintSource("src/neuro/serve/x.cc",
                           "void f(Mutex &m) {\n"
                           "    m.lock(); // neurolint: allow(R7)\n"
                           "}")
                    .empty());
    EXPECT_TRUE(lintSource("src/neuro/serve/x.cc",
                           "std::atomic<int> v{0};\n"
                           "// neurolint: allow(R8)\n"
                           "void f() { v.store(1); }")
                    .empty());
}

// --- Baseline ----------------------------------------------------------

TEST(Baseline, DowngradesBySuffixMatch)
{
    std::vector<Finding> findings = {
        {"R3", "/abs/checkout/src/neuro/hw/x.cc", 4, "m", false},
        {"R3", "/abs/checkout/src/neuro/hw/y.cc", 5, "m", false},
        {"R1", "/abs/checkout/src/neuro/hw/x.cc", 6, "m", false},
    };
    const std::set<std::string> baseline = {"R3 src/neuro/hw/x.cc"};
    neurolint::applyBaseline(findings, baseline);
    EXPECT_TRUE(findings[0].baselined);  // rule + suffix match
    EXPECT_FALSE(findings[1].baselined); // different file
    EXPECT_FALSE(findings[2].baselined); // different rule
}

TEST(Baseline, SuffixMustAlignOnPathComponent)
{
    std::vector<Finding> findings = {
        {"R3", "src/neuro/hw/not_x.cc", 1, "m", false}};
    neurolint::applyBaseline(findings, {"R3 x.cc"});
    EXPECT_FALSE(findings[0].baselined);
}

TEST(Baseline, LoadSkipsCommentsAndBlanks)
{
    const std::string path = testing::TempDir() + "neurolint_base.txt";
    {
        std::ofstream out(path);
        out << "# comment\n\nR3 src/neuro/common/profile.cc # trail\n";
    }
    const auto entries = neurolint::loadBaseline(path);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(*entries.begin(), "R3 src/neuro/common/profile.cc");
    std::remove(path.c_str());
}

TEST(Baseline, KeyRoundTripsThroughWriteFormat)
{
    const Finding f{"R2", "src/neuro/snn/trainer.cc", 9, "m", false};
    EXPECT_EQ(neurolint::baselineKey(f), "R2 src/neuro/snn/trainer.cc");
}

// --- Checked-in fixtures stay bad --------------------------------------

struct FixtureCase
{
    const char *file;
    const char *rule;
    int minFindings;
};

// Without this, gtest prints the raw bytes of the case, pointer values
// included, so the listed test names change with every process launch.
void PrintTo(const FixtureCase &fc, std::ostream *os)
{
    *os << fc.file;
}

class FixtureTest : public testing::TestWithParam<FixtureCase>
{};

TEST_P(FixtureTest, FixtureStillFiresItsRule)
{
    const FixtureCase fc = GetParam();
    const auto findings = lintSource(
        std::string("tools/neurolint/fixtures/") + fc.file,
        readFixture(fc.file));
    int count = 0;
    for (const Finding &f : findings) {
        EXPECT_EQ(f.rule, fc.rule) << f.message;
        ++count;
    }
    EXPECT_GE(count, fc.minFindings) << fc.file;
}

INSTANTIATE_TEST_SUITE_P(
    Neurolint, FixtureTest,
    testing::Values(FixtureCase{"bad_r1.cc", "R1", 3},
                    FixtureCase{"bad_r2.cc", "R2", 3},
                    FixtureCase{"bad_r3.cc", "R3", 2},
                    FixtureCase{"bad_r4.h", "R4", 1},
                    FixtureCase{"bad_r5.cc", "R5", 2},
                    FixtureCase{"bad_r6.cc", "R6", 3},
                    FixtureCase{"bad_r7.cc", "R7", 2},
                    FixtureCase{"bad_r8.cc", "R8", 3}),
    [](const testing::TestParamInfo<FixtureCase> &tpi) {
        return std::string(tpi.param.rule);
    });
