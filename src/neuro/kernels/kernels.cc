#include "neuro/kernels/kernels.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "neuro/common/config.h"
#include "neuro/common/logging.h"
#include "neuro/telemetry/metrics.h"

namespace neuro {
namespace kernels {

// Per-ISA tables, defined by the kernels_*.cc translation units. The
// AVX variants only exist when the toolchain could build them (CMake
// sets NEURO_KERNELS_HAVE_* on this file); a missing table simply
// narrows what dispatch can pick.
namespace scalar {
const KernelTable &table();
}
#ifdef NEURO_KERNELS_HAVE_AVX2
namespace avx2 {
const KernelTable &table();
}
#endif
#ifdef NEURO_KERNELS_HAVE_AVX512
namespace avx512 {
const KernelTable &table();
}
#endif

namespace {

/** @return true if the running CPU can execute @p isa. */
bool
cpuSupports(SimdIsa isa)
{
#if defined(__x86_64__) && defined(__GNUC__)
    switch (isa) {
    case SimdIsa::Scalar: return true;
    case SimdIsa::Avx2: return __builtin_cpu_supports("avx2") != 0;
    case SimdIsa::Avx512:
        return __builtin_cpu_supports("avx512f") != 0 &&
            __builtin_cpu_supports("avx512bw") != 0 &&
            __builtin_cpu_supports("avx512dq") != 0 &&
            __builtin_cpu_supports("avx512vl") != 0;
    }
#else
    (void)isa;
#endif
    return isa == SimdIsa::Scalar;
}

/** @return the table compiled for @p isa, or nullptr if absent. */
const KernelTable *
compiledTable(SimdIsa isa)
{
    switch (isa) {
    case SimdIsa::Scalar: return &scalar::table();
    case SimdIsa::Avx2:
#ifdef NEURO_KERNELS_HAVE_AVX2
        return &avx2::table();
#else
        return nullptr;
#endif
    case SimdIsa::Avx512:
#ifdef NEURO_KERNELS_HAVE_AVX512
        return &avx512::table();
#else
        return nullptr;
#endif
    }
    return nullptr;
}

/** @return the widest compiled-and-supported table at or below @p cap. */
const KernelTable *
widestAvailable(SimdIsa cap)
{
    static const SimdIsa order[] = {SimdIsa::Avx512, SimdIsa::Avx2,
                                    SimdIsa::Scalar};
    for (SimdIsa isa : order) {
        if (static_cast<int>(isa) > static_cast<int>(cap))
            continue;
        if (!cpuSupports(isa))
            continue;
        if (const KernelTable *t = compiledTable(isa))
            return t;
    }
    return &scalar::table();
}

/** Kernel-layer metric handles, registered on first kernel use. */
struct KernelMetrics
{
    std::shared_ptr<telemetry::Counter> gemv;
    std::shared_ptr<telemetry::Counter> gemvT;
    std::shared_ptr<telemetry::Counter> outer;
    std::shared_ptr<telemetry::Counter> popcount;
    std::shared_ptr<telemetry::Gauge> isa;
};

KernelMetrics &
metrics()
{
    // Leaked function-local (the telemetry layer's idiom): the
    // handles stay valid for late-running worker threads and exit
    // hooks whatever the static-destruction order, and hot paths pay
    // one relaxed atomic per call with no registry lookup.
    static KernelMetrics &m = *new KernelMetrics{
        telemetry::MetricRegistry::instance().counter(
            "kernels.gemv.calls"),
        telemetry::MetricRegistry::instance().counter(
            "kernels.gemvT.calls"),
        telemetry::MetricRegistry::instance().counter(
            "kernels.outer.calls"),
        telemetry::MetricRegistry::instance().counter(
            "kernels.popcount.calls"),
        telemetry::MetricRegistry::instance().gauge(
            "kernels.dispatch.isa"),
    };
    return m;
}

std::atomic<const KernelTable *> g_table{nullptr};

/** Select @p mode's table, warn on unsatisfiable forces. */
const KernelTable *
selectTable(SimdMode mode)
{
    const KernelTable *t = nullptr;
    switch (mode) {
    case SimdMode::Off: t = &scalar::table(); break;
    case SimdMode::Auto: t = widestAvailable(SimdIsa::Avx512); break;
    case SimdMode::Avx2:
    case SimdMode::Avx512: {
        const SimdIsa want = mode == SimdMode::Avx512 ? SimdIsa::Avx512
                                                      : SimdIsa::Avx2;
        t = widestAvailable(want);
        if (t->isa != want) {
            warn("kernels: %s unavailable on this CPU/build, using %s",
                 isaName(want), t->name);
        }
        break;
    }
    }
    metrics().isa->set(static_cast<double>(static_cast<int>(t->isa)));
    return t;
}

/**
 * The active table, resolved on first use: NEURO_SIMD if set (read
 * here, so binaries that never call initKernels still honor it), else
 * the widest supported ISA.
 */
const KernelTable &
active()
{
    const KernelTable *t = g_table.load(std::memory_order_acquire);
    if (t == nullptr) {
        SimdMode mode = SimdMode::Auto;
        const char *env = std::getenv("NEURO_SIMD");
        if (env != nullptr && !parseSimdMode(env, &mode)) {
            warn("kernels: unknown NEURO_SIMD=%s (want "
                 "auto|off|avx2|avx512), using auto",
                 env);
            mode = SimdMode::Auto;
        }
        t = selectTable(mode);
        // Two racing first calls select the same table; last store
        // wins harmlessly.
        g_table.store(t, std::memory_order_release);
    }
    return *t;
}

} // namespace

SimdIsa
activeIsa()
{
    return active().isa;
}

const char *
isaName(SimdIsa isa)
{
    switch (isa) {
    case SimdIsa::Scalar: return "scalar";
    case SimdIsa::Avx2: return "avx2";
    case SimdIsa::Avx512: return "avx512";
    }
    return "unknown";
}

SimdIsa
setSimdMode(SimdMode mode)
{
    const KernelTable *t = selectTable(mode);
    g_table.store(t, std::memory_order_release);
    return t->isa;
}

bool
parseSimdMode(const char *text, SimdMode *mode)
{
    if (text == nullptr || mode == nullptr)
        return false;
    if (std::strcmp(text, "auto") == 0) {
        *mode = SimdMode::Auto;
        return true;
    }
    if (std::strcmp(text, "off") == 0 ||
        std::strcmp(text, "scalar") == 0) {
        *mode = SimdMode::Off;
        return true;
    }
    if (std::strcmp(text, "avx2") == 0) {
        *mode = SimdMode::Avx2;
        return true;
    }
    if (std::strcmp(text, "avx512") == 0) {
        *mode = SimdMode::Avx512;
        return true;
    }
    return false;
}

void
initKernels(const Config &cfg)
{
    if (!cfg.has("simd"))
        return;
    const std::string value = cfg.getString("simd", "auto");
    SimdMode mode = SimdMode::Auto;
    if (!parseSimdMode(value.c_str(), &mode)) {
        warn("ignoring invalid simd=%s (want auto|off|avx2|avx512)",
             value.c_str());
        return;
    }
    const SimdIsa isa = setSimdMode(mode);
    inform("kernels: simd=%s -> %s table", value.c_str(), isaName(isa));
}

void
gemv(const float *w, std::size_t rows, std::size_t cols, const float *x,
     float *y)
{
    metrics().gemv->inc();
    active().gemv(w, rows, cols, x, y);
}

void
gemvT(const float *w, std::size_t rows, std::size_t cols,
      const float *x, float *y)
{
    metrics().gemvT->inc();
    active().gemvT(w, rows, cols, x, y);
}

void
gemvBias(const float *w, std::size_t rows, std::size_t cols,
         const float *x, float *y)
{
    NEURO_ASSERT(cols > 0, "gemvBias needs a bias column");
    metrics().gemv->inc();
    active().gemvBias(w, rows, cols, x, y);
}

void
gemvBiasStrip(const float *w, std::size_t rows, std::size_t cols,
              const float *in, float *out)
{
    NEURO_ASSERT(cols > 0, "gemvBiasStrip needs a bias column");
    metrics().gemv->inc();
    active().gemvBiasStrip(w, rows, cols, in, out);
}

void
gemvBiasQ8(const int8_t *w, std::size_t rows, std::size_t cols,
           const uint8_t *x, int32_t *y)
{
    NEURO_ASSERT(cols > 0, "gemvBiasQ8 needs a bias column");
    // |acc| <= cols * 128 * 255; cap the fan-in so the exact int32
    // accumulator cannot overflow whatever the weights.
    NEURO_ASSERT(cols <= 65536,
                 "gemvBiasQ8 fan-in %zu would overflow int32", cols);
    metrics().gemv->inc();
    active().gemvBiasQ8(w, rows, cols, x, y);
}

void
addOuter(float *w, std::size_t rows, std::size_t cols, float eta,
         const float *d, const float *x)
{
    metrics().outer->inc();
    active().addOuter(w, rows, cols, eta, d, x);
}

void
addOuterBias(float *w, std::size_t rows, std::size_t cols, float eta,
             const float *d, const float *x)
{
    NEURO_ASSERT(cols > 0, "addOuterBias needs a bias column");
    metrics().outer->inc();
    active().addOuterBias(w, rows, cols, eta, d, x);
}

void
addRowF64(double *acc, const float *row, std::size_t n)
{
    // Uncounted: it runs once per input spike, which snn.input_spikes
    // already counts.
    active().addRowF64(acc, row, n);
}

bool
lifStep(double *pot, const double *drive, const double *thr, double factor,
        std::size_t n)
{
    return active().lifStep(pot, drive, thr, factor, n);
}

std::size_t
popcountWords(const uint64_t *words, std::size_t n)
{
    metrics().popcount->inc();
    return active().popcountWords(words, n);
}

} // namespace kernels
} // namespace neuro
