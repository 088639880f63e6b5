/**
 * @file
 * Unified SIMD kernel layer — the one vector core every hot path
 * shares (docs/kernels.md). PR 5's batched strip kernel proved the
 * pattern inside serve/backend.cc; this layer generalizes it so
 * training, offline eval, the quantized MLP and the event-driven SNN
 * engine all run the same runtime-dispatched code instead of private
 * scalar loops.
 *
 * Dispatch model: every kernel body is compiled three times — a
 * baseline x86-64 (SSE2) translation unit, an AVX2 one and an
 * AVX512 one — and a per-process table picks the widest variant the
 * CPU supports on first use. Unlike PR 5's `target_clones`, the
 * selection is an explicit function-pointer table, which (a) needs no
 * ifunc resolver, so sanitizer builds keep the vector paths, and
 * (b) can be overridden for debugging with `NEURO_SIMD=off|avx2|avx512`
 * (or setSimdMode()).
 *
 * Summation-order contract: a wider variant may change how many
 * independent results move per instruction, but NEVER the order of
 * floating-point additions within one result. Float reductions keep
 * the project's exact schedule (four partial accumulators merged as
 * (a0+a1)+(a2+a3), then the tail, then the bias), element-wise updates
 * have one mul-add per element, and the kernel translation units are
 * built with -ffp-contract=off so no variant fuses a multiply into an
 * FMA. Results are therefore bit-identical across Scalar/Avx2/Avx512
 * and to the pre-kernel scalar paths — enforced by
 * tests/test_kernels.cc and the determinism suites.
 *
 * Layouts:
 *  - dense matrices are row-major float, row stride == cols (the
 *    Matrix class's storage, passed as a raw pointer);
 *  - "strip" buffers interleave kStripWidth samples sample-minor:
 *    element k of sample b lives at in[k * kStripWidth + b];
 *  - q8 weights are row-major int8 with the bias weight in the last
 *    column, activations are uint8 codes for [0,1] (code 255 == 1.0).
 */

#pragma once

#include <cstddef>
#include <cstdint>

namespace neuro {
namespace kernels {

/** Instruction-set level a kernel table was compiled for. */
enum class SimdIsa
{
    Scalar = 0, ///< baseline x86-64 (SSE2) / portable build.
    Avx2 = 1,   ///< 256-bit vectors.
    Avx512 = 2, ///< 512-bit vectors.
};

/** Requested dispatch policy (NEURO_SIMD / setSimdMode). */
enum class SimdMode
{
    Auto,   ///< widest ISA the CPU supports (the default).
    Off,    ///< force the scalar table (debugging, A/B baselines).
    Avx2,   ///< force AVX2 (falls back with a warning if unsupported).
    Avx512, ///< force AVX512 (falls back with a warning if unsupported).
};

/** Samples per strip of the batched kernels (fixed SoA width). */
constexpr std::size_t kStripWidth = 16;

/**
 * Rows one gemvBias column pass carries (eight independent add
 * chains). A row range that starts at a multiple of it runs in whole
 * passes; any row's result is the same wherever a range starts.
 */
constexpr std::size_t kGemvRows = 8;

/** Output rows computed together per pass of the strip kernels. */
constexpr std::size_t kRowBlock = 4;

/** Most samples one gemvBiasQ8 call takes (one weight sweep). */
constexpr std::size_t kQ8Batch = 4;

/**
 * One ISA level's kernel entry points. Filled in by the per-ISA
 * translation units (kernels_scalar.cc / kernels_avx2.cc /
 * kernels_avx512.cc, all generated from kernels_body.h); consumers
 * never touch this directly — the free functions below dispatch
 * through the active table.
 */
struct KernelTable
{
    const char *name = "scalar";
    SimdIsa isa = SimdIsa::Scalar;

    void (*gemvT)(const float *w, std::size_t rows, std::size_t cols,
                  const float *x, float *y) = nullptr;
    void (*gemvBias)(const float *w, std::size_t rows, std::size_t cols,
                     const float *x, float *y) = nullptr;
    void (*gemvBiasStrip)(const float *w, std::size_t rows,
                          std::size_t cols, const float *in,
                          float *out) = nullptr;
    void (*gemvBiasQ8)(const int8_t *w, std::size_t rows,
                       std::size_t cols, const uint8_t *const *xs,
                       std::size_t batch, int32_t *y) = nullptr;
    void (*addOuterBias)(float *w, std::size_t rows, std::size_t cols,
                         float eta, const float *d,
                         const float *x) = nullptr;
    void (*addRowF64)(double *acc, const float *row,
                      std::size_t n) = nullptr;
    void (*driveTiles)(double *drive, const float *wT, std::size_t stride,
                       const uint16_t *spikes, std::size_t count,
                       std::size_t n) = nullptr;
    bool (*lifStep)(double *pot, const double *drive, const double *thr,
                    double factor, std::size_t n) = nullptr;
    std::size_t (*popcountWords)(const uint64_t *words,
                                 std::size_t n) = nullptr;
};

/** @return the ISA level of the currently active kernel table. */
SimdIsa activeIsa();

/** @return "scalar" / "avx2" / "avx512". */
const char *isaName(SimdIsa isa);

/**
 * Select the dispatch table for @p mode. Forcing an ISA the CPU (or
 * the build) does not support warns and falls back to the widest
 * available level. Not safe concurrently with running kernels; meant
 * for startup, tests and benchmarks.
 * @return the ISA actually selected.
 */
SimdIsa setSimdMode(SimdMode mode);

/**
 * Parse "auto|off|scalar|avx2|avx512" (case-sensitive, as documented).
 * @return true and set @p mode on success; false on unknown text.
 */
bool parseSimdMode(const char *text, SimdMode *mode);

// ------------------------------------------------------------------
// Dispatched kernels. Shapes follow the Matrix convention: w is
// row-major rows x cols. See the layout notes in the file header.
// ------------------------------------------------------------------

/**
 * y = W^T * x (x has rows entries, y has cols). Row-blocked walk:
 * per output element the additions run in row order, blocked four
 * rows at a time as (w0*x0 + w1*x1) + (w2*x2 + w3*x3).
 */
void gemvT(const float *w, std::size_t rows, std::size_t cols,
           const float *x, float *y);

/**
 * y = W * [x; 1]: affine product where the last column holds bias
 * weights fed by a constant 1 (@p x has cols - 1 entries).
 */
void gemvBias(const float *w, std::size_t rows, std::size_t cols,
              const float *x, float *y);

/**
 * gemvBias over a strip of kStripWidth samples at once. @p in and
 * @p out are strip buffers ((cols - 1) * kStripWidth and
 * rows * kStripWidth floats); each sample's result is bit-identical
 * to gemvBias on that sample alone. No activation is applied — the
 * caller owns the nonlinearity.
 */
void gemvBiasStrip(const float *w, std::size_t rows, std::size_t cols,
                   const float *in, float *out);

/**
 * Fixed-point q8 affine product: y[r] = w[r][cols-1] * 255 +
 * sum_i w[r][i] * x[i] in exact int32 arithmetic (the quantized
 * MLP's MAC array). Integer addition is associative, so any vector
 * width produces the same accumulators; the caller dequantizes.
 * Shapes are capped so the int32 accumulator cannot overflow.
 */
void gemvBiasQ8(const int8_t *w, std::size_t rows, std::size_t cols,
                const uint8_t *x, int32_t *y);

/**
 * gemvBiasQ8 over @p batch (1..kQ8Batch) samples in one sweep of the
 * weights: sample b reads @p xs[b] and writes y[b * rows + r]. Each
 * sample's accumulators equal a single-sample call's bit for bit.
 */
void gemvBiasQ8(const int8_t *w, std::size_t rows, std::size_t cols,
                const uint8_t *const *xs, std::size_t batch, int32_t *y);

/**
 * W += eta * d * [x; 1]^T (@p x has cols - 1 entries; the bias column
 * sees a constant 1), skipping rows whose eta * d[r] == 0 — one
 * sample's back-propagation weight update.
 */
void addOuterBias(float *w, std::size_t rows, std::size_t cols,
                  float eta, const float *d, const float *x);

/**
 * acc[i] += row[i] widened to double, for i in [0, n) — the event
 * engine's per-spike transposed-weight drive. Element chains are
 * independent, so vector width never reorders a neuron's sum.
 */
void addRowF64(double *acc, const float *row, std::size_t n);

/**
 * drive[i] = the sum over s of wT[spikes[s] * stride + i], widened to
 * double and added in spike order starting from 0, for i in [0, n) —
 * the event engine's drive for one tick's @p count input spikes
 * through the transposed weights (row p of @p wT is input p's
 * weights). Bit-identical to zero-filling @p drive and calling
 * addRowF64 once per spike; the per-neuron sums stay in registers
 * across the spikes. Every read lies in [0, n) of a listed row.
 */
void driveTiles(double *drive, const float *wT, std::size_t stride,
                const uint16_t *spikes, std::size_t count, std::size_t n);

/**
 * pot[i] = pot[i] * factor + drive[i] for i in [0, n) — the event
 * engine's leak-and-integrate step on a tick where every neuron is
 * open and shares one decay @p factor. One multiply then one add per
 * element, each rounded, like the engine's per-neuron walk.
 * @return true if any updated pot[i] >= thr[i].
 */
bool lifStep(double *pot, const double *drive, const double *thr,
             double factor, std::size_t n);

/** @return total set bits over @p n 64-bit words. */
std::size_t popcountWords(const uint64_t *words, std::size_t n);

} // namespace kernels
} // namespace neuro
