/**
 * @file
 * The kernel bodies, written once and compiled once per ISA level.
 * Each of kernels_scalar.cc / kernels_avx2.cc / kernels_avx512.cc
 * defines NEURO_KERNELS_ISA_NS / NEURO_KERNELS_ISA_NAME /
 * NEURO_KERNELS_ISA_ENUM and includes this header; the translation
 * unit's compile flags (-mavx2, -mavx512f, ...) decide how wide the
 * compiler vectorizes the very same C++ loops. Nothing here may use
 * intrinsics: the bit-identity argument of docs/kernels.md rests on
 * every variant executing the same per-result operation sequence,
 * with width only changing how many independent results advance per
 * instruction. GNU vector types are fine: their operators act lane by
 * lane, so each lane is one chain of that sequence.
 *
 * Every loop follows one of two shapes:
 *  - independent element chains (gemvT, addOuter*, addRowF64,
 *    lifStep): each output element owns its additions, so
 *    vectorizing across elements is order-preserving by
 *    construction;
 *  - fixed-schedule reductions (gemv, gemvBias, the strips): four
 *    partial accumulators merged as (a0+a1)+(a2+a3), then the tail,
 *    then the bias — dotUnrolled's historical order, now the layer's
 *    contract. A row's four partials are the lanes of one 4-float
 *    vector and kGemvRows rows advance per column pass; the strip
 *    kernels vectorize across kStripWidth samples instead.
 *
 * The q8 and popcount kernels are exact integer arithmetic, so the
 * compiler may reassociate them freely without changing results.
 *
 * Loops whose length is only known at run time are written so the
 * compiler can prove their trip count is a multiple of the vector
 * width: a fixed-trip tile for the element-wise kernels, a trip count
 * rounded down to a whole number of blocks for the q8 reduction, and
 * a scalar tail after either. At -O2, GCC's very-cheap vectorizer
 * cost model only vectorizes a loop when no scalar epilogue or
 * runtime alias check remains, so a plain runtime-length loop stays
 * scalar in every table there; the __restrict parameters rule out
 * the alias check (docs/kernels.md, "How to add a kernel").
 */

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "neuro/kernels/kernels.h"

#ifndef NEURO_KERNELS_ISA_NS
// Standalone-compile defaults (header self-sufficiency check); the
// real translation units always define all three macros.
#define NEURO_KERNELS_ISA_NS scalar
#define NEURO_KERNELS_ISA_NAME "scalar"
#define NEURO_KERNELS_ISA_ENUM ::neuro::kernels::SimdIsa::Scalar
#endif

namespace neuro {
namespace kernels {
namespace NEURO_KERNELS_ISA_NS {
namespace {

/** Four floats as one vector: lane k is dotUnrolled's partial k. */
typedef float Lane4 __attribute__((vector_size(16)));

/** Rows one gemv column pass carries: 8 independent add chains. */
constexpr std::size_t kGemvRows = 8;

/** Elements per fixed-trip tile of the independent-chain kernels. */
constexpr std::size_t kTile = 16;

/**
 * gemvBiasQ8 block: its MAC loop runs over fan_in rounded down to a
 * multiple of 64, which the compiler can prove divides by every
 * vector width up to 64 int8 lanes (AVX-512), so the reduction
 * vectorizes at -O2 with no scalar epilogue.
 */
constexpr std::size_t kQ8Block = 64;

inline Lane4
load4(const float *p)
{
    Lane4 v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

/**
 * 4-wide unrolled dot product — the exact accumulator schedule the
 * scalar Matrix paths have always used: four partials (lane k sums
 * the columns c with c % 4 == k, in column order) merged pairwise,
 * tail appended. Held in one Lane4: as four scalars, -O3 turns the
 * loop into wide loads plus permutes that ran 2-3x slower than scalar
 * in the AVX tables.
 */
inline float
dotUnrolled(const float *__restrict w, const float *__restrict x,
            std::size_t n)
{
    Lane4 acc = {};
    std::size_t c = 0;
    for (; c + 4 <= n; c += 4)
        acc += load4(w + c) * load4(x + c);
    float dot = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (; c < n; ++c)
        dot += w[c] * x[c];
    return dot;
}

/**
 * dotUnrolled over kGemvRows rows (row stride @p stride) at once:
 * lane k of acc[j] is row j's partial k, so each lane sees exactly
 * dotUnrolled's mul-then-add sequence; the rows only interleave.
 * Every row is then merged as (a0+a1)+(a2+a3) plus its tail columns.
 * The pragmas (8 == kGemvRows) keep the accumulators in registers at
 * -O2, where the row loops would otherwise stay rolled over a stack
 * array.
 */
inline void
dotRows(const float *__restrict w, std::size_t stride,
        const float *__restrict x, std::size_t n,
        float *__restrict dots)
{
    Lane4 acc[kGemvRows] = {};
    std::size_t c = 0;
    for (; c + 4 <= n; c += 4) {
        const Lane4 xv = load4(x + c);
#pragma GCC unroll 8
        for (std::size_t j = 0; j < kGemvRows; ++j)
            acc[j] += load4(w + j * stride + c) * xv;
    }
#pragma GCC unroll 8
    for (std::size_t j = 0; j < kGemvRows; ++j) {
        const float *wr = w + j * stride;
        float dot = (acc[j][0] + acc[j][1]) + (acc[j][2] + acc[j][3]);
        for (std::size_t t = c; t < n; ++t)
            dot += wr[t] * x[t];
        dots[j] = dot;
    }
}

/** y[r] = dot(row r, x) over the first @p n of @p cols columns. */
inline void
dotAllRows(const float *w, std::size_t rows, std::size_t cols,
           const float *x, std::size_t n, float *y)
{
    std::size_t r = 0;
    for (; r + kGemvRows <= rows; r += kGemvRows)
        dotRows(w + r * cols, cols, x, n, y + r);
    for (; r < rows; ++r)
        y[r] = dotUnrolled(w + r * cols, x, n);
}

void
kGemv(const float *w, std::size_t rows, std::size_t cols,
      const float *x, float *y)
{
    dotAllRows(w, rows, cols, x, cols, y);
}

void
kGemvBias(const float *w, std::size_t rows, std::size_t cols,
          const float *x, float *y)
{
    dotAllRows(w, rows, cols, x, cols - 1, y);
    for (std::size_t r = 0; r < rows; ++r)
        y[r] += w[r * cols + cols - 1];
}

void
kGemvT(const float *__restrict w, std::size_t rows, std::size_t cols,
       const float *__restrict x, float *__restrict y)
{
    // Row-blocked transposed product: streams the matrix row-major
    // and touches each y[c] cache line once per four-row block. Per
    // output element the adds run in row order — vectorizing across
    // c keeps every element's chain intact.
    for (std::size_t c = 0; c < cols; ++c)
        y[c] = 0.0f;
    std::size_t r = 0;
    for (; r + 4 <= rows; r += 4) {
        const float x0 = x[r], x1 = x[r + 1];
        const float x2 = x[r + 2], x3 = x[r + 3];
        if (x0 == 0.0f && x1 == 0.0f && x2 == 0.0f && x3 == 0.0f)
            continue;
        const float *w0 = w + r * cols;
        const float *w1 = w0 + cols;
        const float *w2 = w1 + cols;
        const float *w3 = w2 + cols;
        std::size_t c = 0;
        for (; c + kTile <= cols; c += kTile) {
            float *o = y + c;
            const float *a0 = w0 + c, *a1 = w1 + c;
            const float *a2 = w2 + c, *a3 = w3 + c;
            for (std::size_t k = 0; k < kTile; ++k) {
                o[k] += (a0[k] * x0 + a1[k] * x1) +
                    (a2[k] * x2 + a3[k] * x3);
            }
        }
        for (; c < cols; ++c)
            y[c] += (w0[c] * x0 + w1[c] * x1) + (w2[c] * x2 + w3[c] * x3);
    }
    for (; r < rows; ++r) {
        const float xr = x[r];
        if (xr == 0.0f)
            continue;
        const float *wr = w + r * cols;
        std::size_t c = 0;
        for (; c + kTile <= cols; c += kTile) {
            float *o = y + c;
            const float *a = wr + c;
            for (std::size_t k = 0; k < kTile; ++k)
                o[k] += a[k] * xr;
        }
        for (; c < cols; ++c)
            y[c] += wr[c] * xr;
    }
}

/**
 * One output row over a full strip: per sample, dotUnrolled's exact
 * schedule — four partials over the columns merged as
 * (a0+a1)+(a2+a3), tail columns, then the bias. The compiler
 * vectorizes across the kStripWidth samples.
 */
inline void
stripRow(const float *__restrict in, const float *__restrict wr,
         std::size_t inputs, float *__restrict out)
{
    float a0[kStripWidth] = {}, a1[kStripWidth] = {};
    float a2[kStripWidth] = {}, a3[kStripWidth] = {};
    std::size_t c = 0;
    for (; c + 4 <= inputs; c += 4) {
        const float *xc = in + c * kStripWidth;
        const float w0 = wr[c], w1 = wr[c + 1];
        const float w2 = wr[c + 2], w3 = wr[c + 3];
        for (std::size_t b = 0; b < kStripWidth; ++b) {
            a0[b] += w0 * xc[b];
            a1[b] += w1 * xc[kStripWidth + b];
            a2[b] += w2 * xc[2 * kStripWidth + b];
            a3[b] += w3 * xc[3 * kStripWidth + b];
        }
    }
    float acc[kStripWidth];
    for (std::size_t b = 0; b < kStripWidth; ++b)
        acc[b] = (a0[b] + a1[b]) + (a2[b] + a3[b]);
    for (; c < inputs; ++c) {
        const float wc = wr[c];
        for (std::size_t b = 0; b < kStripWidth; ++b)
            acc[b] += wc * in[c * kStripWidth + b];
    }
    const float bias = wr[inputs];
    for (std::size_t b = 0; b < kStripWidth; ++b)
        out[b] = acc[b] + bias;
}

/**
 * kRowBlock output rows in one pass over the strip: each column group
 * of activations is loaded once and feeds every row's accumulators,
 * so a strip bigger than L1 streams from L2 once per row block
 * instead of once per row. Interleaving rows changes which row's add
 * retires next, never the order within a row.
 */
inline void
stripRowBlock(const float *__restrict in, const float *const *wrs,
              std::size_t inputs, float *__restrict out)
{
    float a[kRowBlock][4][kStripWidth] = {};
    std::size_t c = 0;
    for (; c + 4 <= inputs; c += 4) {
        const float *xc = in + c * kStripWidth;
        for (std::size_t j = 0; j < kRowBlock; ++j) {
            const float *wr = wrs[j];
            const float w0 = wr[c], w1 = wr[c + 1];
            const float w2 = wr[c + 2], w3 = wr[c + 3];
            for (std::size_t b = 0; b < kStripWidth; ++b) {
                a[j][0][b] += w0 * xc[b];
                a[j][1][b] += w1 * xc[kStripWidth + b];
                a[j][2][b] += w2 * xc[2 * kStripWidth + b];
                a[j][3][b] += w3 * xc[3 * kStripWidth + b];
            }
        }
    }
    for (std::size_t j = 0; j < kRowBlock; ++j) {
        float acc[kStripWidth];
        for (std::size_t b = 0; b < kStripWidth; ++b)
            acc[b] = (a[j][0][b] + a[j][1][b]) +
                (a[j][2][b] + a[j][3][b]);
        for (std::size_t ct = c; ct < inputs; ++ct) {
            const float wc = wrs[j][ct];
            for (std::size_t b = 0; b < kStripWidth; ++b)
                acc[b] += wc * in[ct * kStripWidth + b];
        }
        const float bias = wrs[j][inputs];
        for (std::size_t b = 0; b < kStripWidth; ++b)
            out[j * kStripWidth + b] = acc[b] + bias;
    }
}

void
kGemvBiasStrip(const float *w, std::size_t rows, std::size_t cols,
               const float *in, float *out)
{
    const std::size_t inputs = cols - 1;
    std::size_t r = 0;
    for (; r + kRowBlock <= rows; r += kRowBlock) {
        const float *wrs[kRowBlock];
        for (std::size_t j = 0; j < kRowBlock; ++j)
            wrs[j] = w + (r + j) * cols;
        stripRowBlock(in, wrs, inputs, out + r * kStripWidth);
    }
    for (; r < rows; ++r)
        stripRow(in, w + r * cols, inputs, out + r * kStripWidth);
}

void
kGemvBiasQ8(const int8_t *__restrict w, std::size_t rows, std::size_t cols,
            const uint8_t *__restrict x, int32_t *__restrict y)
{
    const std::size_t fan_in = cols - 1;
    const std::size_t body = fan_in & ~(kQ8Block - 1);
    for (std::size_t r = 0; r < rows; ++r) {
        const int8_t *wr = w + r * cols;
        // Widening int8 x uint8 MACs over whole kQ8Block blocks, then
        // the ragged tail, then the bias weight fed by the constant-1
        // input (code 255). Exact integer arithmetic, so the
        // vectorizer's partial sums cannot change the result.
        int32_t acc = 0;
        for (std::size_t i = 0; i < body; ++i)
            acc += static_cast<int32_t>(wr[i]) * x[i];
        for (std::size_t i = body; i < fan_in; ++i)
            acc += static_cast<int32_t>(wr[i]) * x[i];
        y[r] = acc + static_cast<int32_t>(wr[fan_in]) * 255;
    }
}

/**
 * o[k] += scale * v[k] for k in [0, n): one weight row of the
 * outer-product updates, one mul-add per element.
 */
inline void
scaleAddRow(float *__restrict o, const float *__restrict v,
            std::size_t n, float scale)
{
    std::size_t c = 0;
    for (; c + kTile <= n; c += kTile) {
        float *ot = o + c;
        const float *vt = v + c;
        for (std::size_t k = 0; k < kTile; ++k)
            ot[k] += scale * vt[k];
    }
    for (; c < n; ++c)
        o[c] += scale * v[c];
}

void
kAddOuter(float *w, std::size_t rows, std::size_t cols, float eta,
          const float *d, const float *x)
{
    for (std::size_t r = 0; r < rows; ++r) {
        const float scale = eta * d[r];
        if (scale != 0.0f)
            scaleAddRow(w + r * cols, x, cols, scale);
    }
}

void
kAddOuterBias(float *w, std::size_t rows, std::size_t cols, float eta,
              const float *d, const float *x)
{
    // The bias column's input is the constant 1.
    for (std::size_t r = 0; r < rows; ++r) {
        const float scale = eta * d[r];
        if (scale == 0.0f)
            continue;
        float *wr = w + r * cols;
        scaleAddRow(wr, x, cols - 1, scale);
        wr[cols - 1] += scale;
    }
}

void
kAddRowF64(double *__restrict acc, const float *__restrict row,
           std::size_t n)
{
    // Independent per-element double chains: SnnNetwork::present calls
    // this once per input spike, so element i accumulates its spikes
    // in emission order whatever the vector width or tiling.
    std::size_t i = 0;
    // neurolint: ordered-sum
    for (; i + kTile <= n; i += kTile) {
        double *o = acc + i;
        const float *v = row + i;
        for (std::size_t k = 0; k < kTile; ++k)
            o[k] += static_cast<double>(v[k]);
    }
    // neurolint: ordered-sum
    for (; i < n; ++i)
        acc[i] += static_cast<double>(row[i]);
}

bool
kLifStep(double *__restrict pot, const double *__restrict drive,
         const double *__restrict thr, double factor, std::size_t n)
{
    // Independent per-neuron updates plus a crossing flag per tile
    // lane, each a double select: at -O2 GCC 12 vectorizes the select
    // in every table, where an int/bool OR of the double compare stays
    // scalar in the baseline one, and one shared flag would chain
    // every select through one register. The rolled tile keeps -O3
    // from unrolling it and vectorizing across tiles with strided
    // loads, which ran 2-3x slower (docs/kernels.md).
    double lanes[kTile] = {};
    std::size_t i = 0;
    for (; i + kTile <= n; i += kTile) {
        double *p = pot + i;
        const double *d = drive + i;
        const double *th = thr + i;
#pragma GCC unroll 1
        for (std::size_t k = 0; k < kTile; ++k) {
            const double np = p[k] * factor + d[k];
            p[k] = np;
            lanes[k] = np >= th[k] ? 1.0 : lanes[k];
        }
    }
    double any = 0.0;
    for (std::size_t k = 0; k < kTile; ++k)
        any = lanes[k] != 0.0 ? 1.0 : any;
    for (; i < n; ++i) {
        const double np = pot[i] * factor + drive[i];
        pot[i] = np;
        any = np >= thr[i] ? 1.0 : any;
    }
    return any != 0.0;
}

std::size_t
kPopcountWords(const uint64_t *words, std::size_t n)
{
    std::size_t total = 0;
    for (std::size_t i = 0; i < n; ++i)
        total += static_cast<std::size_t>(std::popcount(words[i]));
    return total;
}

} // namespace

const KernelTable &
table()
{
    static const KernelTable t = [] {
        KernelTable kt;
        kt.name = NEURO_KERNELS_ISA_NAME;
        kt.isa = NEURO_KERNELS_ISA_ENUM;
        kt.gemv = kGemv;
        kt.gemvT = kGemvT;
        kt.gemvBias = kGemvBias;
        kt.gemvBiasStrip = kGemvBiasStrip;
        kt.gemvBiasQ8 = kGemvBiasQ8;
        kt.addOuter = kAddOuter;
        kt.addOuterBias = kAddOuterBias;
        kt.addRowF64 = kAddRowF64;
        kt.lifStep = kLifStep;
        kt.popcountWords = kPopcountWords;
        return kt;
    }();
    return t;
}

} // namespace NEURO_KERNELS_ISA_NS
} // namespace kernels
} // namespace neuro
