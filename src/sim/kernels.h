/**
 * @file
 * Specialized statevector gate kernels — the hot inner loops behind
 * sim::StateVector (sampling verification, numopt instantiation, the
 * fidelity objective).
 *
 * Every kernel operates in place on a contiguous, index-aligned chunk
 * `amps[0..n)` of a 2^k statevector: n is a power of two, the chunk's
 * absolute base index is a multiple of n, and every stride a kernel
 * uses is < n. Callers (the StateVector scheduler) pass the whole
 * vector for unblocked application, or cache-sized chunks when
 * applying a run of block-local ops per pass over the amplitudes —
 * chunking never changes the per-element arithmetic, so blocked and
 * unblocked application of the same op are bit-identical.
 *
 * Kernel families (vs the generic span x span matrix apply):
 *  - dense 1q / 2q: branch-free bit-pair loops, no gather tables;
 *  - diagonal (Z/S/T/Rz/U1 and fused diagonal runs): one multiply per
 *    touched amplitude, halves with factor 1 are skipped entirely;
 *  - permutation / phased permutation (X/Y/CX/CCX/Swap): amplitude
 *    moves, no multiplies for the pure permutations;
 *  - phase masks (CZ/CP/CCZ): one multiply on the 2^-k fraction of
 *    amplitudes whose mask bits are all set.
 *
 * SIMD: the dense 1q kernel has AVX2(+FMA) and NEON variants selected
 * at runtime (compile-time availability + cpuid); the scalar path is
 * the reference and stays bit-identical to the generic apply's
 * arithmetic, and the diagonal/permutation/phase kernels are scalar
 * by design (memory-bound, and scalar keeps them bit-exact). FMA
 * reassociates rounding, so SIMD dense results may differ from scalar
 * at the ~1e-15 per-amplitude level (tests pin <= 1e-12).
 * `GUOQ_SIM_SIMD=scalar` (or setSimdPolicy) forces the scalar
 * reference path — that is how the `statevector` bench case measures
 * the scalar-fallback speedup separately from the SIMD one
 * (docs/PERFORMANCE.md).
 */

#pragma once

#include <cstddef>

#include "linalg/complex_matrix.h"

namespace guoq {
namespace sim {
namespace kernels {

using linalg::Complex;

/**
 * Chunk size (log2, in amplitudes) of the cache-blocked scheduler:
 * 2^12 complex doubles = 64 KiB, small enough to stay resident in L2
 * while a run of block-local ops is applied to it, large enough that
 * most gate strides of a 20+-qubit circuit fall inside the block.
 */
constexpr int kBlockBits = 12;

/** SIMD dispatch policy. Auto picks the best instruction set the CPU
 *  reports; ForceScalar pins the reference path (bench baselines,
 *  cross-checking tests). The initial policy honours the environment
 *  variable GUOQ_SIM_SIMD ("scalar" forces scalar; anything else,
 *  including unset, is Auto). */
enum class SimdPolicy { Auto, ForceScalar };

void setSimdPolicy(SimdPolicy policy);
SimdPolicy simdPolicy();

/** The instruction set the dense kernels dispatch to under the
 *  current policy: "avx2", "neon", or "scalar". */
const char *backendName();

/** Dense 1q gate m (row-major 2x2) on bit position @p bit. */
void applyDense1q(Complex *amps, std::size_t n, int bit,
                  const Complex m[4]);

/** Diagonal 1q gate diag(d0, d1) on @p bit; halves whose factor is
 *  exactly 1 are not touched at all. */
void applyDiag1q(Complex *amps, std::size_t n, int bit, Complex d0,
                 Complex d1);

/** Phased permutation on @p bit: out_lo = p0 * in_hi and
 *  out_hi = p1 * in_lo (X is p0 = p1 = 1 and degenerates to swaps,
 *  Y is p0 = -i, p1 = i). */
void applyPermPhase1q(Complex *amps, std::size_t n, int bit, Complex p0,
                      Complex p1);

/** Multiply every amplitude whose index contains all bits of @p mask
 *  (mask < n, mask != 0) by @p phase — CZ/CP/CCZ and the low part of
 *  any diagonal controlled phase. */
void applyPhaseMask(Complex *amps, std::size_t n, std::size_t mask,
                    Complex phase);

/** X on @p targetBit controlled on every bit of @p ctrlMask (which
 *  may be 0 = plain X; ctrlMask must not contain the target bit). */
void applyCtrlX(Complex *amps, std::size_t n, std::size_t ctrlMask,
                int targetBit);

/** Swap the amplitudes whose @p bitA / @p bitB values differ. */
void applySwapBits(Complex *amps, std::size_t n, int bitA, int bitB);

/** Dense 2q gate m (row-major 4x4) with @p bitMsb the position of the
 *  gate's first qubit (local index MSB) and @p bitLsb its second. */
void applyDense2q(Complex *amps, std::size_t n, int bitMsb, int bitLsb,
                  const Complex m[16]);

/** amps[0..n) *= s (used for the high-bit halves of diagonal ops in
 *  blocked passes). Deliberately scalar, so diagonal kernels stay
 *  bit-exact. */
void scaleRange(Complex *amps, std::size_t n, Complex s);

} // namespace kernels
} // namespace sim
} // namespace guoq
