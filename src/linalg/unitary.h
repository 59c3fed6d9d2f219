/**
 * @file
 * Unitary-specific metrics: the Hilbert–Schmidt distance of Def. 3.2
 * and global-phase-aware equivalence (Def. 3.3 / §3 of the paper).
 */

#pragma once

#include "linalg/complex_matrix.h"

namespace guoq {
namespace linalg {

/**
 * Hilbert–Schmidt distance (paper Def. 3.2):
 *   Δ(U, U') = sqrt(1 - |Tr(U† U')|² / N²).
 *
 * Zero iff U' = e^{iφ} U; insensitive to global phase by construction.
 */
double hsDistance(const ComplexMatrix &u, const ComplexMatrix &v);

/**
 * Δ(U, V) as hsDistance defines it, over raw row-major @p dim x @p dim
 * storage, computed without its cancellation: with φ = −arg Tr(U†V),
 * 1 − a = ‖U − e^{iφ}V‖²_F / (2·dim) and Δ = √((1 − a)(1 + a)).
 * hsDistance forms 1 − a² from a ≈ 1 and so floors equal unitaries at
 * ~1.5e-8; this one returns ~1e-16 for them, which is what lets many
 * per-block distances be summed (verify/certificate.cc).
 */
double phaseAlignedDistance(const Complex *u, const Complex *v,
                            std::size_t dim);

/** ε-equivalence test of Def. 3.3. */
bool approxEquivalent(const ComplexMatrix &u, const ComplexMatrix &v,
                      double eps);

/**
 * True when U' = e^{iφ} U elementwise within @p tol (a stricter test
 * than hsDistance used to validate rewrite rules exactly).
 */
bool equalUpToGlobalPhase(const ComplexMatrix &u, const ComplexMatrix &v,
                          double tol = 1e-9);

/**
 * equalUpToGlobalPhase over raw row-major storage of @p n2 entries
 * each (shapes are the caller's business): the same arithmetic,
 * without a matrix object.
 */
bool equalUpToGlobalPhase(const Complex *u, const Complex *v,
                          std::size_t n2, double tol = 1e-9);

/**
 * The Hilbert–Schmidt *cost* used by the numerical synthesizers:
 *   1 - |Tr(U† V)| / N,
 * which is cheaper and better conditioned near zero than Δ² but has
 * the same minimizers. Δ ≤ sqrt(2 * cost) links thresholds.
 */
double hsCost(const ComplexMatrix &u, const ComplexMatrix &v);

/** Convert an hsCost threshold equivalent to a Δ threshold ε. */
double hsCostThresholdForDistance(double eps);

} // namespace linalg
} // namespace guoq
