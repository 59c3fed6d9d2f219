/**
 * @file
 * The gate vocabulary: every elementary operation used by the five
 * target gate sets (paper Table 2) and by the workload generators.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "linalg/complex_matrix.h"

namespace guoq {
namespace ir {

/**
 * Elementary gate kinds.
 *
 * Qubit-ordering convention: the first qubit a gate is applied to is
 * the most significant bit of its matrix index (so CX(control, target)
 * has the paper's U_CX matrix).
 */
enum class GateKind : std::uint8_t
{
    // 1-qubit fixed
    H,
    X,
    Y,
    Z,
    S,
    Sdg,
    T,
    Tdg,
    SX,
    SXdg,
    // 1-qubit parameterized
    Rx,   //!< Rx(θ)
    Ry,   //!< Ry(θ)
    Rz,   //!< Rz(θ)
    U1,   //!< U1(λ) = diag(1, e^{iλ})
    U2,   //!< U2(φ, λ)
    U3,   //!< U3(θ, φ, λ)
    // 2-qubit
    CX,   //!< controlled-NOT (control first)
    CZ,
    Swap,
    Rxx,  //!< exp(-i θ/2 X⊗X), the ion-trap entangler
    CP,   //!< controlled-phase diag(1,1,1,e^{iλ})
    // 3-qubit
    CCX,  //!< Toffoli
    CCZ,

    NumKinds
};

/** Number of qubits @p kind acts on. */
int gateArity(GateKind kind);

/** Number of real parameters (rotation angles). */
int gateParamCount(GateKind kind);

/** Lower-case mnemonic ("cx", "rz", ...; matches OpenQASM names). */
const std::string &gateName(GateKind kind);

/** Inverse lookup of gateName; returns false when unknown. */
bool gateKindFromName(const std::string &name, GateKind *out);

/** True for CX/CZ/Swap/Rxx/CP. */
bool isTwoQubitGate(GateKind kind);

/** True for Rx/Ry/Rz/U1/U2/U3/Rxx/CP. */
bool isParameterized(GateKind kind);

/** True for T/Tdg (the FTQC cost metric counts both). */
bool isTGate(GateKind kind);

/**
 * The 2^m x 2^m unitary of @p kind with @p params
 * (params.size() == gateParamCount(kind)).
 */
linalg::ComplexMatrix gateMatrix(GateKind kind,
                                 const std::vector<double> &params);

/**
 * gateMatrix() without the allocation: writes the 2^m x 2^m unitary
 * row-major into @p out (2^m * 2^m entries), reading
 * gateParamCount(@p kind) angles from @p params. Same expressions,
 * hence the same bits, as gateMatrix().
 */
void gateMatrixInto(GateKind kind, const double *params,
                    linalg::Complex *out);

} // namespace ir
} // namespace guoq
