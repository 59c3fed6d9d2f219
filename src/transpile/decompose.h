/**
 * @file
 * Elementary decompositions used by the transpiler: multi-qubit gate
 * expansions into {CX + 1q}, entangler basis changes (CX ↔ Rxx), and
 * single-qubit re-expression in each gate set's native 1q basis.
 *
 * Every decomposition is exact modulo global phase and is validated
 * against the unitary simulator by the test suite.
 */

#pragma once

#include <array>
#include <cstddef>
#include <initializer_list>
#include <vector>

#include "ir/circuit.h"
#include "ir/gate_set.h"
#include "linalg/complex_matrix.h"

namespace guoq {
namespace transpile {

/**
 * Expand every gate of arity ≥ 2 that is not CX into {CX + 1q} gates
 * (CCX/CCZ use the standard 6-CX Clifford+T network; Swap is 3 CX; CZ
 * and CP use Hadamard/phase conjugation; Rxx uses the H-CX-Rz-CX-H
 * form). 1-qubit gates pass through untouched.
 */
ir::Circuit expandToCxBasis(const ir::Circuit &c);

/** The standard 6-CX, 7-T Toffoli network on (a, b, target). */
std::vector<ir::Gate> ccxDecomposition(int a, int b, int target);

/** CX(control, target) in the IonQ basis: Ry/Rx locals around Rxx(π/2). */
std::vector<ir::Gate> cxViaRxx(int control, int target);

/** Rxx(θ) on (a, b) in the CX basis: (H⊗H) CX Rz(θ) CX (H⊗H). */
std::vector<ir::Gate> rxxViaCx(double theta, int a, int b);

/**
 * Re-express an arbitrary 1-qubit unitary on @p qubit in the native 1q
 * basis of @p set:
 *   ibmq20      one U3,
 *   ibm-eagle   Rz SX Rz SX Rz (the ZSXZSXZ form),
 *   ionq        Rz Ry Rz (ZYZ Euler),
 *   nam         Rz H Rz H Rz (ZXZ with Rx = H Rz H).
 * Zero-angle rotations are omitted. Clifford+T is finite — use
 * rzToCliffordT / oneQubitCliffordT instead.
 */
std::vector<ir::Gate> oneQubitToNative(const linalg::ComplexMatrix &u,
                                       int qubit, ir::GateSetKind set);

/**
 * A native 1q gate sequence of at most five gates (the longest
 * oneQubitToNative form), stored inline so building one allocates
 * nothing. The gates carry no qubit; gates() attaches one.
 */
struct OneQubitSeq
{
    static constexpr std::size_t kMaxGates = 5;
    static constexpr std::size_t kMaxParams = 3; //!< U3

    struct Op
    {
        ir::GateKind kind = ir::GateKind::X;
        int numParams = 0;
        std::array<double, kMaxParams> params{};
    };

    std::array<Op, kMaxGates> ops{};
    std::size_t size = 0;

    void clear() { size = 0; }
    void push(ir::GateKind kind, std::initializer_list<double> params = {});

    /** Gate @p i of the sequence, on @p qubit. */
    ir::Gate gate(std::size_t i, int qubit) const;

    /** The sequence as gates on @p qubit. */
    std::vector<ir::Gate> gates(int qubit) const;
};

/**
 * oneQubitToNative of the 2x2 unitary stored row-major at @p u,
 * written into @p out: the same decisions and angles, without
 * allocating. oneQubitToNative is this plus OneQubitSeq::gates.
 */
void oneQubitToNativeInto(const linalg::Complex *u, ir::GateSetKind set,
                          OneQubitSeq &out);

/**
 * True when @p angle is an integer multiple of π/4 (within @p tol),
 * i.e. exactly representable with {T, S, Z} phase gates.
 */
bool isPiOver4Multiple(double angle, double tol = 1e-9);

/**
 * Rz(angle) as a minimal {T, T†, S, S†} sequence (angle must satisfy
 * isPiOver4Multiple; fatal() otherwise — this library does not
 * approximate single rotations à la gridsynth).
 */
std::vector<ir::Gate> rzToCliffordT(double angle, int qubit);

/**
 * A non-native 1q gate in the Clifford+T basis when an exact expansion
 * exists (Z, Y, SX, SXdg, Rz/U1 at π/4 multiples, Rx at π/4 multiples
 * via H conjugation); fatal() when the gate is not exactly
 * representable.
 */
std::vector<ir::Gate> oneQubitCliffordT(const ir::Gate &gate);

} // namespace transpile
} // namespace guoq
