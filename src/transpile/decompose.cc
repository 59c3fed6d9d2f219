#include "transpile/decompose.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "linalg/decompose_1q.h"
#include "linalg/unitary.h"
#include "support/logging.h"

namespace guoq {
namespace transpile {

namespace {

using ir::Gate;
using ir::GateKind;

/** Append Rz(angle) unless the angle is ~0 mod 2π. */
void
pushRz(OneQubitSeq &out, double angle)
{
    const double a = ir::normalizeAngle(angle);
    if (!ir::isZeroAngle(a, 1e-12))
        out.push(GateKind::Rz, {a});
}

} // namespace

std::vector<Gate>
ccxDecomposition(int a, int b, int target)
{
    // The standard 6-CX / 7-T Toffoli network (Nielsen & Chuang §4.3).
    std::vector<Gate> out;
    auto cx = [&out](int c, int t) {
        out.emplace_back(GateKind::CX, std::vector<int>{c, t});
    };
    auto one = [&out](GateKind k, int q) {
        out.emplace_back(k, std::vector<int>{q});
    };
    one(GateKind::H, target);
    cx(b, target);
    one(GateKind::Tdg, target);
    cx(a, target);
    one(GateKind::T, target);
    cx(b, target);
    one(GateKind::Tdg, target);
    cx(a, target);
    one(GateKind::T, b);
    one(GateKind::T, target);
    one(GateKind::H, target);
    cx(a, b);
    one(GateKind::T, a);
    one(GateKind::Tdg, b);
    cx(a, b);
    return out;
}

std::vector<Gate>
cxViaRxx(int control, int target)
{
    // CX = (Ry(-π/2) Rx(-π/2) ⊗ Rx(-π/2)) XX(π/2) (Ry(π/2) ⊗ I) up to
    // global phase — the native IonQ realization (gates in time order).
    std::vector<Gate> out;
    out.emplace_back(GateKind::Ry, std::vector<int>{control},
                     std::vector<double>{M_PI / 2});
    out.emplace_back(GateKind::Rxx, std::vector<int>{control, target},
                     std::vector<double>{M_PI / 2});
    out.emplace_back(GateKind::Rx, std::vector<int>{control},
                     std::vector<double>{-M_PI / 2});
    out.emplace_back(GateKind::Rx, std::vector<int>{target},
                     std::vector<double>{-M_PI / 2});
    out.emplace_back(GateKind::Ry, std::vector<int>{control},
                     std::vector<double>{-M_PI / 2});
    return out;
}

std::vector<Gate>
rxxViaCx(double theta, int a, int b)
{
    // exp(-iθ/2 X⊗X) = (H⊗H) exp(-iθ/2 Z⊗Z) (H⊗H) and the ZZ rotation
    // is CX · (I ⊗ Rz(θ)) · CX. Exact, including global phase.
    std::vector<Gate> out;
    out.emplace_back(GateKind::H, std::vector<int>{a});
    out.emplace_back(GateKind::H, std::vector<int>{b});
    out.emplace_back(GateKind::CX, std::vector<int>{a, b});
    out.emplace_back(GateKind::Rz, std::vector<int>{b},
                     std::vector<double>{theta});
    out.emplace_back(GateKind::CX, std::vector<int>{a, b});
    out.emplace_back(GateKind::H, std::vector<int>{a});
    out.emplace_back(GateKind::H, std::vector<int>{b});
    return out;
}

ir::Circuit
expandToCxBasis(const ir::Circuit &c)
{
    ir::Circuit out(c.numQubits());
    for (const Gate &gate : c.gates()) {
        switch (gate.kind) {
          case GateKind::CZ:
            out.h(gate.qubits[1]);
            out.cx(gate.qubits[0], gate.qubits[1]);
            out.h(gate.qubits[1]);
            break;
          case GateKind::Swap:
            out.cx(gate.qubits[0], gate.qubits[1]);
            out.cx(gate.qubits[1], gate.qubits[0]);
            out.cx(gate.qubits[0], gate.qubits[1]);
            break;
          case GateKind::CP: {
            // diag(1,1,1,e^{iλ}) via phase pushes around two CXs.
            const double lam = gate.params[0];
            out.u1(lam / 2, gate.qubits[0]);
            out.cx(gate.qubits[0], gate.qubits[1]);
            out.u1(-lam / 2, gate.qubits[1]);
            out.cx(gate.qubits[0], gate.qubits[1]);
            out.u1(lam / 2, gate.qubits[1]);
            break;
          }
          case GateKind::Rxx:
            for (Gate &g :
                 rxxViaCx(gate.params[0], gate.qubits[0], gate.qubits[1]))
                out.add(std::move(g));
            break;
          case GateKind::CCX:
            for (Gate &g : ccxDecomposition(gate.qubits[0], gate.qubits[1],
                                            gate.qubits[2]))
                out.add(std::move(g));
            break;
          case GateKind::CCZ:
            out.h(gate.qubits[2]);
            for (Gate &g : ccxDecomposition(gate.qubits[0], gate.qubits[1],
                                            gate.qubits[2]))
                out.add(std::move(g));
            out.h(gate.qubits[2]);
            break;
          default:
            out.add(gate);
            break;
        }
    }
    return out;
}

void
OneQubitSeq::push(GateKind kind, std::initializer_list<double> params)
{
    if (size == kMaxGates || params.size() > kMaxParams)
        support::panic("OneQubitSeq: capacity exceeded");
    Op &op = ops[size++];
    op.kind = kind;
    op.numParams = static_cast<int>(params.size());
    std::copy(params.begin(), params.end(), op.params.begin());
}

Gate
OneQubitSeq::gate(std::size_t i, int qubit) const
{
    const Op &op = ops[i];
    return Gate(op.kind, {qubit},
                std::span<const double>(op.params.data(),
                                        static_cast<std::size_t>(
                                            op.numParams)));
}

std::vector<Gate>
OneQubitSeq::gates(int qubit) const
{
    std::vector<Gate> out;
    out.reserve(size);
    for (std::size_t i = 0; i < size; ++i)
        out.push_back(gate(i, qubit));
    return out;
}

std::vector<Gate>
oneQubitToNative(const linalg::ComplexMatrix &u, int qubit,
                 ir::GateSetKind set)
{
    if (u.rows() != 2 || u.cols() != 2)
        support::panic("oneQubitToNative: matrix is not 2x2");
    OneQubitSeq seq;
    oneQubitToNativeInto(u.data(), set, seq);
    return seq.gates(qubit);
}

void
oneQubitToNativeInto(const linalg::Complex *u, ir::GateSetKind set,
                     OneQubitSeq &out)
{
    out.clear();
    const linalg::EulerZyz e = linalg::decomposeZyz(u);

    // Single-gate dictionary: when the unitary is (mod phase) one of
    // the set's fixed native 1q gates, emit exactly that gate instead
    // of a full Euler chain.
    for (GateKind kind : ir::nativeGates(set)) {
        if (ir::gateArity(kind) != 1 || ir::isParameterized(kind))
            continue;
        linalg::Complex g[4];
        ir::gateMatrixInto(kind, nullptr, g);
        if (linalg::equalUpToGlobalPhase(g, u, 4, 1e-10)) {
            out.push(kind);
            return;
        }
    }
    // X-axis rotations for sets with native Rx: ZYZ form
    // Rx(θ) = Rz(-π/2) Ry(θ) Rz(π/2).
    if (ir::isNative(set, GateKind::Rx) &&
        std::abs(ir::normalizeAngle(e.beta + M_PI / 2)) <= 1e-10 &&
        std::abs(ir::normalizeAngle(e.delta - M_PI / 2)) <= 1e-10) {
        out.push(GateKind::Rx, {e.gamma});
        return;
    }

    // Diagonal case: the whole unitary is a single Rz.
    if (ir::isZeroAngle(ir::normalizeAngle(e.gamma), 1e-12)) {
        switch (set) {
          case ir::GateSetKind::Ibmq20:
            if (!ir::isZeroAngle(ir::normalizeAngle(e.beta + e.delta)))
                out.push(GateKind::U1,
                         {ir::normalizeAngle(e.beta + e.delta)});
            return;
          default:
            pushRz(out, e.beta + e.delta);
            return;
        }
    }

    switch (set) {
      case ir::GateSetKind::Ibmq20:
        // U3(θ,φ,λ) ∝ Rz(φ) Ry(θ) Rz(λ); θ = π/2 is exactly a U2.
        if (std::abs(ir::normalizeAngle(e.gamma - M_PI / 2)) <= 1e-12)
            out.push(GateKind::U2, {e.beta, e.delta});
        else
            out.push(GateKind::U3, {e.gamma, e.beta, e.delta});
        return;
      case ir::GateSetKind::IbmEagle:
        // U3(θ,φ,λ) ∝ Rz(φ+π) SX Rz(θ+π) SX Rz(λ) — the Qiskit
        // ZSXZSXZ form (gates emitted in time order, inner Rz first).
        pushRz(out, e.delta);
        out.push(GateKind::SX);
        pushRz(out, e.gamma + M_PI);
        out.push(GateKind::SX);
        pushRz(out, e.beta + M_PI);
        return;
      case ir::GateSetKind::IonQ:
        pushRz(out, e.delta);
        out.push(GateKind::Ry, {e.gamma});
        pushRz(out, e.beta);
        return;
      case ir::GateSetKind::Nam: {
        // ZXZ with Rx(γ) = H Rz(γ) H.
        const linalg::EulerZxz x = linalg::decomposeZxz(u);
        pushRz(out, x.delta);
        out.push(GateKind::H);
        pushRz(out, x.gamma);
        out.push(GateKind::H);
        pushRz(out, x.beta);
        return;
      }
      case ir::GateSetKind::CliffordT:
        support::panic("oneQubitToNative: Clifford+T is finite; use "
                       "oneQubitCliffordT");
    }
    support::panic("oneQubitToNative: unknown gate set");
}

bool
isPiOver4Multiple(double angle, double tol)
{
    const double k = angle / (M_PI / 4);
    return std::abs(k - std::round(k)) * (M_PI / 4) <= tol;
}

std::vector<Gate>
rzToCliffordT(double angle, int qubit)
{
    if (!isPiOver4Multiple(angle))
        support::fatal(support::strcat(
            "rzToCliffordT: angle ", angle,
            " is not a multiple of pi/4; exact Clifford+T expansion "
            "impossible (this library does not approximate rotations)"));
    int k = static_cast<int>(std::llround(angle / (M_PI / 4))) % 8;
    if (k < 0)
        k += 8;
    std::vector<Gate> out;
    auto one = [&out, qubit](GateKind kind) {
        out.emplace_back(kind, std::vector<int>{qubit});
    };
    switch (k) {
      case 0: break;
      case 1: one(GateKind::T); break;
      case 2: one(GateKind::S); break;
      case 3: one(GateKind::S); one(GateKind::T); break;
      case 4: one(GateKind::S); one(GateKind::S); break;
      case 5: one(GateKind::Sdg); one(GateKind::Tdg); break;
      case 6: one(GateKind::Sdg); break;
      case 7: one(GateKind::Tdg); break;
      default: support::panic("rzToCliffordT: unreachable");
    }
    return out;
}

std::vector<Gate>
oneQubitCliffordT(const ir::Gate &gate)
{
    const int q = gate.qubits[0];
    std::vector<Gate> out;
    auto one = [&out, q](GateKind kind) {
        out.emplace_back(kind, std::vector<int>{q});
    };
    auto extend = [&out](std::vector<Gate> gs) {
        for (Gate &g : gs)
            out.push_back(std::move(g));
    };
    switch (gate.kind) {
      case GateKind::Z:
        one(GateKind::S);
        one(GateKind::S);
        return out;
      case GateKind::Y:
        // Y ∝ X·Z: apply Z then X (time order Z, X).
        one(GateKind::S);
        one(GateKind::S);
        one(GateKind::X);
        return out;
      case GateKind::SX:
        // SX ∝ Rx(π/2) = H Rz(π/2) H ∝ H S H.
        one(GateKind::H);
        one(GateKind::S);
        one(GateKind::H);
        return out;
      case GateKind::SXdg:
        one(GateKind::H);
        one(GateKind::Sdg);
        one(GateKind::H);
        return out;
      case GateKind::Rz:
      case GateKind::U1:
        return rzToCliffordT(gate.params[0], q);
      case GateKind::Rx:
        one(GateKind::H);
        extend(rzToCliffordT(gate.params[0], q));
        one(GateKind::H);
        return out;
      case GateKind::Ry:
        // Ry(θ) = S Rx(θ) S† (matrix order): time order S†, Rx, S.
        one(GateKind::Sdg);
        one(GateKind::H);
        extend(rzToCliffordT(gate.params[0], q));
        one(GateKind::H);
        one(GateKind::S);
        return out;
      case GateKind::U2:
      case GateKind::U3: {
        // U3(θ,φ,λ) ∝ Rz(φ) Ry(θ) Rz(λ): representable when all three
        // angles are π/4 multiples.
        const double theta =
            gate.kind == GateKind::U2 ? M_PI / 2 : gate.params[0];
        const double phi =
            gate.kind == GateKind::U2 ? gate.params[0] : gate.params[1];
        const double lam =
            gate.kind == GateKind::U2 ? gate.params[1] : gate.params[2];
        extend(rzToCliffordT(lam, q));
        extend(oneQubitCliffordT(
            Gate(GateKind::Ry, {q}, {theta})));
        extend(rzToCliffordT(phi, q));
        return out;
      }
      default:
        support::fatal(support::strcat(
            "oneQubitCliffordT: no exact Clifford+T expansion for ",
            ir::gateName(gate.kind)));
    }
}

} // namespace transpile
} // namespace guoq
