#include "ir/gate.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "support/logging.h"

namespace guoq {
namespace ir {

Gate::Gate(GateKind k, GateArgsRef<int> qs, GateArgsRef<double> ps)
    : kind(k)
{
    const std::span<const int> q = qs.span();
    const std::span<const double> p = ps.span();
    if (static_cast<int>(q.size()) != gateArity(kind))
        support::panic(support::strcat("Gate(", gateName(kind), "): want ",
                                       gateArity(kind), " qubits, got ",
                                       q.size()));
    if (static_cast<int>(p.size()) != gateParamCount(kind))
        support::panic(support::strcat("Gate(", gateName(kind), "): want ",
                                       gateParamCount(kind),
                                       " params, got ", p.size()));
    std::copy(q.begin(), q.end(), qubits.v_.begin());
    qubits.n_ = static_cast<std::uint8_t>(q.size());
    std::copy(p.begin(), p.end(), params.v_.begin());
    params.n_ = static_cast<std::uint8_t>(p.size());
}

linalg::ComplexMatrix
Gate::matrix() const
{
    const std::size_t dim = std::size_t{1} << arity();
    linalg::ComplexMatrix m(dim, dim);
    gateMatrixInto(kind, params.data(), m.data());
    return m;
}

std::vector<Gate>
Gate::inverse() const
{
    switch (kind) {
      case GateKind::H:
      case GateKind::X:
      case GateKind::Y:
      case GateKind::Z:
      case GateKind::CX:
      case GateKind::CZ:
      case GateKind::Swap:
      case GateKind::CCX:
      case GateKind::CCZ:
        return {*this};
      case GateKind::S:
        return {Gate(GateKind::Sdg, qubits)};
      case GateKind::Sdg:
        return {Gate(GateKind::S, qubits)};
      case GateKind::T:
        return {Gate(GateKind::Tdg, qubits)};
      case GateKind::Tdg:
        return {Gate(GateKind::T, qubits)};
      case GateKind::SX:
        return {Gate(GateKind::SXdg, qubits)};
      case GateKind::SXdg:
        return {Gate(GateKind::SX, qubits)};
      case GateKind::Rx:
      case GateKind::Ry:
      case GateKind::Rz:
      case GateKind::U1:
      case GateKind::Rxx:
      case GateKind::CP:
        return {Gate(kind, qubits, {-params[0]})};
      case GateKind::U2:
        // U2(φ,λ) = U3(π/2,φ,λ); U3(θ,φ,λ)⁻¹ = U3(-θ,-λ,-φ).
        return {Gate(GateKind::U3, qubits,
                     {-M_PI / 2, -params[1], -params[0]})};
      case GateKind::U3:
        return {Gate(GateKind::U3, qubits,
                     {-params[0], -params[2], -params[1]})};
      default:
        support::panic("Gate::inverse: unhandled kind");
    }
}

bool
Gate::sameQubits(const Gate &other) const
{
    return qubits == other.qubits;
}

bool
Gate::overlaps(const Gate &other) const
{
    for (int q : qubits)
        for (int p : other.qubits)
            if (q == p)
                return true;
    return false;
}

bool
Gate::actsOn(int q) const
{
    return std::find(qubits.begin(), qubits.end(), q) != qubits.end();
}

std::string
Gate::toString() const
{
    std::ostringstream os;
    os << gateName(kind);
    if (!params.empty()) {
        os << '(';
        for (std::size_t i = 0; i < params.size(); ++i) {
            if (i)
                os << ", ";
            os << params[i];
        }
        os << ')';
    }
    os << ' ';
    for (std::size_t i = 0; i < qubits.size(); ++i) {
        if (i)
            os << ", ";
        os << 'q' << qubits[i];
    }
    return os.str();
}

bool
Gate::operator==(const Gate &other) const
{
    if (kind != other.kind || qubits != other.qubits)
        return false;
    if (params.size() != other.params.size())
        return false;
    for (std::size_t i = 0; i < params.size(); ++i)
        if (std::abs(params[i] - other.params[i]) > 1e-12)
            return false;
    return true;
}

double
normalizeAngle(double theta)
{
    const double twoPi = 2 * M_PI;
    double t = std::fmod(theta, twoPi);
    if (t > M_PI)
        t -= twoPi;
    else if (t <= -M_PI)
        t += twoPi;
    return t;
}

bool
isZeroAngle(double theta, double tol)
{
    return std::abs(normalizeAngle(theta)) <= tol;
}

} // namespace ir
} // namespace guoq
