#include "ir/gate_kind.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <unordered_map>

#include "support/logging.h"

namespace guoq {
namespace ir {

namespace {

constexpr int kNumKinds = static_cast<int>(GateKind::NumKinds);

struct KindInfo
{
    const char *name;
    int arity;
    int params;
};

constexpr std::array<KindInfo, kNumKinds> kInfo = {{
    {"h", 1, 0},    {"x", 1, 0},    {"y", 1, 0},    {"z", 1, 0},
    {"s", 1, 0},    {"sdg", 1, 0},  {"t", 1, 0},    {"tdg", 1, 0},
    {"sx", 1, 0},   {"sxdg", 1, 0}, {"rx", 1, 1},   {"ry", 1, 1},
    {"rz", 1, 1},   {"u1", 1, 1},   {"u2", 1, 2},   {"u3", 1, 3},
    {"cx", 2, 0},   {"cz", 2, 0},   {"swap", 2, 0}, {"rxx", 2, 1},
    {"cp", 2, 1},   {"ccx", 3, 0},  {"ccz", 3, 0},
}};

const KindInfo &
info(GateKind kind)
{
    const int i = static_cast<int>(kind);
    if (i < 0 || i >= kNumKinds)
        support::panic("bad GateKind");
    return kInfo[static_cast<std::size_t>(i)];
}

using linalg::Complex;
using linalg::ComplexMatrix;

const Complex kI(0, 1);

} // namespace

int gateArity(GateKind kind) { return info(kind).arity; }
int gateParamCount(GateKind kind) { return info(kind).params; }

const std::string &
gateName(GateKind kind)
{
    static std::array<std::string, kNumKinds> names = [] {
        std::array<std::string, kNumKinds> n;
        for (int i = 0; i < kNumKinds; ++i)
            n[static_cast<std::size_t>(i)] =
                kInfo[static_cast<std::size_t>(i)].name;
        return n;
    }();
    return names[static_cast<std::size_t>(kind)];
}

bool
gateKindFromName(const std::string &name, GateKind *out)
{
    static const std::unordered_map<std::string, GateKind> map = [] {
        std::unordered_map<std::string, GateKind> m;
        for (int i = 0; i < kNumKinds; ++i)
            m[kInfo[static_cast<std::size_t>(i)].name] =
                static_cast<GateKind>(i);
        return m;
    }();
    const auto it = map.find(name);
    if (it == map.end())
        return false;
    *out = it->second;
    return true;
}

bool
isTwoQubitGate(GateKind kind)
{
    return gateArity(kind) == 2;
}

bool
isParameterized(GateKind kind)
{
    return gateParamCount(kind) > 0;
}

bool
isTGate(GateKind kind)
{
    return kind == GateKind::T || kind == GateKind::Tdg;
}

void
gateMatrixInto(GateKind kind, const double *params, Complex *out)
{
    const std::size_t span = std::size_t{1} << gateArity(kind);
    std::fill(out, out + span * span, Complex{});
    const auto mat1 = [out](Complex a, Complex b, Complex c, Complex d) {
        out[0] = a;
        out[1] = b;
        out[2] = c;
        out[3] = d;
    };
    const auto identity = [out, span] {
        for (std::size_t i = 0; i < span; ++i)
            out[i * span + i] = 1.0;
    };
    const double isq = 1.0 / std::sqrt(2.0);
    switch (kind) {
      case GateKind::H:
        return mat1(isq, isq, isq, -isq);
      case GateKind::X:
        return mat1(0, 1, 1, 0);
      case GateKind::Y:
        return mat1(0, -kI, kI, 0);
      case GateKind::Z:
        return mat1(1, 0, 0, -1);
      case GateKind::S:
        return mat1(1, 0, 0, kI);
      case GateKind::Sdg:
        return mat1(1, 0, 0, -kI);
      case GateKind::T:
        return mat1(1, 0, 0, std::polar(1.0, M_PI / 4));
      case GateKind::Tdg:
        return mat1(1, 0, 0, std::polar(1.0, -M_PI / 4));
      case GateKind::SX:
        return mat1(Complex(0.5, 0.5), Complex(0.5, -0.5),
                    Complex(0.5, -0.5), Complex(0.5, 0.5));
      case GateKind::SXdg:
        return mat1(Complex(0.5, -0.5), Complex(0.5, 0.5),
                    Complex(0.5, 0.5), Complex(0.5, -0.5));
      case GateKind::Rx: {
        const double c = std::cos(params[0] / 2), s = std::sin(params[0] / 2);
        return mat1(c, -kI * s, -kI * s, c);
      }
      case GateKind::Ry: {
        const double c = std::cos(params[0] / 2), s = std::sin(params[0] / 2);
        return mat1(c, -s, s, c);
      }
      case GateKind::Rz:
        return mat1(std::polar(1.0, -params[0] / 2), 0, 0,
                    std::polar(1.0, params[0] / 2));
      case GateKind::U1:
        return mat1(1, 0, 0, std::polar(1.0, params[0]));
      case GateKind::U2: {
        const double phi = params[0], lam = params[1];
        return mat1(isq, -isq * std::polar(1.0, lam),
                    isq * std::polar(1.0, phi),
                    isq * std::polar(1.0, phi + lam));
      }
      case GateKind::U3: {
        const double th = params[0], phi = params[1], lam = params[2];
        const double c = std::cos(th / 2), s = std::sin(th / 2);
        return mat1(c, -s * std::polar(1.0, lam), s * std::polar(1.0, phi),
                    c * std::polar(1.0, phi + lam));
      }
      case GateKind::CX:
        identity();
        out[2 * 4 + 2] = 0;
        out[3 * 4 + 3] = 0;
        out[2 * 4 + 3] = 1;
        out[3 * 4 + 2] = 1;
        return;
      case GateKind::CZ:
        identity();
        out[3 * 4 + 3] = -1;
        return;
      case GateKind::Swap:
        identity();
        out[1 * 4 + 1] = 0;
        out[2 * 4 + 2] = 0;
        out[1 * 4 + 2] = 1;
        out[2 * 4 + 1] = 1;
        return;
      case GateKind::Rxx: {
        const double c = std::cos(params[0] / 2), s = std::sin(params[0] / 2);
        for (std::size_t i = 0; i < 4; ++i) {
            out[i * 4 + i] = c;
            out[i * 4 + (3 - i)] = -kI * s;
        }
        return;
      }
      case GateKind::CP:
        identity();
        out[3 * 4 + 3] = std::polar(1.0, params[0]);
        return;
      case GateKind::CCX:
        identity();
        out[6 * 8 + 6] = 0;
        out[7 * 8 + 7] = 0;
        out[6 * 8 + 7] = 1;
        out[7 * 8 + 6] = 1;
        return;
      case GateKind::CCZ:
        identity();
        out[7 * 8 + 7] = -1;
        return;
      default:
        support::panic("gateMatrix: unhandled GateKind");
    }
}

ComplexMatrix
gateMatrix(GateKind kind, const std::vector<double> &params)
{
    if (static_cast<int>(params.size()) != gateParamCount(kind))
        support::panic(support::strcat("gateMatrix(", gateName(kind),
                                       "): want ", gateParamCount(kind),
                                       " params, got ", params.size()));
    const std::size_t span = std::size_t{1} << gateArity(kind);
    ComplexMatrix m(span, span);
    gateMatrixInto(kind, params.data(), m.data());
    return m;
}

} // namespace ir
} // namespace guoq
