/**
 * @file
 * A gate instance: a kind applied to specific qubits with bound angles.
 */

#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "ir/gate_kind.h"
#include "linalg/complex_matrix.h"

namespace guoq {
namespace ir {

/** Most qubits (CCX/CCZ) and most params (U3) of any gate kind. */
constexpr std::size_t kMaxGateArgs = 3;

/**
 * A gate's qubits or params: at most kMaxGateArgs values stored
 * inline, so a Gate owns no heap memory and copies as plain bytes.
 * Reads like a std::vector whose length is fixed (size, indexing,
 * iteration) and converts to std::span<const T>; only a Gate
 * constructor sets the length, which always equals the kind's arity
 * or param count.
 */
template <typename T>
class GateArgs
{
  public:
    using value_type = T;
    using iterator = T *;
    using const_iterator = const T *;

    std::size_t size() const { return n_; }
    bool empty() const { return n_ == 0; }
    const T *data() const { return v_.data(); }
    T &operator[](std::size_t i) { return v_[i]; }
    const T &operator[](std::size_t i) const { return v_[i]; }
    T *begin() { return v_.data(); }
    T *end() { return v_.data() + n_; }
    const T *begin() const { return v_.data(); }
    const T *end() const { return v_.data() + n_; }
    std::span<const T> span() const { return {v_.data(), n_}; }

    friend bool
    operator==(const GateArgs &a, const GateArgs &b)
    {
        return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }

  private:
    friend struct Gate;
    std::array<T, kMaxGateArgs> v_{};
    std::uint8_t n_ = 0;
};

/**
 * The qubits or params a Gate is built from, borrowed for the call: a
 * braced list, a std::vector, a span or another gate's GateArgs.
 */
template <typename T>
class GateArgsRef
{
  public:
    GateArgsRef() = default;
    GateArgsRef(std::initializer_list<T> l) : s_(l.begin(), l.size()) {}
    template <typename R>
        requires std::is_convertible_v<const R &, std::span<const T>>
    GateArgsRef(const R &r) : s_(r)
    {
    }

    std::span<const T> span() const { return s_; }

  private:
    std::span<const T> s_;
};

/** One gate application in a circuit. */
struct Gate
{
    GateKind kind = GateKind::X;
    GateArgs<int> qubits;    //!< first qubit = matrix MSB
    GateArgs<double> params; //!< size == gateParamCount(kind)

    Gate() = default;
    /**
     * Panics unless @p qs holds gateArity(@p k) qubits and @p ps
     * gateParamCount(@p k) params.
     */
    Gate(GateKind k, GateArgsRef<int> qs, GateArgsRef<double> ps = {});

    int arity() const { return static_cast<int>(qubits.size()); }

    /** The 2^m x 2^m unitary of this gate (local to its qubits). */
    linalg::ComplexMatrix matrix() const;

    /**
     * A gate (or pair) implementing the inverse. Most kinds invert to a
     * single gate; U2 inverts to a U3.
     */
    std::vector<Gate> inverse() const;

    /** True when both act on the same qubits in the same order. */
    bool sameQubits(const Gate &other) const;

    /** True when the two gates share at least one qubit. */
    bool overlaps(const Gate &other) const;

    /** True when @p q is one of this gate's qubits. */
    bool actsOn(int q) const;

    /** "cx q0, q1" / "rz(0.5) q3" textual form. */
    std::string toString() const;

    bool operator==(const Gate &other) const;
};

static_assert(std::is_trivially_copyable_v<Gate>);

/** Normalize an angle into (-π, π]. */
double normalizeAngle(double theta);

/** True when the angle is ~0 modulo 2π (gate acts as identity). */
bool isZeroAngle(double theta, double tol = 1e-12);

} // namespace ir
} // namespace guoq
