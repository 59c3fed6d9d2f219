/**
 * @file
 * The five target gate sets of paper Table 2 and their registry.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ir/gate_kind.h"

namespace guoq {
namespace ir {

/** Target gate sets (paper Table 2). */
enum class GateSetKind
{
    Ibmq20,    //!< U1, U2, U3, CX (superconducting)
    IbmEagle,  //!< Rz, SX, X, CX (superconducting)
    IonQ,      //!< Rx, Ry, Rz, Rxx (ion trap)
    Nam,       //!< Rz, H, X, CX (abstract, Nam et al.)
    CliffordT, //!< T, T†, S, S†, H, X, CX (fault tolerant)
};

/** All gate sets, in Table 2 order. */
const std::vector<GateSetKind> &allGateSets();

/** Display name ("ibmq20", "ibm-eagle", ...). */
const std::string &gateSetName(GateSetKind set);

/** Architecture column of Table 2. */
const std::string &gateSetArchitecture(GateSetKind set);

namespace detail {

// The native kinds of each set, in listing order; indexed by
// GateSetKind.
inline constexpr GateKind kIbmq20Native[] = {GateKind::U1, GateKind::U2,
                                             GateKind::U3, GateKind::CX};
inline constexpr GateKind kEagleNative[] = {GateKind::Rz, GateKind::SX,
                                            GateKind::X, GateKind::CX};
inline constexpr GateKind kIonqNative[] = {GateKind::Rx, GateKind::Ry,
                                           GateKind::Rz, GateKind::Rxx};
inline constexpr GateKind kNamNative[] = {GateKind::Rz, GateKind::H,
                                          GateKind::X, GateKind::CX};
inline constexpr GateKind kCliffordTNative[] = {
    GateKind::T, GateKind::Tdg, GateKind::S, GateKind::Sdg,
    GateKind::H, GateKind::X,   GateKind::CX};

static_assert(static_cast<unsigned>(GateKind::NumKinds) <= 32,
              "native-kind masks are 32 bits wide");

/** Bit k set when GateKind k is in @p kinds. */
template <std::size_t N>
constexpr std::uint32_t
kindMask(const GateKind (&kinds)[N])
{
    std::uint32_t mask = 0;
    for (GateKind k : kinds)
        mask |= std::uint32_t{1} << static_cast<unsigned>(k);
    return mask;
}

inline constexpr std::uint32_t kNativeMask[] = {
    kindMask(kIbmq20Native), kindMask(kEagleNative), kindMask(kIonqNative),
    kindMask(kNamNative), kindMask(kCliffordTNative)};

} // namespace detail

/** The native gate kinds of @p set, in listing order. */
const std::vector<GateKind> &nativeGates(GateSetKind set);

/** True when @p kind is native to @p set: one load and a bit test. */
inline bool
isNative(GateSetKind set, GateKind kind)
{
    return (detail::kNativeMask[static_cast<int>(set)] >>
            static_cast<unsigned>(kind)) & 1u;
}

/** True when all gates of the circuit-level kind list are native. */
bool isFinite(GateSetKind set); //!< true only for Clifford+T

/**
 * The entangling (2-qubit) gate of @p set: CX everywhere except IonQ,
 * which uses Rxx.
 */
GateKind entanglingGate(GateSetKind set);

} // namespace ir
} // namespace guoq
