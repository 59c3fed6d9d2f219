#include "ir/gate_set.h"

#include <iterator>

#include "support/logging.h"

namespace guoq {
namespace ir {

const std::vector<GateSetKind> &
allGateSets()
{
    static const std::vector<GateSetKind> sets = {
        GateSetKind::Ibmq20, GateSetKind::IbmEagle, GateSetKind::IonQ,
        GateSetKind::Nam, GateSetKind::CliffordT,
    };
    return sets;
}

const std::string &
gateSetName(GateSetKind set)
{
    static const std::string names[] = {"ibmq20", "ibm-eagle", "ionq", "nam",
                                        "cliffordt"};
    return names[static_cast<int>(set)];
}

const std::string &
gateSetArchitecture(GateSetKind set)
{
    static const std::string archs[] = {"Superconducting", "Superconducting",
                                        "Ion Trap", "None",
                                        "Fault Tolerant"};
    return archs[static_cast<int>(set)];
}

const std::vector<GateKind> &
nativeGates(GateSetKind set)
{
    using namespace detail;
    static const std::vector<GateKind> lists[] = {
        {std::begin(kIbmq20Native), std::end(kIbmq20Native)},
        {std::begin(kEagleNative), std::end(kEagleNative)},
        {std::begin(kIonqNative), std::end(kIonqNative)},
        {std::begin(kNamNative), std::end(kNamNative)},
        {std::begin(kCliffordTNative), std::end(kCliffordTNative)},
    };
    const auto i = static_cast<std::size_t>(set);
    if (i >= std::size(lists))
        support::panic("bad GateSetKind");
    return lists[i];
}

bool
isFinite(GateSetKind set)
{
    return set == GateSetKind::CliffordT;
}

GateKind
entanglingGate(GateSetKind set)
{
    return set == GateSetKind::IonQ ? GateKind::Rxx : GateKind::CX;
}

} // namespace ir
} // namespace guoq
