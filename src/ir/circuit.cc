#include "ir/circuit.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "support/logging.h"

namespace guoq {
namespace ir {

Circuit::Circuit(int num_qubits) : numQubits_(num_qubits)
{
    if (num_qubits < 0)
        support::panic("Circuit with negative qubit count");
}

void
Circuit::add(Gate g)
{
    for (std::size_t i = 0; i < g.qubits.size(); ++i) {
        const int q = g.qubits[i];
        if (q < 0 || q >= numQubits_)
            support::panic(support::strcat("gate ", g.toString(),
                                           " out of range for ", numQubits_,
                                           " qubits"));
        for (std::size_t j = i + 1; j < g.qubits.size(); ++j)
            if (g.qubits[j] == q)
                support::panic(support::strcat("gate ", g.toString(),
                                               " repeats qubit ", q));
    }
    gates_.push_back(std::move(g));
}

void
Circuit::add(GateKind kind, GateArgsRef<int> qubits,
             GateArgsRef<double> params)
{
    add(Gate(kind, qubits, params));
}

void
Circuit::append(const Circuit &other)
{
    if (other.numQubits_ > numQubits_)
        support::panic("append: other circuit has more qubits");
    for (const Gate &g : other.gates_)
        add(g);
}

std::size_t
Circuit::twoQubitGateCount() const
{
    std::size_t n = 0;
    for (const Gate &g : gates_)
        if (g.arity() == 2)
            ++n;
    return n;
}

std::size_t
Circuit::tGateCount() const
{
    std::size_t n = 0;
    for (const Gate &g : gates_)
        if (isTGate(g.kind))
            ++n;
    return n;
}

CircuitCounts
Circuit::counts() const
{
    CircuitCounts k;
    k.gates = gates_.size();
    for (const Gate &g : gates_) {
        if (g.arity() == 2)
            ++k.twoQubit;
        if (isTGate(g.kind))
            ++k.tGates;
    }
    return k;
}

std::size_t
Circuit::countOf(GateKind kind) const
{
    std::size_t n = 0;
    for (const Gate &g : gates_)
        if (g.kind == kind)
            ++n;
    return n;
}

std::size_t
Circuit::depth() const
{
    std::vector<std::size_t> frontier(static_cast<std::size_t>(numQubits_),
                                      0);
    std::size_t d = 0;
    for (const Gate &g : gates_) {
        std::size_t layer = 0;
        for (int q : g.qubits)
            layer = std::max(layer, frontier[static_cast<std::size_t>(q)]);
        ++layer;
        for (int q : g.qubits)
            frontier[static_cast<std::size_t>(q)] = layer;
        d = std::max(d, layer);
    }
    return d;
}

Circuit
Circuit::inverse() const
{
    Circuit inv(numQubits_);
    for (auto it = gates_.rbegin(); it != gates_.rend(); ++it)
        for (Gate &g : it->inverse())
            inv.add(std::move(g));
    return inv;
}

Circuit
Circuit::remapped(const std::vector<int> &mapping, int new_num_qubits) const
{
    if (mapping.size() != static_cast<std::size_t>(numQubits_))
        support::panic("remapped: mapping size mismatch");
    Circuit out(new_num_qubits);
    for (const Gate &g : gates_) {
        Gate ng = g;
        for (auto &q : ng.qubits)
            q = mapping[static_cast<std::size_t>(q)];
        out.add(std::move(ng));
    }
    return out;
}

std::vector<int>
Circuit::usedQubits() const
{
    std::set<int> used;
    for (const Gate &g : gates_)
        used.insert(g.qubits.begin(), g.qubits.end());
    return {used.begin(), used.end()};
}

std::string
Circuit::toString() const
{
    std::ostringstream os;
    os << "circuit(" << numQubits_ << " qubits, " << gates_.size()
       << " gates)\n";
    for (const Gate &g : gates_)
        os << "  " << g.toString() << '\n';
    return os.str();
}

} // namespace ir
} // namespace guoq
