#include "dag/circuit_dag.h"

#include "support/logging.h"

namespace guoq {
namespace dag {

void
CircuitDag::rebuild(const ir::Circuit &c)
{
    const std::size_t n = c.size();
    const auto nq = static_cast<std::size_t>(c.numQubits());
    numQubits_ = c.numQubits();
    numGates_ = n;

    qubits_.resize(n * kMaxArity);
    nextLink_.resize(n * kMaxArity);
    prevLink_.resize(n * kMaxArity);
    first_.assign(nq, kNoGate);
    last_.resize(nq);
    frontier_.assign(nq, kNoGate);

    for (std::size_t i = 0; i < n; ++i) {
        const ir::Gate &g = c.gate(i);
        const std::size_t m = g.qubits.size();
        const std::size_t base = i * kMaxArity;
        for (std::size_t k = 0; k < kMaxArity; ++k) {
            qubits_[base + k] = k < m ? g.qubits[k] : -1;
            nextLink_[base + k] = kNoGate;
            prevLink_[base + k] = kNoGate;
        }
        for (std::size_t k = 0; k < m; ++k) {
            const auto q = static_cast<std::size_t>(g.qubits[k]);
            const std::size_t p = frontier_[q];
            if (p == kNoGate) {
                first_[q] = i;
            } else {
                // Link the previous gate's slot for this wire to us.
                nextLink_[p] = i;
                prevLink_[base + k] = p / kMaxArity;
            }
            frontier_[q] = base + k;
        }
    }
    for (std::size_t q = 0; q < nq; ++q)
        last_[q] = frontier_[q] == kNoGate ? kNoGate
                                           : frontier_[q] / kMaxArity;
}

void
CircuitDag::missingWire(std::size_t gate_idx, int q)
{
    support::panic(support::strcat("CircuitDag: gate ", gate_idx,
                                   " does not act on qubit ", q));
}

std::size_t
CircuitDag::firstOnWire(int q) const
{
    return first_[static_cast<std::size_t>(q)];
}

std::size_t
CircuitDag::lastOnWire(int q) const
{
    return last_[static_cast<std::size_t>(q)];
}

} // namespace dag
} // namespace guoq
