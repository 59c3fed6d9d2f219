#include "transpile/to_gate_set.h"

#include <algorithm>
#include <cmath>

#include "support/logging.h"

namespace guoq {
namespace transpile {

namespace {

using ir::Gate;
using ir::GateKind;

/** Emit @p gate re-expressed in the native 1q basis of @p set. */
void
emitOneQubit(ir::Circuit *out, const Gate &gate, ir::GateSetKind set)
{
    if (ir::isNative(set, gate.kind)) {
        out->add(gate);
        return;
    }
    if (set == ir::GateSetKind::CliffordT) {
        for (Gate &g : oneQubitCliffordT(gate))
            out->add(std::move(g));
        return;
    }
    for (Gate &g : oneQubitToNative(gate.matrix(), gate.qubits[0], set))
        out->add(std::move(g));
}

} // namespace

ir::Circuit
toGateSet(const ir::Circuit &c, ir::GateSetKind set)
{
    const ir::Circuit cx_based = expandToCxBasis(c);
    ir::Circuit out(c.numQubits());
    for (const Gate &gate : cx_based.gates()) {
        if (gate.arity() == 2) {
            // expandToCxBasis leaves only CX at arity 2.
            if (set == ir::GateSetKind::IonQ) {
                for (Gate &g : cxViaRxx(gate.qubits[0], gate.qubits[1]))
                    out.add(std::move(g));
            } else {
                out.add(gate);
            }
        } else {
            emitOneQubit(&out, gate, set);
        }
    }
    return out;
}

bool
allNative(const ir::Circuit &c, ir::GateSetKind set)
{
    for (const Gate &g : c.gates())
        if (!ir::isNative(set, g.kind))
            return false;
    return true;
}

bool
fuseRun(std::span<const ir::Gate *const> run, ir::GateSetKind set,
        OneQubitSeq &fused)
{
    if (set == ir::GateSetKind::CliffordT || run.size() < 2)
        return false;
    // Product in time order: later gates multiply on the left. The
    // 2x2 products repeat ComplexMatrix::operator*'s loop (zero start,
    // exactly-zero left entries skipped), so the bits match it.
    using linalg::Complex;
    Complex u[4];
    ir::gateMatrixInto(run[0]->kind, run[0]->params.data(), u);
    for (std::size_t i = 1; i < run.size(); ++i) {
        Complex g[4];
        ir::gateMatrixInto(run[i]->kind, run[i]->params.data(), g);
        Complex p[4] = {};
        for (std::size_t r = 0; r < 2; ++r) {
            for (std::size_t k = 0; k < 2; ++k) {
                const Complex a = g[r * 2 + k];
                if (a == Complex{})
                    continue;
                for (std::size_t j = 0; j < 2; ++j)
                    p[r * 2 + j] += a * u[k * 2 + j];
            }
        }
        std::copy(p, p + 4, u);
    }
    oneQubitToNativeInto(u, set, fused);
    return fused.size < run.size();
}

ir::Circuit
fuseOneQubitRuns(const ir::Circuit &c, ir::GateSetKind set,
                 ir::DerivationStep *step)
{
    const Gate *base = c.gates().data();
    auto keep = [step, base](const Gate *g) {
        if (step != nullptr)
            step->emit(ir::DerivationRun::kKept,
                       static_cast<std::uint32_t>(g - base));
    };
    if (set == ir::GateSetKind::CliffordT) {
        // Finite basis: no continuous Euler form to fuse into.
        for (const Gate &g : c.gates())
            keep(&g);
        return c;
    }

    ir::Circuit out(c.numQubits());
    // Pending run of 1q gates per wire, in time order.
    std::vector<std::vector<const Gate *>> runs(
        static_cast<std::size_t>(c.numQubits()));
    OneQubitSeq fused;

    auto flush = [&](std::vector<const Gate *> &run) {
        if (fuseRun(run, set, fused)) {
            std::vector<Gate> refit = fused.gates(run[0]->qubits[0]);
            if (step != nullptr) {
                ir::DerivationBlock b;
                for (const Gate *g : run)
                    b.gates.push_back(static_cast<std::uint32_t>(g - base));
                b.replacement = refit;
                step->blocks.push_back(std::move(b));
                step->emitBlock(step->blocks.size() - 1);
            }
            for (Gate &g : refit)
                out.add(std::move(g));
        } else {
            for (const Gate *g : run) {
                out.add(*g);
                keep(g);
            }
        }
        run.clear();
    };

    for (const Gate &g : c.gates()) {
        if (g.arity() == 1 && ir::isNative(set, g.kind)) {
            runs[static_cast<std::size_t>(g.qubits[0])].push_back(&g);
        } else {
            for (int q : g.qubits)
                flush(runs[static_cast<std::size_t>(q)]);
            out.add(g);
            keep(&g);
        }
    }
    for (auto &run : runs)
        flush(run);
    return out;
}

} // namespace transpile
} // namespace guoq
