/** @file The legacy dense instantiation kernel, kept as an oracle. */

#include "reference/instantiate.h"

#include <algorithm>
#include <cmath>

#include "linalg/unitary.h"
#include "sim/kernels.h"
#include "support/logging.h"

namespace guoq {
namespace reference {

namespace {

using linalg::Complex;
using linalg::ComplexMatrix;

bool
isZero(Complex c)
{
    return c.real() == 0.0 && c.imag() == 0.0;
}

bool
isOne(Complex c)
{
    return c.real() == 1.0 && c.imag() == 0.0;
}

/** If @p g is diagonal, fill @p d with its diagonal and return true. */
bool
diagonalOf(const ComplexMatrix &g, std::vector<Complex> &d)
{
    const std::size_t span = g.rows();
    d.resize(span);
    for (std::size_t a = 0; a < span; ++a) {
        for (std::size_t b = 0; b < span; ++b)
            if (a != b && !isZero(g(a, b)))
                return false;
        d[a] = g(a, a);
    }
    return true;
}

/**
 * If @p g is a phased involutive permutation (exactly one nonzero per
 * row, and the permutation is its own inverse — X, Y, CX, Swap, CCX,
 * ... all qualify), fill p/ph with out[a] = ph[a] * in[p[a]] and
 * return true.
 */
bool
permutationOf(const ComplexMatrix &g, std::vector<std::size_t> &p,
              std::vector<Complex> &ph)
{
    const std::size_t span = g.rows();
    p.assign(span, span);
    ph.resize(span);
    for (std::size_t a = 0; a < span; ++a) {
        for (std::size_t b = 0; b < span; ++b) {
            if (isZero(g(a, b)))
                continue;
            if (p[a] != span)
                return false; // second nonzero in this row
            p[a] = b;
            ph[a] = g(a, b);
        }
        if (p[a] == span)
            return false; // all-zero row (not a unitary anyway)
    }
    for (std::size_t a = 0; a < span; ++a)
        if (p[p[a]] != a)
            return false; // not an involution; take the dense path
    return true;
}

/**
 * Expand @p i by inserting zero bits at the (ascending) positions in
 * @p pos — the standard enumeration of base indices whose gate-qubit
 * bits are all zero.
 */
std::size_t
expandIndex(std::size_t i, const std::vector<int> &pos)
{
    std::size_t r = i;
    for (int p : pos) {
        const std::size_t low = r & ((std::size_t{1} << p) - 1);
        r = ((r >> p) << (p + 1)) | low;
    }
    return r;
}

/** Tr(A · B) without forming the product: Σ_ij A_ij B_ji. */
Complex
traceOfProduct(const ComplexMatrix &a, const ComplexMatrix &b)
{
    const std::size_t n = a.rows();
    Complex t = 0;
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            t += a(i, j) * b(j, i);
    return t;
}

/** The concrete gate for an ansatz slot under @p params. */
ir::Gate
bindGate(const synth::AnsatzGate &g, const std::vector<double> &params)
{
    std::vector<double> ps;
    if (ir::gateParamCount(g.kind) == 1)
        ps.push_back(g.paramIndex >= 0
                         ? params[static_cast<std::size_t>(g.paramIndex)]
                         : g.fixedParam);
    return ir::Gate(g.kind, g.qubits, ps);
}

/**
 * Left-multiply @p m by the Pauli generator P of slot @p g (Z for Rz,
 * Y for Ry, X⊗X for Rxx) so that ∂G/∂θ · rest = -i/2 · P · G · rest.
 */
void
applyGenerator(ComplexMatrix &m, const synth::AnsatzGate &g,
               int num_qubits)
{
    switch (g.kind) {
      case ir::GateKind::Rz:
        applyGate(m, ir::Gate(ir::GateKind::Z, {g.qubits[0]}), num_qubits);
        return;
      case ir::GateKind::Ry:
        applyGate(m, ir::Gate(ir::GateKind::Y, {g.qubits[0]}), num_qubits);
        return;
      case ir::GateKind::Rx:
        applyGate(m, ir::Gate(ir::GateKind::X, {g.qubits[0]}), num_qubits);
        return;
      case ir::GateKind::Rxx:
        applyGate(m, ir::Gate(ir::GateKind::X, {g.qubits[0]}), num_qubits);
        applyGate(m, ir::Gate(ir::GateKind::X, {g.qubits[1]}), num_qubits);
        return;
      default:
        support::panic("applyGenerator: unsupported parameterized kind");
    }
}

} // namespace

void
applyGate(ComplexMatrix &u, const ir::Gate &gate, int num_qubits)
{
    const int m = gate.arity();
    const std::size_t dim = std::size_t{1} << num_qubits;
    const std::size_t span = std::size_t{1} << m;
    if (u.rows() != dim || u.cols() != dim)
        support::panic("applyGate: matrix size mismatch");

    const ComplexMatrix g = gate.matrix();

    // Bit position of each gate qubit; gate.qubits[0] is the MSB of the
    // gate's local index.
    std::vector<int> bitpos(static_cast<std::size_t>(m));
    for (int k = 0; k < m; ++k)
        bitpos[static_cast<std::size_t>(k)] =
            num_qubits - 1 - gate.qubits[static_cast<std::size_t>(k)];

    // Offsets: local index a -> global offset of its set bits.
    std::vector<std::size_t> offset(span, 0);
    for (std::size_t a = 0; a < span; ++a)
        for (int k = 0; k < m; ++k)
            if (a & (std::size_t{1} << (m - 1 - k)))
                offset[a] |= std::size_t{1}
                             << bitpos[static_cast<std::size_t>(k)];

    std::vector<int> sorted_pos = bitpos;
    std::sort(sorted_pos.begin(), sorted_pos.end());

    const std::size_t groups = dim >> m;
    Complex *data = u.data();

    // Row-major storage: gate application mixes whole rows, so work
    // row-at-a-time (unit stride) instead of column-at-a-time.
    // Diagonal gates scale rows in place and phased involutive
    // permutations (X, CX, Swap, ...) move rows without a matvec —
    // both bit-identical to the dense path's arithmetic.
    std::vector<Complex> diag;
    if (diagonalOf(g, diag)) {
        for (std::size_t i = 0; i < groups; ++i) {
            const std::size_t base = expandIndex(i, sorted_pos);
            for (std::size_t a = 0; a < span; ++a)
                if (!isOne(diag[a]))
                    sim::kernels::scaleRange(data + (base + offset[a]) * dim,
                                        dim, diag[a]);
        }
        return;
    }

    std::vector<std::size_t> perm;
    std::vector<Complex> phase;
    if (permutationOf(g, perm, phase)) {
        std::vector<Complex> tmp(dim);
        for (std::size_t i = 0; i < groups; ++i) {
            const std::size_t base = expandIndex(i, sorted_pos);
            for (std::size_t a = 0; a < span; ++a) {
                const std::size_t b = perm[a];
                if (b == a) {
                    if (!isOne(phase[a]))
                        sim::kernels::scaleRange(
                            data + (base + offset[a]) * dim, dim,
                            phase[a]);
                    continue;
                }
                if (b < a)
                    continue; // handled as the partner of its pair
                Complex *rowA = data + (base + offset[a]) * dim;
                Complex *rowB = data + (base + offset[b]) * dim;
                if (isOne(phase[a]) && isOne(phase[b])) {
                    std::swap_ranges(rowA, rowA + dim, rowB);
                } else {
                    std::copy(rowA, rowA + dim, tmp.begin());
                    for (std::size_t col = 0; col < dim; ++col)
                        rowA[col] = phase[a] * rowB[col];
                    for (std::size_t col = 0; col < dim; ++col)
                        rowB[col] = phase[b] * tmp[col];
                }
            }
        }
        return;
    }

    std::vector<Complex *> row(span);
    std::vector<Complex> in(span);
    for (std::size_t i = 0; i < groups; ++i) {
        const std::size_t base = expandIndex(i, sorted_pos);
        for (std::size_t a = 0; a < span; ++a)
            row[a] = data + (base + offset[a]) * dim;
        for (std::size_t col = 0; col < dim; ++col) {
            for (std::size_t a = 0; a < span; ++a)
                in[a] = row[a][col];
            for (std::size_t a = 0; a < span; ++a) {
                Complex acc = 0;
                for (std::size_t b = 0; b < span; ++b)
                    acc += g(a, b) * in[b];
                row[a][col] = acc;
            }
        }
    }
}

double
hsCostAndGrad(const synth::Ansatz &ansatz, const ComplexMatrix &target,
              const std::vector<double> &params, std::vector<double> *grad)
{
    const int nq = ansatz.numQubits();
    const std::size_t dim = std::size_t{1} << nq;
    const double n = static_cast<double>(dim);
    const auto &gates = ansatz.gates();
    const std::size_t m = gates.size();

    // Cumulative prefixes P_k = F_k ... F_0 (P_{m-1} is the full V).
    std::vector<ComplexMatrix> prefix(m);
    ComplexMatrix cum = ComplexMatrix::identity(dim);
    for (std::size_t k = 0; k < m; ++k) {
        applyGate(cum, bindGate(gates[k], params), nq);
        prefix[k] = cum;
    }
    const ComplexMatrix &v = m == 0 ? cum : prefix[m - 1];

    const ComplexMatrix udag = target.dagger();
    const Complex t = traceOfProduct(udag, v);
    const double abs_t = std::abs(t);
    const double cost = std::max(0.0, 1.0 - abs_t / n);
    if (!grad)
        return cost;

    grad->assign(static_cast<std::size_t>(ansatz.numParams()), 0.0);
    if (abs_t < 1e-300)
        return cost; // gradient of |T| undefined at T = 0
    const Complex t_dir = std::conj(t) / abs_t;

    // B_k = U† · F_{m-1} ... F_{k+1}; starts at U† and absorbs F_k
    // from the right after each step.
    ComplexMatrix b = udag;
    for (std::size_t k = m; k-- > 0;) {
        const synth::AnsatzGate &g = gates[k];
        if (g.paramIndex >= 0) {
            // dV/dθ_k = B_k† ... = A_{k+1} · (-i/2 P_k) · prefix_k.
            ComplexMatrix pp = prefix[k];
            applyGenerator(pp, g, nq);
            const Complex dt =
                Complex(0, -0.5) * traceOfProduct(b, pp);
            (*grad)[static_cast<std::size_t>(g.paramIndex)] =
                -(1.0 / n) * std::real(t_dir * dt);
        }
        if (k > 0) {
            // Absorb F_k into B (right multiplication).
            ComplexMatrix f = ComplexMatrix::identity(dim);
            applyGate(f, bindGate(g, params), nq);
            b = b * f;
        }
    }
    return cost;
}

namespace {

/** The legacy linalg::minimizeAdam's result. */
struct AdamResult
{
    std::vector<double> x;
    double value = 0;
    bool converged = false;
    int evaluations = 0;
    int gradients = 0;
};

/** The legacy linalg::minimizeAdam, counting its calls. */
AdamResult
minimizeAdam(synth::AnsatzEvaluator &eval, std::vector<double> x0,
             double tolerance, const support::Deadline &deadline)
{
    constexpr int kMaxIters = 600;
    constexpr double kLearningRate = 0.1;
    const std::size_t n = x0.size();
    std::vector<double> g(n), m(n, 0.0), v(n, 0.0);
    AdamResult best;
    best.x = x0;
    best.value = eval.costAndGrad(x0, nullptr);
    best.evaluations = 1;

    std::vector<double> x = std::move(x0);
    const double b1 = 0.9, b2 = 0.999, epsn = 1e-8;
    double b1t = 1.0, b2t = 1.0;
    int flat = 0;
    double prev = best.value;
    double stall_ref = best.value;
    int stall = 0;

    for (int it = 0; it < kMaxIters; ++it) {
        if ((it & 31) == 0 && deadline.expired())
            break;
        const double fx = eval.costAndGrad(x, &g);
        ++best.evaluations;
        ++best.gradients;
        if (fx < best.value) {
            best.value = fx;
            best.x = x;
        }
        if (fx <= tolerance)
            break;
        if (best.value < stall_ref * (1.0 - 1e-3) ||
            best.value < stall_ref - 1e-9) {
            stall_ref = best.value;
            stall = 0;
        } else if (++stall > 140) {
            break;
        }
        if (std::abs(prev - fx) < 1e-14 * std::max(1.0, std::abs(fx))) {
            if (++flat > 40)
                break;
        } else {
            flat = 0;
        }
        prev = fx;

        b1t *= b1;
        b2t *= b2;
        for (std::size_t i = 0; i < n; ++i) {
            m[i] = b1 * m[i] + (1 - b1) * g[i];
            v[i] = b2 * v[i] + (1 - b2) * g[i] * g[i];
            const double mh = m[i] / (1 - b1t);
            const double vh = v[i] / (1 - b2t);
            x[i] -= kLearningRate * mh / (std::sqrt(vh) + epsn);
        }
    }
    best.converged = best.value <= tolerance;
    return best;
}

} // namespace

synth::InstantiateResult
instantiateAdam(const synth::Ansatz &ansatz, const ComplexMatrix &target,
                double eps, int restarts, support::Rng &rng,
                const support::Deadline &deadline,
                const std::vector<double> *hint)
{
    const double eps_eff = eps > 0 ? eps : 1e-7;
    const double cost_threshold =
        linalg::hsCostThresholdForDistance(eps_eff) * 0.25;
    synth::AnsatzEvaluator eval(ansatz, target);

    std::vector<double> x(static_cast<std::size_t>(ansatz.numParams()));
    for (std::size_t i = 0; i < x.size(); ++i) {
        if (hint && i < hint->size())
            x[i] = (*hint)[i] + rng.uniform(-0.05, 0.05);
        else
            x[i] = rng.uniform(-M_PI, M_PI);
    }
    AdamResult best;
    int evaluations = 0;
    int gradients = 0;
    for (int s = 0; s < std::max(restarts, 1); ++s) {
        if (s > 0) {
            if (best.converged || deadline.expired())
                break;
            for (double &xi : x)
                xi = rng.uniform(-M_PI, M_PI);
        }
        AdamResult r = minimizeAdam(eval, x, cost_threshold, deadline);
        evaluations += r.evaluations;
        gradients += r.gradients;
        if (s == 0 || r.value < best.value)
            best = std::move(r);
    }

    synth::InstantiateResult result;
    result.params = std::move(best.x);
    result.hsDistanceValue =
        std::sqrt(std::max(0.0, best.value * (2.0 - best.value)));
    result.success = result.hsDistanceValue <= eps_eff;
    result.evaluations = evaluations;
    result.jacobians = gradients;
    return result;
}

} // namespace reference
} // namespace guoq
