#include "synth/instantiate.h"

#include <algorithm>
#include <cmath>

#include "linalg/unitary.h"
#include "support/logging.h"

namespace guoq {
namespace synth {

using linalg::Complex;
using linalg::ComplexMatrix;

namespace {

bool
isOne(Complex c)
{
    return c.real() == 1.0 && c.imag() == 0.0;
}

// Damped steps per start. A start that converges takes a few tens; the
// slow-progress stop ends most that would not well before the cap.
constexpr int kMaxStepsPerStart = 100;

} // namespace

AnsatzEvaluator::AnsatzEvaluator(const Ansatz &ansatz,
                                 const ComplexMatrix &target)
    : numQubits_(ansatz.numQubits()),
      numParams_(static_cast<std::size_t>(ansatz.numParams())),
      dim_(std::size_t{1} << ansatz.numQubits())
{
    if (target.rows() != dim_ || target.cols() != dim_)
        support::panic(support::strcat(
            "AnsatzEvaluator: target is ", target.rows(), "x",
            target.cols(), ", want ", dim_, "x", dim_, " for ",
            numQubits_, " qubits"));

    const ComplexMatrix udag = target.dagger();
    udag_.assign(udag.data(), udag.data() + dim_ * dim_);

    slots_.resize(ansatz.gates().size());
    for (std::size_t k = 0; k < slots_.size(); ++k) {
        const AnsatzGate &g = ansatz.gates()[k];
        Slot &s = slots_[k];
        if (static_cast<int>(g.qubits.size()) != ir::gateArity(g.kind))
            support::panic(support::strcat(
                "AnsatzEvaluator: slot ", k, " (", ir::gateName(g.kind),
                ") has ", g.qubits.size(), " qubits"));
        if (ir::gateParamCount(g.kind) > 1)
            support::panic(support::strcat(
                "AnsatzEvaluator: slot ", k, " (", ir::gateName(g.kind),
                ") takes more than one angle"));
        s.gate.place(g.qubits.data(), static_cast<int>(g.qubits.size()),
                     numQubits_);
        s.kind = g.kind;
        s.paramIndex = g.paramIndex;
        if (g.paramIndex < 0) {
            s.gate.setMatrix(g.kind, &g.fixedParam);
            continue;
        }
        if (static_cast<std::size_t>(g.paramIndex) >= numParams_)
            support::panic("AnsatzEvaluator: parameter index out of range");
        switch (g.kind) {
          case ir::GateKind::Rz:
            s.gen = generatorFor(ir::GateKind::Z, g.qubits[0]);
            break;
          case ir::GateKind::Ry:
            s.gen = generatorFor(ir::GateKind::Y, g.qubits[0]);
            break;
          case ir::GateKind::Rx:
            s.gen = generatorFor(ir::GateKind::X, g.qubits[0]);
            break;
          case ir::GateKind::Rxx: {
            // X⊗X is X on one qubit after X on the other: two row
            // swaps, no arithmetic, so the rows compose exactly.
            const Generator x0 = generatorFor(ir::GateKind::X, g.qubits[0]);
            s.gen = generatorFor(ir::GateKind::X, g.qubits[1]);
            for (GeneratorRow &row : s.gen)
                row.src = x0[row.src].src;
            break;
          }
          default:
            support::panic("AnsatzEvaluator: unsupported parameterized "
                           "kind");
        }
    }
    arena_.resize((slots_.size() + 1) * dim_ * dim_);
}

AnsatzEvaluator::Generator
AnsatzEvaluator::generatorFor(ir::GateKind pauli, int qubit) const
{
    // Row j of P·M as sim::applyLeft(P) computes it: a diagonal entry
    // or a lone pair's phase scales the row, a pair with two unit
    // phases swaps it untouched.
    sim::BoundGate p;
    p.place(&qubit, 1, numQubits_);
    p.setMatrix(pauli, nullptr);
    Generator gen(dim_);
    for (std::size_t i = 0; i < dim_ / 2; ++i) {
        const std::size_t base = p.groupBase(i);
        for (std::size_t a = 0; a < 2; ++a) {
            GeneratorRow &row = gen[base + p.offset(a)];
            const std::size_t b =
                p.shape() == sim::BoundGate::Shape::Permutation ? p.perm(a)
                                                                : a;
            row.src = base + p.offset(b);
            row.phase = p.phase(a);
            row.mul = b == a ? !isOne(p.phase(a))
                             : !(isOne(p.phase(a)) && isOne(p.phase(b)));
        }
    }
    return gen;
}

Complex
AnsatzEvaluator::traceWithGenerator(const Complex *b, const Complex *m,
                                    const Generator &gen) const
{
    // Tr(B · P·M) = Σ_ij B_ij (P·M)_ji, summed in the order the dense
    // kernel's traceOfProduct summed it, with (P·M)_ji read from M.
    Complex t = 0;
    for (std::size_t i = 0; i < dim_; ++i) {
        const Complex *brow = b + i * dim_;
        for (std::size_t j = 0; j < dim_; ++j) {
            const GeneratorRow &row = gen[j];
            Complex x = m[row.src * dim_ + i];
            if (row.mul)
                x = linalg::mulFinite(x, row.phase);
            t += linalg::mulFinite(brow[j], x);
        }
    }
    return t;
}

Complex
AnsatzEvaluator::bindPrefixes(const std::vector<double> &params)
{
    if (params.size() != numParams_)
        support::panic(support::strcat("AnsatzEvaluator: ", params.size(),
                                       " params for ", numParams_,
                                       " free angles"));
    const std::size_t dim = dim_;
    const std::size_t dim2 = dim * dim;
    const std::size_t m = slots_.size();
    Complex *const arena = arena_.data();

    // Cumulative prefixes P_k = F_k ... F_0 in slots 0..m-1 (P_{m-1}
    // is the full V). Slot 0 starts as I, which is V when m = 0.
    std::fill(arena, arena + dim2, Complex{});
    for (std::size_t i = 0; i < dim; ++i)
        arena[i * dim + i] = 1.0;
    for (std::size_t k = 0; k < m; ++k) {
        Slot &s = slots_[k];
        if (s.paramIndex >= 0)
            s.gate.setMatrix(s.kind,
                             &params[static_cast<std::size_t>(s.paramIndex)]);
        Complex *cur = arena + k * dim2;
        if (k > 0)
            std::copy(cur - dim2, cur, cur);
        sim::applyLeft(cur, dim, s.gate);
    }
    const Complex *v = arena + (m == 0 ? 0 : m - 1) * dim2;

    // Tr(U† · V), in traceOfProduct's order.
    Complex t = 0;
    for (std::size_t i = 0; i < dim; ++i)
        for (std::size_t j = 0; j < dim; ++j)
            t += linalg::mulFinite(udag_[i * dim + j], v[j * dim + i]);
    return t;
}

double
AnsatzEvaluator::costAndGrad(const std::vector<double> &params,
                             std::vector<double> *grad)
{
    const Complex t = bindPrefixes(params);
    const std::size_t dim = dim_;
    const std::size_t dim2 = dim * dim;
    const double n = static_cast<double>(dim);
    const std::size_t m = slots_.size();
    Complex *const arena = arena_.data();
    const double abs_t = std::abs(t);
    const double cost = std::max(0.0, 1.0 - abs_t / n);
    if (!grad)
        return cost;

    grad->assign(numParams_, 0.0);
    if (abs_t < 1e-300)
        return cost; // gradient of |T| undefined at T = 0
    const Complex t_dir = std::conj(t) / abs_t;

    // B_k = U† · F_{m-1} ... F_{k+1}; starts at U† and absorbs F_k
    // from the right after each step.
    Complex *b = arena + m * dim2;
    std::copy(udag_.begin(), udag_.end(), b);
    for (std::size_t k = m; k-- > 0;) {
        const Slot &s = slots_[k];
        if (s.paramIndex >= 0) {
            // dV/dθ_k = B_k† ... = A_{k+1} · (-i/2 P_k) · prefix_k.
            const Complex dt =
                Complex(0, -0.5) *
                traceWithGenerator(b, arena + k * dim2, s.gen);
            (*grad)[static_cast<std::size_t>(s.paramIndex)] =
                -(1.0 / n) * std::real(t_dir * dt);
        }
        if (k > 0)
            sim::applyRight(b, dim, s.gate);
    }
    return cost;
}

double
AnsatzEvaluator::residuals(const std::vector<double> &params, double *r,
                           double *jac)
{
    const Complex t = bindPrefixes(params);
    const std::size_t dim = dim_;
    const std::size_t dim2 = dim * dim;
    const std::size_t rows = numResiduals();
    const std::size_t m = slots_.size();
    Complex *const arena = arena_.data();
    const double abs_t = std::abs(t);
    const double cost =
        std::max(0.0, 1.0 - abs_t / static_cast<double>(dim));
    // e^{-iφ}; any phase serves where T = 0 leaves φ undefined.
    const Complex align = abs_t < 1e-300 ? Complex(1.0) : std::conj(t) / abs_t;
    const Complex col_scale = linalg::mulFinite(align, Complex(0, -0.5));

    std::fill(jac, jac + rows * numParams_, 0.0);
    // The backward sweep of costAndGrad, carried one gate further:
    // after absorbing F_0, B is U†V = M.
    Complex *b = arena + m * dim2;
    std::copy(udag_.begin(), udag_.end(), b);
    for (std::size_t k = m; k-- > 0;) {
        const Slot &s = slots_[k];
        if (s.paramIndex >= 0) {
            // Column = col_scale · B_k · (P_k · prefix_k), where row l
            // of P_k · prefix_k is phase_l · prefix_k[src_l].
            const Complex *pre = arena + k * dim2;
            double *re = jac + static_cast<std::size_t>(s.paramIndex) * rows;
            double *im = re + dim2;
            for (std::size_t i = 0; i < dim; ++i) {
                for (std::size_t l = 0; l < dim; ++l) {
                    const GeneratorRow &row = s.gen[l];
                    Complex c = linalg::mulFinite(col_scale, b[i * dim + l]);
                    if (row.mul)
                        c = linalg::mulFinite(c, row.phase);
                    const Complex *src = pre + row.src * dim;
                    for (std::size_t j = 0; j < dim; ++j) {
                        const Complex x = linalg::mulFinite(c, src[j]);
                        re[i * dim + j] += x.real();
                        im[i * dim + j] += x.imag();
                    }
                }
            }
        }
        sim::applyRight(b, dim, s.gate);
    }

    for (std::size_t i = 0; i < dim2; ++i) {
        const Complex x = linalg::mulFinite(align, b[i]);
        r[i] = x.real();
        r[dim2 + i] = x.imag();
    }
    for (std::size_t i = 0; i < dim; ++i)
        r[i * dim + i] -= 1.0;
    return cost;
}

double
hsCostAndGrad(const Ansatz &ansatz, const ComplexMatrix &target,
              const std::vector<double> &params, std::vector<double> *grad)
{
    return AnsatzEvaluator(ansatz, target).costAndGrad(params, grad);
}

InstantiateResult
instantiate(const Ansatz &ansatz, const ComplexMatrix &target, double eps,
            int restarts, support::Rng &rng,
            const support::Deadline &deadline,
            const std::vector<double> *hint)
{
    const double eps_eff = eps > 0 ? eps : 1e-7;
    // Aim 4x under the threshold so measured distances land with
    // margin to spare after native re-expression noise.
    const double cost_threshold =
        linalg::hsCostThresholdForDistance(eps_eff) * 0.25;

    AnsatzEvaluator eval(ansatz, target);
    const linalg::ResidualFn residuals =
        [&eval](const std::vector<double> &x, double *r, double *jac) {
            return eval.residuals(x, r, jac);
        };
    const linalg::CostFn cost = [&eval](const std::vector<double> &x) {
        return eval.costAndGrad(x, nullptr);
    };

    linalg::MinimizeOptions opts;
    opts.maxIters = kMaxStepsPerStart;
    opts.tolerance = cost_threshold;
    opts.deadline = deadline;

    // First start: the warm-start hint when given (tail randomized),
    // otherwise fully random — the all-zero (identity) point is a
    // near-stationary plateau of the HS cost for most targets.
    std::vector<double> x(static_cast<std::size_t>(ansatz.numParams()));
    for (std::size_t i = 0; i < x.size(); ++i) {
        if (hint && i < hint->size())
            x[i] = (*hint)[i] + rng.uniform(-0.05, 0.05);
        else
            x[i] = rng.uniform(-M_PI, M_PI);
    }
    linalg::MinimizeResult best;
    int evaluations = 0;
    int jacobians = 0;
    for (int s = 0; s < std::max(restarts, 1); ++s) {
        if (s > 0) {
            if (best.converged || deadline.expired())
                break;
            for (double &xi : x)
                xi = rng.uniform(-M_PI, M_PI);
        }
        linalg::MinimizeResult r = linalg::minimizeLevenbergMarquardt(
            residuals, cost, eval.numResiduals(), x, opts);
        evaluations += r.evaluations;
        jacobians += r.jacobians;
        if (s == 0 || r.value < best.value)
            best = std::move(r);
    }

    InstantiateResult result;
    result.params = std::move(best.x);
    // Δ = sqrt(cost · (2 - cost)) from cost = 1 - |T|/N.
    result.hsDistanceValue =
        std::sqrt(std::max(0.0, best.value * (2.0 - best.value)));
    result.success = result.hsDistanceValue <= eps_eff;
    result.evaluations = evaluations;
    result.jacobians = jacobians;
    return result;
}

} // namespace synth
} // namespace guoq
