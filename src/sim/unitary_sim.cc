#include "sim/unitary_sim.h"

#include <algorithm>
#include <array>

#include "linalg/unitary.h"
#include "support/logging.h"

namespace guoq {
namespace sim {

using linalg::Complex;
using linalg::ComplexMatrix;

namespace {

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

/**
 * The dense span x span apply of applyLeft, for a compile-time span
 * so the per-column matvec unrolls: each output row entry is
 * Σ_b G(a, b) · in[b], summed from 0 in local index order.
 */
template <std::size_t S>
void
denseLeft(Complex *u, std::size_t dim, const BoundGate &g)
{
    std::array<Complex, S * S> m;
    std::array<Complex *, S> row{};
    std::array<Complex, S> in;
    for (std::size_t a = 0; a < S; ++a)
        for (std::size_t b = 0; b < S; ++b)
            m[a * S + b] = g.at(a, b);
    const std::size_t groups = dim / S;
    for (std::size_t i = 0; i < groups; ++i) {
        const std::size_t base = g.groupBase(i);
        for (std::size_t a = 0; a < S; ++a)
            row[a] = u + (base + g.offset(a)) * dim;
        for (std::size_t col = 0; col < dim; ++col) {
            for (std::size_t a = 0; a < S; ++a)
                in[a] = row[a][col];
            for (std::size_t a = 0; a < S; ++a) {
                Complex acc = 0;
                for (std::size_t b = 0; b < S; ++b)
                    acc += linalg::mulFinite(m[a * S + b], in[b]);
                row[a][col] = acc;
            }
        }
    }
}

/**
 * applyRight for a compile-time span. Column c of G_full is nonzero
 * only inside c's group, so entry (r, c) of u · G_full is
 * Σ_k u(r, k) G(k, c) over that group in ascending global index k,
 * from 0 — the order ComplexMatrix::operator* sums in. That product
 * also skips exactly-zero u(r, k) and, for diagonal and permutation
 * gates, multiplies by exact zeros of G; both only add exact zeros,
 * which cannot change an accumulator that starts at +0 (it is never
 * -0). So the sum needs no test on u, and diagonal and permutation
 * columns reduce to their one nonzero term.
 */
template <std::size_t S>
void
rightSpan(Complex *u, std::size_t dim, const BoundGate &g)
{
    // Diagonal and permutation columns hold one nonzero (the
    // permutation is an involution, so column c's sits in row perm(c));
    // dense columns are read in ascending-offset order.
    std::array<std::size_t, S> off{};
    std::array<std::size_t, S> src{};
    std::array<Complex, S> one;
    std::array<Complex, S * S> col;
    for (std::size_t c = 0; c < S; ++c) {
        off[c] = g.offset(c);
        src[c] = g.shape() == BoundGate::Shape::Permutation ? g.perm(c) : c;
        one[c] = g.phase(src[c]);
        for (std::size_t j = 0; j < S; ++j)
            col[c * S + j] = g.at(g.ascending(j), c);
    }
    std::array<std::size_t, S> asc{};
    for (std::size_t j = 0; j < S; ++j)
        asc[j] = g.ascending(j);

    std::array<Complex, S> in;
    const bool dense = g.shape() == BoundGate::Shape::Dense;
    const std::size_t groups = dim / S;
    for (std::size_t i = 0; i < groups; ++i) {
        const std::size_t base = g.groupBase(i);
        for (std::size_t r = 0; r < dim; ++r) {
            Complex *grp = u + r * dim + base;
            for (std::size_t a = 0; a < S; ++a)
                in[a] = grp[off[a]];
            for (std::size_t c = 0; c < S; ++c) {
                Complex acc = 0;
                if (dense) {
                    for (std::size_t j = 0; j < S; ++j)
                        acc += linalg::mulFinite(in[asc[j]], col[c * S + j]);
                } else {
                    acc += linalg::mulFinite(in[src[c]], one[c]);
                }
                grp[off[c]] = acc;
            }
        }
    }
}

} // namespace

BoundGate::BoundGate(const ir::Gate &gate, int num_qubits)
{
    if (static_cast<int>(gate.params.size()) != ir::gateParamCount(gate.kind))
        support::panic(support::strcat("BoundGate(", ir::gateName(gate.kind),
                                       "): want ",
                                       ir::gateParamCount(gate.kind),
                                       " params, got ", gate.params.size()));
    place(gate.qubits.data(), gate.arity(), num_qubits);
    setMatrix(gate.kind, gate.params.data());
}

void
BoundGate::place(const int *qubits, int arity, int num_qubits)
{
    if (arity < 0 || arity > kMaxArity || arity > num_qubits)
        support::panic(support::strcat("BoundGate: arity ", arity,
                                       " on a ", num_qubits,
                                       "-qubit register"));
    arity_ = arity;
    span_ = std::size_t{1} << arity;

    // Bit position of each gate qubit; qubits[0] is the MSB of the
    // gate's local index.
    std::array<int, kMaxArity> bitpos{};
    for (int k = 0; k < arity; ++k) {
        const int q = qubits[k];
        if (q < 0 || q >= num_qubits)
            support::panic(support::strcat("BoundGate: qubit ", q,
                                           " outside a ", num_qubits,
                                           "-qubit register"));
        for (int j = 0; j < k; ++j)
            if (qubits[j] == q)
                support::panic(support::strcat("BoundGate: qubit ", q,
                                               " repeated"));
        bitpos[static_cast<std::size_t>(k)] = num_qubits - 1 - q;
    }

    // Offsets: local index a -> global offset of its set bits.
    for (std::size_t a = 0; a < span_; ++a) {
        offset_[a] = 0;
        for (int k = 0; k < arity; ++k)
            if (a & (std::size_t{1} << (arity - 1 - k)))
                offset_[a] |= std::size_t{1}
                              << bitpos[static_cast<std::size_t>(k)];
        byOffset_[a] = a;
    }
    std::sort(byOffset_.begin(), byOffset_.begin() + span_,
              [this](std::size_t x, std::size_t y) {
                  return offset_[x] < offset_[y];
              });

    sortedPos_ = bitpos;
    std::sort(sortedPos_.begin(), sortedPos_.begin() + arity);
}

void
BoundGate::setMatrix(ir::GateKind kind, const double *params)
{
    if (ir::gateArity(kind) != arity_)
        support::panic(support::strcat("BoundGate: ", ir::gateName(kind),
                                       " placed on ", arity_, " qubits"));
    ir::gateMatrixInto(kind, params, m_.data());
    classify();
}

void
BoundGate::classify()
{
    // Diagonal: every off-diagonal entry exactly zero.
    bool diagonal = true;
    for (std::size_t a = 0; a < span_ && diagonal; ++a)
        for (std::size_t b = 0; b < span_; ++b)
            if (a != b && !isZero(at(a, b))) {
                diagonal = false;
                break;
            }
    if (diagonal) {
        for (std::size_t a = 0; a < span_; ++a)
            phase_[a] = at(a, a);
        shape_ = Shape::Diagonal;
        return;
    }

    // Phased involutive permutation: exactly one nonzero per row, and
    // the permutation is its own inverse; anything else is dense.
    shape_ = Shape::Dense;
    for (std::size_t a = 0; a < span_; ++a) {
        perm_[a] = span_;
        for (std::size_t b = 0; b < span_; ++b) {
            if (isZero(at(a, b)))
                continue;
            if (perm_[a] != span_)
                return; // second nonzero in this row
            perm_[a] = b;
            phase_[a] = at(a, b);
        }
        if (perm_[a] == span_)
            return; // all-zero row (not a unitary anyway)
    }
    for (std::size_t a = 0; a < span_; ++a)
        if (perm_[perm_[a]] != a)
            return; // not an involution
    shape_ = Shape::Permutation;
}

std::size_t
BoundGate::groupBase(std::size_t i) const
{
    // Insert zero bits at the ascending gate positions: the standard
    // enumeration of indices whose gate-qubit bits are all zero.
    std::size_t r = i;
    for (int k = 0; k < arity_; ++k) {
        const int p = sortedPos_[static_cast<std::size_t>(k)];
        const std::size_t low = r & ((std::size_t{1} << p) - 1);
        r = ((r >> p) << (p + 1)) | low;
    }
    return r;
}

void
applyLeft(Complex *u, std::size_t dim, const BoundGate &g)
{
    const std::size_t span = g.span();
    const std::size_t groups = dim >> g.arity();
    // Row i <- s · row i, entry by entry as kernels::scaleRange does.
    const auto scaleRow = [dim](Complex *row, Complex s) {
        for (std::size_t col = 0; col < dim; ++col)
            row[col] = linalg::mulFinite(row[col], s);
    };

    // Row-major storage: gate application mixes whole rows, so work
    // row-at-a-time (unit stride) instead of column-at-a-time.
    // Diagonal gates scale rows in place and phased involutive
    // permutations (X, CX, Swap, ...) move rows without a matvec —
    // both bit-identical to the dense path's arithmetic.
    switch (g.shape()) {
      case BoundGate::Shape::Diagonal:
        for (std::size_t i = 0; i < groups; ++i) {
            const std::size_t base = g.groupBase(i);
            for (std::size_t a = 0; a < span; ++a)
                if (!isOne(g.phase(a)))
                    scaleRow(u + (base + g.offset(a)) * dim, g.phase(a));
        }
        return;
      case BoundGate::Shape::Permutation:
        for (std::size_t i = 0; i < groups; ++i) {
            const std::size_t base = g.groupBase(i);
            for (std::size_t a = 0; a < span; ++a) {
                const std::size_t b = g.perm(a);
                if (b == a) {
                    if (!isOne(g.phase(a)))
                        scaleRow(u + (base + g.offset(a)) * dim,
                                 g.phase(a));
                    continue;
                }
                if (b < a)
                    continue; // handled as the partner of its pair
                Complex *rowA = u + (base + g.offset(a)) * dim;
                Complex *rowB = u + (base + g.offset(b)) * dim;
                if (isOne(g.phase(a)) && isOne(g.phase(b))) {
                    std::swap_ranges(rowA, rowA + dim, rowB);
                    continue;
                }
                for (std::size_t col = 0; col < dim; ++col) {
                    const Complex oldA = rowA[col];
                    rowA[col] = linalg::mulFinite(g.phase(a), rowB[col]);
                    rowB[col] = linalg::mulFinite(g.phase(b), oldA);
                }
            }
        }
        return;
      case BoundGate::Shape::Dense:
        break;
    }

    switch (span) {
      case 2:
        return denseLeft<2>(u, dim, g);
      case 4:
        return denseLeft<4>(u, dim, g);
      default:
        return denseLeft<8>(u, dim, g);
    }
}

void
applyRight(Complex *u, std::size_t dim, const BoundGate &g)
{
    switch (g.span()) {
      case 2:
        return rightSpan<2>(u, dim, g);
      case 4:
        return rightSpan<4>(u, dim, g);
      default:
        return rightSpan<8>(u, dim, g);
    }
}

void
applyGate(ComplexMatrix &u, const ir::Gate &gate, int num_qubits)
{
    const std::size_t dim = std::size_t{1} << num_qubits;
    if (u.rows() != dim || u.cols() != dim)
        support::panic("applyGate: matrix size mismatch");
    applyLeft(u.data(), dim, BoundGate(gate, num_qubits));
}

ComplexMatrix
circuitUnitary(const ir::Circuit &c)
{
    if (c.numQubits() > kMaxUnitaryQubits)
        support::panic(support::strcat("circuitUnitary: ", c.numQubits(),
                                       " qubits exceeds cap of ",
                                       kMaxUnitaryQubits));
    const std::size_t dim = std::size_t{1} << c.numQubits();
    ComplexMatrix u = ComplexMatrix::identity(dim);
    for (const ir::Gate &g : c.gates())
        applyGate(u, g, c.numQubits());
    return u;
}

double
circuitDistance(const ir::Circuit &a, const ir::Circuit &b)
{
    if (a.numQubits() != b.numQubits())
        support::panic("circuitDistance: qubit count mismatch");
    return linalg::hsDistance(circuitUnitary(a), circuitUnitary(b));
}

bool
circuitsEquivalent(const ir::Circuit &a, const ir::Circuit &b, double eps)
{
    return circuitDistance(a, b) <= eps;
}

} // namespace sim
} // namespace guoq
