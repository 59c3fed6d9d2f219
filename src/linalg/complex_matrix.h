/**
 * @file
 * Dense complex matrices sized for quantum unitaries (up to ~2^10).
 *
 * The simulator, the synthesizers, and the distance computations all
 * work on small dense matrices; this class keeps the representation
 * deliberately simple (row-major std::vector) and provides only the
 * operations those clients need.
 */

#pragma once

#include <complex>
#include <cstddef>
#include <string>
#include <vector>

namespace guoq {
namespace linalg {

using Complex = std::complex<double>;

/**
 * a · b by the textbook formula (ar·br − ai·bi, ar·bi + ai·br). These
 * are the operations GCC and Clang emit for std::complex's operator*,
 * so the bits are the same whenever that product is not NaN; only
 * its C Annex G NaN-recovery branch is left out, which keeps small
 * hot loops branch-free.
 */
inline Complex
mulFinite(Complex a, Complex b)
{
    return {a.real() * b.real() - a.imag() * b.imag(),
            a.real() * b.imag() + a.imag() * b.real()};
}

/** Row-major dense complex matrix. */
class ComplexMatrix
{
  public:
    /** An empty 0x0 matrix. */
    ComplexMatrix() = default;

    /** A zero-initialized rows x cols matrix. */
    ComplexMatrix(std::size_t rows, std::size_t cols);

    /** Build from an initializer list of rows (for literals in tests). */
    ComplexMatrix(std::initializer_list<std::initializer_list<Complex>> rows);

    /** The n x n identity. */
    static ComplexMatrix identity(std::size_t n);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    Complex &operator()(std::size_t r, std::size_t c)
    {
        return data_[r * cols_ + c];
    }
    const Complex &operator()(std::size_t r, std::size_t c) const
    {
        return data_[r * cols_ + c];
    }

    /** Raw row-major storage (used by the simulator kernels). */
    Complex *data() { return data_.data(); }
    const Complex *data() const { return data_.data(); }

    /** Matrix product this * rhs. */
    ComplexMatrix operator*(const ComplexMatrix &rhs) const;

    /** Elementwise sum / difference. */
    ComplexMatrix operator+(const ComplexMatrix &rhs) const;
    ComplexMatrix operator-(const ComplexMatrix &rhs) const;

    /** Scalar multiple. */
    ComplexMatrix scaled(Complex s) const;

    /** Conjugate transpose. */
    ComplexMatrix dagger() const;

    /** Kronecker (tensor) product this ⊗ rhs. */
    ComplexMatrix kron(const ComplexMatrix &rhs) const;

    /** Trace (requires square). */
    Complex trace() const;

    /** Frobenius norm. */
    double frobeniusNorm() const;

    /** Largest elementwise |a_ij - b_ij|. */
    double maxAbsDiff(const ComplexMatrix &rhs) const;

    /** True when this† * this ≈ I within @p tol. */
    bool isUnitary(double tol = 1e-9) const;

    /** Multi-line human-readable dump (tests and debugging). */
    std::string toString(int prec = 3) const;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<Complex> data_;
};

} // namespace linalg
} // namespace guoq
