#pragma once

#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

/// \file dense.hpp
/// Minimal dense row-major matrix used throughout the spectral/hp stack.
namespace la {

/// Dense row-major matrix of doubles.
class DenseMatrix {
public:
    DenseMatrix() = default;
    DenseMatrix(std::size_t rows, std::size_t cols, double fill = 0.0)
        : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

    [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
    [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

    double& operator()(std::size_t i, std::size_t j) noexcept {
        assert(i < rows_ && j < cols_);
        return data_[i * cols_ + j];
    }
    double operator()(std::size_t i, std::size_t j) const noexcept {
        assert(i < rows_ && j < cols_);
        return data_[i * cols_ + j];
    }

    [[nodiscard]] double* data() noexcept { return data_.data(); }
    [[nodiscard]] const double* data() const noexcept { return data_.data(); }
    [[nodiscard]] std::span<double> row(std::size_t i) noexcept {
        return {data_.data() + i * cols_, cols_};
    }
    [[nodiscard]] std::span<const double> row(std::size_t i) const noexcept {
        return {data_.data() + i * cols_, cols_};
    }

    /// y = A x.
    void matvec(std::span<const double> x, std::span<double> y) const;

    /// Returns the transpose.
    [[nodiscard]] DenseMatrix transposed() const;

    /// Maximum |A_ij - B_ij|.
    [[nodiscard]] double max_diff(const DenseMatrix& other) const;

    /// Maximum |A_ij - A_ji| (symmetry defect).
    [[nodiscard]] double symmetry_defect() const;

    friend bool operator==(const DenseMatrix& a, const DenseMatrix& b) = default;

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

/// C = A * B.
[[nodiscard]] DenseMatrix matmul(const DenseMatrix& a, const DenseMatrix& b);

/// In-place dense LU with partial pivoting; returns false if singular.
/// `piv` receives the row permutation.
bool lu_factor(DenseMatrix& a, std::vector<std::size_t>& piv);

/// Solves L U x = P b using the output of lu_factor; b is overwritten with x.
void lu_solve(const DenseMatrix& lu, const std::vector<std::size_t>& piv, std::span<double> b);

/// Dense Cholesky (lower) of an SPD matrix, in place; returns false if not SPD.
bool cholesky_factor(DenseMatrix& a);

/// Solves L L^T x = b after cholesky_factor; b is overwritten with x.
void cholesky_solve(const DenseMatrix& l, std::span<double> b);

/// Replaces an SPD matrix by its inverse: cholesky_factor, then
/// cholesky_solve on every identity column.  Returns false, with `a`
/// unspecified, if it is not SPD.  Charges the blaslite counters n^3/3
/// flops for the factor and 2 n^2 per column solve.
bool spd_inverse(DenseMatrix& a);

/// Solves L L^T X = B for `nrhs` right-hand sides stored as column-major
/// columns of B (column c starts at b + c*ld, length l.rows()); every column
/// is overwritten with its solution.  Each column is solved with exactly the
/// per-column substitution order of cholesky_solve, so results are bitwise
/// identical to nrhs independent calls — the batched elemental engine relies
/// on this when projecting whole element groups at once.
void cholesky_solve_cols(const DenseMatrix& l, double* b, std::size_t ld, std::size_t nrhs);

} // namespace la
