#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "la/dense.hpp"

/// \file banded.hpp
/// Symmetric banded storage and Cholesky solver.
///
/// The paper's serial and Fourier solvers spend ~60% of each time step in
/// "matrix inversions ... a direct solver (LAPACK), utilising the symmetric
/// and banded nature of the matrix" (stages 5 and 7, Figure 12).  This is the
/// from-scratch equivalent of LAPACK's dpbtrf/dpbtrs pair, taking the matrix
/// in dpbtrf's 'L' storage: each column's band is contiguous, so A(r, c)
/// lives at `r + c * kd` of the buffer and any in-band block is a dense
/// column-major block with leading dimension kd.
///
/// The factor works only inside the row envelope: row r from its first
/// stored nonzero column first(r) to the diagonal, which Cholesky fill never
/// leaves.  It is panel-blocked and right-looking, with a register tile for
/// the trailing update that skips rows the panel does not reach.  L is then
/// kept column by column as runs of envelope rows and the band is freed, so
/// the solves (unit-stride column sweeps that can take several right-hand
/// sides in one pass over L) touch only the envelope.  Both are bitwise
/// identical to the plain column-by-column algorithm on the full band (every
/// entry of L and x sees the same operations in the same order; the terms
/// left out subtract exact zeros) and charge the full band's operation
/// counts, the LAPACK band the paper prices; DESIGN.md §5.10 states the
/// contract.
namespace la {

/// Symmetric positive-definite banded matrix, lower-band storage:
/// band(d, j) holds A(j + d, j) for diagonal offset d in [0, bandwidth].
class SymBandedMatrix {
public:
    SymBandedMatrix() = default;
    SymBandedMatrix(std::size_t n, std::size_t bandwidth)
        : n_(n), kd_(bandwidth), band_((bandwidth + 1) * n, 0.0) {}

    [[nodiscard]] std::size_t size() const noexcept { return n_; }
    [[nodiscard]] std::size_t bandwidth() const noexcept { return kd_; }

    /// Entry accessor in banded coordinates: offset d below the diagonal.
    double& band(std::size_t d, std::size_t j) noexcept { return band_[j * (kd_ + 1) + d]; }
    double band(std::size_t d, std::size_t j) const noexcept { return band_[j * (kd_ + 1) + d]; }

    /// Adds v to A(i, j) (and implicitly A(j, i)).  Throws std::out_of_range
    /// when (i, j) is outside the matrix or |i - j| > bandwidth.
    void add(std::size_t i, std::size_t j, double v);

    /// Full A(i, j) (zero outside the band).
    [[nodiscard]] double at(std::size_t i, std::size_t j) const noexcept;

    /// y = A x using symmetric banded storage.
    void matvec(std::span<const double> x, std::span<double> y) const;

    /// Dense copy (tests / structure plots).
    [[nodiscard]] DenseMatrix to_dense() const;

private:
    friend class BandedCholesky; // factors the band buffer in place
    std::size_t n_ = 0;
    std::size_t kd_ = 0;
    std::vector<double> band_;
};

/// Banded Cholesky factorization A = L L^T kept in envelope storage, plus
/// the solve.  With w(r) = r - first(r) the row envelope widths, the factor
/// costs O(sum w^2) after an O(n * kd) scan for the envelope and each solve
/// O(sum w); a full band is the case w(r) = min(r, kd), O(n * kd^2) and
/// O(n * kd).
class BandedCholesky {
public:
    BandedCholesky() = default;

    /// Factors `a` in place of its own storage (move the matrix in to avoid
    /// a copy), then keeps L compactly and frees the band; returns false if
    /// the matrix is not positive definite.  Throws std::length_error for a
    /// matrix of 2^32 or more rows.
    bool factor(SymBandedMatrix a);

    /// Solves A x = b; b is overwritten with x.
    void solve(std::span<double> b) const;

    /// Solves A x = b for every b in `rhs` (which must not overlap),
    /// overwriting each with its x, in one pass over L.  Bitwise and in
    /// operation counts the same as one single solve per right-hand side.
    void solve(std::span<const std::span<double>> rhs) const;

    [[nodiscard]] bool factored() const noexcept { return n_ > 0; }
    [[nodiscard]] std::size_t size() const noexcept { return n_; }
    [[nodiscard]] std::size_t bandwidth() const noexcept { return kd_; }

    /// L(j + d, j) in banded coordinates, +0 outside the envelope (the
    /// bit-identity tests read it).
    [[nodiscard]] double band(std::size_t d, std::size_t j) const noexcept;

    /// Flop count of one solve (forward + back substitution) on the full
    /// band; used by the per-machine performance predictors.
    [[nodiscard]] std::size_t solve_flops() const noexcept {
        return 2 * (2 * n_ * (kd_ + 1));
    }

private:
    std::size_t n_ = 0;
    std::size_t kd_ = 0;
    std::vector<std::uint32_t> first_; ///< first(r), after the signed-zero widening
    std::vector<double> diag_;         ///< L(j, j)
    /// Column j of L below the diagonal: runs t in [col_[j], col_[j + 1]),
    /// run t being rows run_row_[t] .. run_row_[t] + run_len_[t] - 1, with
    /// their values from val_[vcol_[j]] on, run after run.
    std::vector<std::size_t> col_, vcol_;
    std::vector<std::uint32_t> run_row_, run_len_;
    std::vector<double> val_;
    /// L is stored compactly (not in place of a full band): two right-hand
    /// sides then sweep faster as lanes of the 4-lane kernel than as a pair.
    bool compact_ = false;
};

} // namespace la
