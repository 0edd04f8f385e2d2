#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "la/dense.hpp"

/// \file banded.hpp
/// Symmetric banded storage and Cholesky solver.
///
/// The paper's serial and Fourier solvers spend ~60% of each time step in
/// "matrix inversions ... a direct solver (LAPACK), utilising the symmetric
/// and banded nature of the matrix" (stages 5 and 7, Figure 12).  This is the
/// from-scratch equivalent of LAPACK's dpbtrf/dpbtrs pair, in dpbtrf's 'L'
/// storage: each column's band is contiguous, so A(r, c) lives at
/// `r + c * kd` of the buffer and any in-band block is a dense column-major
/// block with leading dimension kd.
///
/// The factor is panel-blocked and right-looking, with a register tile for
/// the trailing update; the solves are unit-stride column sweeps and can
/// take several right-hand sides in one pass over L.  Both are bitwise
/// identical to the plain column-by-column algorithm (every entry of L and
/// x sees the same operations in the same order) and charge the same
/// operation counts; DESIGN.md §5.10 states the contract.
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

/// Banded Cholesky factorization A = L L^T kept in banded storage, plus the
/// solve.  Factorization costs O(n * kd^2); each solve costs O(n * kd).
class BandedCholesky {
public:
    BandedCholesky() = default;

    /// Factors `a` in place of its own storage (move the matrix in to avoid
    /// a copy); returns false if the matrix is not positive definite.
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

    /// L(j + d, j) in banded coordinates (the bit-identity tests read it).
    [[nodiscard]] double band(std::size_t d, std::size_t j) const noexcept {
        return band_[j * (kd_ + 1) + d];
    }

    /// Flop count of one solve (forward + back substitution); used by the
    /// per-machine performance predictors.
    [[nodiscard]] std::size_t solve_flops() const noexcept {
        return 2 * (2 * n_ * (kd_ + 1));
    }

private:
    std::size_t n_ = 0;
    std::size_t kd_ = 0;
    std::vector<double> band_; // L in the same lower-band layout
};

} // namespace la
