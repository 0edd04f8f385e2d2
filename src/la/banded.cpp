#include "la/banded.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "blaslite/counters.hpp"
#include "blaslite/multiversion.hpp"

namespace la {

void SymBandedMatrix::add(std::size_t i, std::size_t j, double v) {
    if (i < j) std::swap(i, j);
    if (i >= n_ || i - j > kd_)
        throw std::out_of_range("SymBandedMatrix::add: (" + std::to_string(i) + ", " +
                                std::to_string(j) + ") outside the band of a " +
                                std::to_string(n_) + "x" + std::to_string(n_) +
                                " matrix with bandwidth " + std::to_string(kd_));
    band(i - j, j) += v;
}

double SymBandedMatrix::at(std::size_t i, std::size_t j) const noexcept {
    if (i < j) std::swap(i, j);
    const std::size_t d = i - j;
    if (d > kd_) return 0.0;
    return band(d, j);
}

void SymBandedMatrix::matvec(std::span<const double> x, std::span<double> y) const {
    assert(x.size() == n_ && y.size() == n_);
    for (std::size_t i = 0; i < n_; ++i) y[i] = band(0, i) * x[i];
    std::size_t flops = n_;
    for (std::size_t d = 1; d <= kd_; ++d) {
        for (std::size_t j = 0; j + d < n_; ++j) {
            const double v = band(d, j);
            y[j + d] += v * x[j];
            y[j] += v * x[j + d];
            flops += 4;
        }
    }
    blaslite::detail::charge(flops, (kd_ + 2) * n_ * sizeof(double), n_ * sizeof(double));
}

DenseMatrix SymBandedMatrix::to_dense() const {
    DenseMatrix a(n_, n_);
    for (std::size_t j = 0; j < n_; ++j) {
        for (std::size_t d = 0; d <= kd_ && j + d < n_; ++d) {
            a(j + d, j) = band(d, j);
            a(j, j + d) = band(d, j);
        }
    }
    return a;
}

// ---------------------------------------------------------------------------
// Factor and solves.  The buffer holds column j's band contiguously, so the
// in-band entry (r, c), r >= c, is a[r + c * kd] for both A and L.
//
// Bit-identity contract: every entry A(r, c) receives its updates
// A(r, c) -= L(r, k) * L(c, k) one k at a time in ascending k, each product
// rounded before the subtraction (banded.cpp is compiled without FP
// contraction), exactly as the plain right-looking column sweep does; only
// the order in which *different* entries are updated changes.
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kNB = 32; ///< panel width (columns per panel)
constexpr std::size_t kMR = 8;  ///< register tile rows: one 8-wide column vector
constexpr std::size_t kNR = 8;  ///< register tile columns

#if defined(__GNUC__) || defined(__clang__)
/// kMR consecutive rows of one column: one zmm, two ymm or four xmm,
/// whichever the active clone has.  Element-aligned and may_alias: it is
/// loaded straight from the band buffer.
typedef double ColVec
    __attribute__((vector_size(kMR * sizeof(double)), aligned(alignof(double)), may_alias));
#endif

/// y[i] -= x[i] * s for i in [0, len), x and y disjoint: one rounded
/// product and one subtraction per entry, kMR entries per vector step.
/// (Spelled out because GCC's -O2 cost model leaves this loop scalar.)
[[gnu::always_inline]] inline void sub_scaled(double* y, const double* x, double s,
                                              std::size_t len) noexcept {
    std::size_t i = 0;
#if defined(__GNUC__) || defined(__clang__)
    for (; i + kMR <= len; i += kMR)
        *reinterpret_cast<ColVec*>(y + i) -= *reinterpret_cast<const ColVec*>(x + i) * s;
#endif
    for (; i < len; ++i) y[i] -= x[i] * s;
}

/// A(r, c) -= L(r, k) L(c, k) for k in [k0, k1) ascending, over rows
/// r in [rlo, rhi] of column c (rlo >= c).  Terms whose L(r, k) or L(c, k)
/// lie outside the band are never formed.
[[gnu::always_inline]] inline void column_update(double* a, std::size_t kd, std::size_t c,
                                                 std::size_t rlo, std::size_t rhi,
                                                 std::size_t k0, std::size_t k1) noexcept {
    for (std::size_t k = k0; k < k1; ++k) {
        const std::size_t hi = std::min(rhi, k + kd);
        if (hi < rlo) continue; // also covers L(c, k) outside the band
        const double* lk = a + k * kd;
        sub_scaled(a + c * kd + rlo, lk + rlo, lk[c], hi - rlo + 1);
    }
}

/// The kMR x kNR tile at rows [r0, r0 + kMR), columns [c0, c0 + kNR) minus
/// L(rows, k) L(cols, k) for k in [k0, k0 + nk).  The tile is loaded first
/// and the k terms applied in ascending order, so each entry sees the same
/// rounding sequence as in column_update.  Every term must be in band.
[[gnu::always_inline]] inline void tile_update(double* a, std::size_t kd, std::size_t r0,
                                               std::size_t c0, std::size_t k0,
                                               std::size_t nk) noexcept {
#if defined(__GNUC__) || defined(__clang__)
    ColVec acc[kNR];
    for (std::size_t jj = 0; jj < kNR; ++jj)
        acc[jj] = *reinterpret_cast<const ColVec*>(a + r0 + (c0 + jj) * kd);
    const double* lk = a + k0 * kd;
    for (std::size_t p = 0; p < nk; ++p, lk += kd) {
        const ColVec lr = *reinterpret_cast<const ColVec*>(lk + r0);
        for (std::size_t jj = 0; jj < kNR; ++jj) acc[jj] -= lr * lk[c0 + jj];
    }
    for (std::size_t jj = 0; jj < kNR; ++jj)
        *reinterpret_cast<ColVec*>(a + r0 + (c0 + jj) * kd) = acc[jj];
#else
    for (std::size_t jj = 0; jj < kNR; ++jj)
        column_update(a, kd, c0 + jj, r0, r0 + kMR - 1, k0, k0 + nk);
#endif
}

/// Factors the band in place; returns the column of the first non-positive
/// (or non-finite) pivot, or n on success.  `flops` gets the plain column
/// sweep's count for the columns factored.
REPRO_MULTIVERSION
std::size_t factor_band(double* a, std::size_t n, std::size_t kd, double pivot_floor,
                        std::size_t& flops) noexcept {
    for (std::size_t j0 = 0; j0 < n; j0 += kNB) {
        const std::size_t j1 = std::min(n, j0 + kNB);
        // Panel: left-looking within [j0, j1); earlier panels are applied.
        for (std::size_t c = j0; c < j1; ++c) {
            const std::size_t imax = std::min(kd, n - 1 - c);
            column_update(a, kd, c, c, c + imax, j0, c);
            double* ac = a + c * kd;
            const double d = ac[c];
            if (d <= pivot_floor || !std::isfinite(d)) return c;
            const double lcc = std::sqrt(d);
            ac[c] = lcc;
            const double inv = 1.0 / lcc;
            for (std::size_t r = c + 1; r <= c + imax; ++r) ac[r] *= inv;
            flops += imax + 2 + imax * (imax + 1); // pivot + scaling, rank-1 update
        }
        // Trailing update of the columns the panel reaches: [j1, j1 + kd).
        if (j1 == n) break;
        const std::size_t cend = std::min(n, j1 + kd);
        const std::size_t rmax = std::min(n - 1, j1 - 1 + kd); // last row any k reaches
        const std::size_t rfull = std::min(rmax, j0 + kd);     // last row all k reach
        for (std::size_t c0 = j1; c0 < cend; c0 += kNR) {
            const std::size_t nc = std::min(kNR, cend - c0);
            std::size_t r = c0 + nc; // first row below the block's diagonal triangle
            if (nc == kNR)
                for (; r + kMR - 1 <= rfull; r += kMR) tile_update(a, kd, r, c0, j0, j1 - j0);
            for (std::size_t c = c0; c < c0 + nc; ++c) {
                column_update(a, kd, c, c, c0 + nc - 1, j0, j1);
                column_update(a, kd, c, r, rmax, j0, j1);
            }
        }
    }
    return n;
}

/// Forward and back substitution for K right-hand sides at once, each b[q]
/// of length n and disjoint from the others.  Per right-hand side the
/// operations and their order are those of a single sweep; the K sweeps
/// share each column of L while it is in cache, and the K back-substitution
/// dot products run as independent dependence chains.
template <std::size_t K>
[[gnu::always_inline]] inline void substitute(const double* l, std::size_t n, std::size_t kd,
                                              double* const* b) noexcept {
    // Forward: L y = b.
    for (std::size_t j = 0; j < n; ++j) {
        const double* lj = l + j * kd;
        const std::size_t imax = std::min(kd, n - 1 - j);
        for (std::size_t q = 0; q < K; ++q) {
            const double yj = b[q][j] / lj[j];
            b[q][j] = yj;
            sub_scaled(b[q] + j + 1, lj + j + 1, yj, imax);
        }
    }
    // Backward: L^T x = y.
    for (std::size_t j = n; j-- > 0;) {
        const double* lj = l + j * kd;
        const std::size_t imax = std::min(kd, n - 1 - j);
        double s[K];
        for (std::size_t q = 0; q < K; ++q) s[q] = b[q][j];
        for (std::size_t r = j + 1; r <= j + imax; ++r) {
            const double v = lj[r];
            for (std::size_t q = 0; q < K; ++q) s[q] -= v * b[q][r];
        }
        for (std::size_t q = 0; q < K; ++q) b[q][j] = s[q] / lj[j];
    }
}

REPRO_MULTIVERSION
void substitute_one(const double* l, std::size_t n, std::size_t kd, double* b) noexcept {
    substitute<1>(l, n, kd, &b);
}

REPRO_MULTIVERSION
void substitute_two(const double* l, std::size_t n, std::size_t kd, double* const* b) noexcept {
    substitute<2>(l, n, kd, b);
}

} // namespace

bool BandedCholesky::factor(SymBandedMatrix a) {
    n_ = a.n_;
    kd_ = a.kd_;
    band_ = std::move(a.band_);

    // Relative pivot threshold: a numerically singular matrix (e.g. an
    // all-Neumann Laplacian) must fail loudly rather than factor with a
    // roundoff-sized pivot.
    double scale = 0.0;
    for (std::size_t j = 0; j < n_; ++j) scale = std::max(scale, band_[j * (kd_ + 1)]);
    const double pivot_floor = 1e-12 * scale;

    std::size_t flops = 0;
    if (factor_band(band_.data(), n_, kd_, pivot_floor, flops) != n_) {
        n_ = 0;
        return false;
    }
    blaslite::detail::charge(flops, band_.size() * sizeof(double),
                             band_.size() * sizeof(double));
    return true;
}

void BandedCholesky::solve(std::span<double> b) const {
    solve(std::span<const std::span<double>>(&b, 1));
}

void BandedCholesky::solve(std::span<const std::span<double>> rhs) const {
    assert(factored() && std::all_of(rhs.begin(), rhs.end(),
                                     [&](std::span<double> b) { return b.size() == n_; }));
    std::size_t q = 0;
    for (; q + 2 <= rhs.size(); q += 2) {
        double* const pair[2] = {rhs[q].data(), rhs[q + 1].data()};
        substitute_two(band_.data(), n_, kd_, pair);
    }
    if (q < rhs.size()) substitute_one(band_.data(), n_, kd_, rhs[q].data());
    // One single-solve charge per right-hand side.
    for (std::size_t i = 0; i < rhs.size(); ++i)
        blaslite::detail::charge(solve_flops(), (kd_ + 1) * n_ * sizeof(double) * 2,
                                 2 * n_ * sizeof(double));
}

} // namespace la
