#include "la/banded.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <ostream>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "blaslite/counters.hpp"
#include "mesh/mesh.hpp"
#include "nektar/discretization.hpp"
#include "nektar/helmholtz.hpp"
#include "nektar/solver_options.hpp"
#include "nektar/static_condensation.hpp"
#include "nektar/workloads.hpp"

namespace {

/// Random SPD banded matrix: diagonally dominant within the band.
la::SymBandedMatrix random_banded(std::size_t n, std::size_t kd, unsigned seed) {
    std::mt19937 gen(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    la::SymBandedMatrix a(n, kd);
    for (std::size_t d = 1; d <= kd; ++d)
        for (std::size_t j = 0; j + d < n; ++j) a.band(d, j) = dist(gen);
    for (std::size_t j = 0; j < n; ++j) a.band(0, j) = 2.0 * static_cast<double>(kd) + 1.0;
    return a;
}

class BandedSizes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(BandedSizes, CholeskyRoundTrip) {
    const auto [n, kd] = GetParam();
    const auto nu = static_cast<std::size_t>(n);
    const auto a = random_banded(nu, static_cast<std::size_t>(kd), 42);
    std::vector<double> x_true(nu), b(nu);
    std::mt19937 gen(7);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    for (auto& v : x_true) v = dist(gen);
    a.matvec(x_true, b);
    la::BandedCholesky chol;
    ASSERT_TRUE(chol.factor(a));
    chol.solve(b);
    for (std::size_t i = 0; i < nu; ++i) EXPECT_NEAR(b[i], x_true[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Shapes, BandedSizes,
                         ::testing::Values(std::pair{1, 0}, std::pair{5, 0}, std::pair{10, 1},
                                           std::pair{20, 3}, std::pair{50, 7},
                                           std::pair{200, 15}, std::pair{128, 127}));

TEST(Banded, MatchesDenseCholesky) {
    const auto a = random_banded(30, 4, 1);
    la::DenseMatrix dense = a.to_dense();
    std::vector<double> b(30, 1.0), bd(30, 1.0);
    la::BandedCholesky chol;
    ASSERT_TRUE(chol.factor(a));
    chol.solve(b);
    ASSERT_TRUE(la::cholesky_factor(dense));
    la::cholesky_solve(dense, bd);
    for (std::size_t i = 0; i < 30; ++i) EXPECT_NEAR(b[i], bd[i], 1e-10);
}

TEST(Banded, RejectsIndefinite) {
    la::SymBandedMatrix a(3, 1);
    a.band(0, 0) = 1.0;
    a.band(0, 1) = -1.0; // negative diagonal
    a.band(0, 2) = 1.0;
    la::BandedCholesky chol;
    EXPECT_FALSE(chol.factor(a));
    EXPECT_FALSE(chol.factored());
}

TEST(Banded, AtAndAddRespectSymmetry) {
    la::SymBandedMatrix a(5, 2);
    a.add(1, 3, 2.5);
    EXPECT_DOUBLE_EQ(a.at(1, 3), 2.5);
    EXPECT_DOUBLE_EQ(a.at(3, 1), 2.5);
    EXPECT_DOUBLE_EQ(a.at(0, 4), 0.0); // outside band
    const auto d = a.to_dense();
    EXPECT_DOUBLE_EQ(d.symmetry_defect(), 0.0);
}

TEST(Banded, AddOutsideTheBandThrows) {
    la::SymBandedMatrix a(6, 2);
    EXPECT_THROW(a.add(0, 3, 1.0), std::out_of_range);
    EXPECT_THROW(a.add(5, 1, 1.0), std::out_of_range);
    EXPECT_THROW(a.add(6, 5, 1.0), std::out_of_range); // row outside the matrix
    EXPECT_THROW(a.add(7, 7, 1.0), std::out_of_range);
    EXPECT_NO_THROW(a.add(5, 3, 1.0));
    // A rejected add leaves every entry untouched.
    for (std::size_t i = 0; i < 6; ++i)
        for (std::size_t j = 0; j < 6; ++j)
            EXPECT_EQ(a.at(i, j), (i == 5 && j == 3) || (i == 3 && j == 5) ? 1.0 : 0.0);
}

TEST(Banded, MatvecMatchesDense) {
    const auto a = random_banded(25, 3, 9);
    const auto dense = a.to_dense();
    std::vector<double> x(25), y1(25), y2(25);
    for (std::size_t i = 0; i < 25; ++i) x[i] = static_cast<double>(i) * 0.1 - 1.0;
    a.matvec(x, y1);
    dense.matvec(x, y2);
    for (std::size_t i = 0; i < 25; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-12);
}

// ---------------------------------------------------------------------------
// Bit-identity against the plain column sweep.  ReferenceCholesky is the
// unblocked, diagonal-major factor and solve the blocked code replaced,
// kept verbatim (bar the storage and a returned failure column) so every
// entry of L, every solution bit and every operation count is compared
// against it.
// ---------------------------------------------------------------------------

struct ReferenceCholesky {
    std::size_t n_ = 0;
    std::size_t kd_ = 0;
    std::vector<double> band_;
    double lband(std::size_t d, std::size_t j) const noexcept { return band_[d * n_ + j]; }
    double& lband(std::size_t d, std::size_t j) noexcept { return band_[d * n_ + j]; }

    /// Returns the failing column, or n on success.
    std::size_t factor(const la::SymBandedMatrix& a) {
        n_ = a.size();
        kd_ = a.bandwidth();
        band_.assign((kd_ + 1) * n_, 0.0);
        for (std::size_t d = 0; d <= kd_; ++d)
            for (std::size_t j = 0; j + d < n_; ++j) lband(d, j) = a.band(d, j);

        double scale = 0.0;
        for (std::size_t j = 0; j < n_; ++j) scale = std::max(scale, lband(0, j));
        const double pivot_floor = 1e-12 * scale;

        std::size_t flops = 0;
        for (std::size_t j = 0; j < n_; ++j) {
            double d = lband(0, j);
            if (d <= pivot_floor || !std::isfinite(d)) { n_ = 0; return j; }
            const double ljj = std::sqrt(d);
            lband(0, j) = ljj;
            const double inv = 1.0 / ljj;
            const std::size_t imax = std::min(kd_, n_ - 1 - j);
            for (std::size_t di = 1; di <= imax; ++di) lband(di, j) *= inv;
            flops += imax + 2;
            for (std::size_t dk = 1; dk <= imax; ++dk) {
                const double ljk = lband(dk, j);
                for (std::size_t di = dk; di <= imax; ++di) {
                    lband(di - dk, j + dk) -= lband(di, j) * ljk;
                }
                flops += 2 * (imax - dk + 1);
            }
        }
        blaslite::detail::charge(flops, band_.size() * sizeof(double),
                                 band_.size() * sizeof(double));
        return n_;
    }

    void solve(std::span<double> b) const {
        for (std::size_t j = 0; j < n_; ++j) {
            const double yj = b[j] / lband(0, j);
            b[j] = yj;
            const std::size_t imax = std::min(kd_, n_ - 1 - j);
            for (std::size_t d = 1; d <= imax; ++d) b[j + d] -= lband(d, j) * yj;
        }
        for (std::size_t jj = n_; jj-- > 0;) {
            double s = b[jj];
            const std::size_t imax = std::min(kd_, n_ - 1 - jj);
            for (std::size_t d = 1; d <= imax; ++d) s -= lband(d, jj) * b[jj + d];
            b[jj] = s / lband(0, jj);
        }
        blaslite::detail::charge(2 * (2 * n_ * (kd_ + 1)),
                                 (kd_ + 1) * n_ * sizeof(double) * 2, 2 * n_ * sizeof(double));
    }
};

::testing::AssertionResult same_bits(std::span<const double> a, std::span<const double> b) {
    if (a.size() != b.size())
        return ::testing::AssertionFailure() << "sizes " << a.size() << " vs " << b.size();
    for (std::size_t i = 0; i < a.size(); ++i)
        if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0)
            return ::testing::AssertionFailure()
                   << "first difference at " << i << ": " << a[i] << " vs " << b[i];
    return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_counts(const blaslite::OpCounts& a, const blaslite::OpCounts& b) {
    if (a.flops == b.flops && a.bytes_read == b.bytes_read &&
        a.bytes_written == b.bytes_written && a.calls == b.calls)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "flops " << a.flops << " vs " << b.flops << ", read " << a.bytes_read << " vs "
           << b.bytes_read << ", written " << a.bytes_written << " vs " << b.bytes_written
           << ", calls " << a.calls << " vs " << b.calls;
}

/// Every in-matrix entry of L, blocked vs reference.
std::vector<double> factor_entries(const la::BandedCholesky& c) {
    std::vector<double> out;
    for (std::size_t j = 0; j < c.size(); ++j)
        for (std::size_t d = 0; d <= c.bandwidth() && j + d < c.size(); ++d)
            out.push_back(c.band(d, j));
    return out;
}
std::vector<double> factor_entries(const ReferenceCholesky& c) {
    std::vector<double> out;
    for (std::size_t j = 0; j < c.n_; ++j)
        for (std::size_t d = 0; d <= c.kd_ && j + d < c.n_; ++d) out.push_back(c.lband(d, j));
    return out;
}

std::vector<double> random_vector(std::size_t n, unsigned seed) {
    std::mt19937 gen(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::vector<double> v(n);
    for (auto& x : v) x = dist(gen);
    return v;
}

/// Factors `a` both ways and checks L, three solves and every count bitwise.
void expect_bit_identical(const la::SymBandedMatrix& a) {
    ReferenceCholesky ref;
    la::BandedCholesky chol;
    blaslite::OpCounts ref_counts, counts;
    {
        blaslite::CountScope scope;
        ASSERT_EQ(ref.factor(a), a.size());
        ref_counts = scope.delta();
    }
    {
        blaslite::CountScope scope;
        ASSERT_TRUE(chol.factor(a));
        counts = scope.delta();
    }
    EXPECT_TRUE(same_counts(counts, ref_counts)) << "factor";
    EXPECT_TRUE(same_bits(factor_entries(chol), factor_entries(ref))) << "L";
    for (unsigned seed : {1u, 2u, 3u}) {
        std::vector<double> b = random_vector(a.size(), seed), b_ref = b;
        {
            blaslite::CountScope scope;
            ref.solve(b_ref);
            ref_counts = scope.delta();
        }
        {
            blaslite::CountScope scope;
            chol.solve(b);
            counts = scope.delta();
        }
        EXPECT_TRUE(same_counts(counts, ref_counts)) << "solve";
        EXPECT_TRUE(same_bits(b, b_ref)) << "solve, rhs seed " << seed;
    }
}

struct Shape {
    std::size_t n, kd;
};
void PrintTo(const Shape& s, std::ostream* os) { *os << "(n " << s.n << ", kd " << s.kd << ")"; }

std::string shape_name(const ::testing::TestParamInfo<Shape>& info) {
    return "n" + std::to_string(info.param.n) + "_kd" + std::to_string(info.param.kd);
}

class BandedBitIdentity : public ::testing::TestWithParam<Shape> {};

TEST_P(BandedBitIdentity, FactorAndSolveMatchTheColumnSweep) {
    const auto [n, kd] = GetParam();
    expect_bit_identical(random_banded(n, kd, 11));
}

// n = 1; kd = 0; kd = n - 1; kd >= n; n below one panel; kd not a multiple
// of the tile width; several panels with full tiles; a wide band.
INSTANTIATE_TEST_SUITE_P(Shapes, BandedBitIdentity,
                         ::testing::Values(Shape{1, 0}, Shape{1, 4}, Shape{17, 0},
                                           Shape{40, 39}, Shape{30, 45}, Shape{20, 7},
                                           Shape{31, 30}, Shape{100, 13}, Shape{150, 37},
                                           Shape{333, 45}, Shape{260, 64}, Shape{600, 150}),
                         shape_name);

// Every path of the trailing update.  Its first column block's tiles start
// 32 + 8 rows below the panel (16 x 8 tile), so with kd from 15 to 73 it
// gets no tile, one 8-row tile, 16-row tiles with and without an 8-row
// remainder, and 0-2 leftover scalar rows; kd not a multiple of 8 leaves a
// short column block.  The wide band meets every remainder across its
// blocks.  Builds with the 8 x 6 or 4 x 6 tile take the same shapes.
std::vector<Shape> tile_path_shapes() {
    std::vector<Shape> shapes;
    for (std::size_t kd : {15, 16, 17, 23, 24, 25, 31, 32, 33, 47, 48, 49, 63, 64, 65, 71, 72, 73})
        shapes.push_back({3 * kd + 7, kd});
    shapes.push_back({1200, 400});
    return shapes;
}
INSTANTIATE_TEST_SUITE_P(TilePaths, BandedBitIdentity, ::testing::ValuesIn(tile_path_shapes()),
                         shape_name);

TEST(BandedBitIdentity, StructuralZerosAndNegativeZeros) {
    // A band with exact zeros, -0.0 and a zero block, as assembled operators
    // have: every product and difference involving a signed zero must round
    // the same way.
    la::SymBandedMatrix a = random_banded(300, 40, 5);
    for (std::size_t j = 0; j < 300; ++j)
        for (std::size_t d = 1; d <= 40 && j + d < 300; ++d) {
            if ((j + 3 * d) % 7 == 0) a.band(d, j) = 0.0;
            if ((j + d) % 11 == 0) a.band(d, j) = -0.0;
            if (d > 20 && j >= 100 && j < 180) a.band(d, j) = 0.0;
        }
    expect_bit_identical(a);
    // A diagonal matrix with -0.0 off the diagonal everywhere.
    la::SymBandedMatrix diag(64, 9);
    for (std::size_t j = 0; j < 64; ++j) {
        diag.band(0, j) = 1.0 + static_cast<double>(j);
        for (std::size_t d = 1; d <= 9 && j + d < 64; ++d) diag.band(d, j) = -0.0;
    }
    expect_bit_identical(diag);
}

/// The leading m x m block of a.
la::SymBandedMatrix leading(const la::SymBandedMatrix& a, std::size_t m) {
    la::SymBandedMatrix b(m, a.bandwidth());
    for (std::size_t j = 0; j < m; ++j)
        for (std::size_t d = 0; d <= a.bandwidth() && j + d < m; ++d) b.band(d, j) = a.band(d, j);
    return b;
}

TEST(BandedBitIdentity, RejectsANonSpdMatrixAtTheSameColumn) {
    // Column 137's pivot goes negative only after the trailing updates of
    // earlier panels, inside a tile's reach; a NaN on the diagonal fails too.
    la::SymBandedMatrix bad = random_banded(260, 50, 3);
    bad.band(0, 137) = 0.01;
    la::SymBandedMatrix nan = random_banded(260, 50, 3);
    nan.band(0, 90) = std::numeric_limits<double>::quiet_NaN();
    for (const auto& [a, column] : {std::pair{&bad, std::size_t{137}}, std::pair{&nan, std::size_t{90}}}) {
        ReferenceCholesky ref;
        blaslite::CountScope scope;
        ASSERT_EQ(ref.factor(*a), column);
        la::BandedCholesky chol;
        EXPECT_FALSE(chol.factor(*a));
        EXPECT_FALSE(chol.factored());
        EXPECT_EQ(scope.delta().calls, 0u) << "a rejected factor charges nothing";
        // The factor fails exactly when it reaches that column: the leading
        // block without it factors, and with it does not.
        EXPECT_TRUE(chol.factor(leading(*a, column)));
        EXPECT_FALSE(chol.factor(leading(*a, column + 1)));
        EXPECT_FALSE(chol.factored());
    }
}

TEST(BandedBitIdentity, MultiRhsSolveEqualsSingleSolves) {
    // Every split of k right-hand sides into 8- and 4-lane sweeps, pairs
    // and singles: 3-4 one 4-lane sweep, 5-8 one 8-lane sweep with 0-3
    // zero lanes, 9-16 an 8-lane sweep then the rest.  Shapes: a mid-size
    // band, FourierNS's per-mode band, n < kd and a diagonal.
    for (const auto [n, kd] : {Shape{333, 45}, Shape{1568, 267}, Shape{30, 45}, Shape{17, 0}}) {
        SCOPED_TRACE(::testing::Message() << "n " << n << ", kd " << kd);
        const la::SymBandedMatrix a = random_banded(n, kd, 8);
        la::BandedCholesky chol;
        ASSERT_TRUE(chol.factor(a));
        for (std::size_t k : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 13u, 16u}) {
            std::vector<std::vector<double>> multi, single;
            for (std::size_t q = 0; q < k; ++q)
                multi.push_back(random_vector(n, static_cast<unsigned>(100 + q)));
            single = multi;
            blaslite::OpCounts single_counts, multi_counts;
            {
                blaslite::CountScope scope;
                for (auto& b : single) chol.solve(b);
                single_counts = scope.delta();
            }
            std::vector<std::span<double>> views(multi.begin(), multi.end());
            {
                blaslite::CountScope scope;
                chol.solve(std::span<const std::span<double>>(views));
                multi_counts = scope.delta();
            }
            EXPECT_TRUE(same_counts(multi_counts, single_counts)) << k << " right-hand sides";
            for (std::size_t q = 0; q < k; ++q)
                EXPECT_TRUE(same_bits(multi[q], single[q])) << "rhs " << q << " of " << k;
        }
    }
}

TEST(BandedBitIdentity, FactorOfAMovedMatrixMatchesACopy) {
    la::SymBandedMatrix a = random_banded(150, 37, 4);
    la::BandedCholesky copied, moved;
    ASSERT_TRUE(copied.factor(a));
    ASSERT_TRUE(moved.factor(std::move(a)));
    EXPECT_TRUE(same_bits(factor_entries(moved), factor_entries(copied)));
}

// ---------------------------------------------------------------------------
// Envelope matrices: row r stored from first(r) to its diagonal, +0 to the
// left.  The factor and the sweeps leave the out-of-envelope terms out; L,
// every solution bit and every count must still be the column sweep's on
// the full band.
// ---------------------------------------------------------------------------

/// A random non-monotone profile: first(r) anywhere in row r's band, a
/// share of long rows reaching far back and of rows holding only their
/// diagonal (as Dirichlet-reduced rows do).
std::vector<std::size_t> random_profile(std::size_t n, std::size_t kd, unsigned seed) {
    std::mt19937 gen(seed);
    std::vector<std::size_t> first(n);
    for (std::size_t r = 0; r < n; ++r) {
        const std::size_t lo = r > kd ? r - kd : 0;
        const unsigned kind = gen() % 8;
        if (kind == 0)
            first[r] = r; // diagonal only
        else if (kind == 1)
            first[r] = lo + gen() % 3; // a long row
        else
            first[r] = r - std::min<std::size_t>(r - lo, gen() % 12); // a short row
    }
    return first;
}

/// An SPD matrix with row envelopes `first`: random entries from first(r)
/// (nonzero there) to the diagonal, diagonally dominant.
la::SymBandedMatrix envelope_matrix(const std::vector<std::size_t>& first, std::size_t kd,
                                    unsigned seed) {
    const std::size_t n = first.size();
    std::mt19937 gen(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    la::SymBandedMatrix a(n, kd);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = first[r]; c < r; ++c) a.band(r - c, c) = dist(gen);
        double& head = a.band(r - first[r], first[r]);
        if (first[r] < r && head == 0.0) head = 0.5;
        a.band(0, r) = 2.0 * static_cast<double>(kd) + 1.0;
    }
    return a;
}

/// Right-hand sides: random values, with exact +0 and -0 where `zeros` says
/// (0: none, 1: every third entry -0, 2: all -0, 3: -0 and +0 alternating
/// with a value every fifth entry).
std::vector<double> rhs_vector(std::size_t n, unsigned seed, int zeros) {
    std::vector<double> b = random_vector(n, seed);
    for (std::size_t i = 0; i < n; ++i) {
        if (zeros == 1 && i % 3 == 0) b[i] = -0.0;
        if (zeros == 2) b[i] = -0.0;
        if (zeros == 3 && i % 5 != 0) b[i] = i % 2 == 0 ? -0.0 : 0.0;
    }
    return b;
}

const std::size_t kRhsCounts[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 16};

/// Factors `a` both ways and checks L and the counts bitwise, then every
/// multi-RHS solve against the column sweep's single solves, with the
/// right-hand-side zero patterns of rhs_vector.
void expect_envelope_bit_identical(const la::SymBandedMatrix& a) {
    ReferenceCholesky ref;
    la::BandedCholesky chol;
    blaslite::OpCounts ref_counts, counts;
    {
        blaslite::CountScope scope;
        ASSERT_EQ(ref.factor(a), a.size());
        ref_counts = scope.delta();
    }
    {
        blaslite::CountScope scope;
        ASSERT_TRUE(chol.factor(a));
        counts = scope.delta();
    }
    EXPECT_TRUE(same_counts(counts, ref_counts)) << "factor";
    EXPECT_TRUE(same_bits(factor_entries(chol), factor_entries(ref))) << "L";
    for (int zeros : {0, 1, 2, 3})
        for (std::size_t k : kRhsCounts) {
            std::vector<std::vector<double>> multi, single;
            for (std::size_t q = 0; q < k; ++q)
                multi.push_back(rhs_vector(a.size(), static_cast<unsigned>(200 + q), zeros));
            single = multi;
            {
                blaslite::CountScope scope;
                for (auto& b : single) ref.solve(b);
                ref_counts = scope.delta();
            }
            std::vector<std::span<double>> views(multi.begin(), multi.end());
            {
                blaslite::CountScope scope;
                chol.solve(std::span<const std::span<double>>(views));
                counts = scope.delta();
            }
            EXPECT_TRUE(same_counts(counts, ref_counts)) << k << " right-hand sides";
            for (std::size_t q = 0; q < k; ++q)
                EXPECT_TRUE(same_bits(multi[q], single[q]))
                    << "rhs " << q << " of " << k << ", zero pattern " << zeros;
        }
}

TEST(BandedBitIdentity, RandomEnvelopes) {
    // Below one panel, the tile paths' band widths, and a wide band.
    for (const auto [n, kd] : {Shape{20, 7}, Shape{100, 13}, Shape{150, 37}, Shape{333, 45},
                               Shape{260, 64}, Shape{226, 73}, Shape{600, 150}}) {
        SCOPED_TRACE(::testing::Message() << "n " << n << ", kd " << kd);
        expect_envelope_bit_identical(envelope_matrix(random_profile(n, kd, 3), kd, 4));
    }
}

TEST(BandedBitIdentity, DiagonalOnlyRows) {
    // Every other row, and then every row but a few, holds only its
    // diagonal; the rest reach back to the band's start.
    for (std::size_t stride : {2, 7}) {
        const std::size_t n = 300, kd = 40;
        std::vector<std::size_t> first(n);
        for (std::size_t r = 0; r < n; ++r)
            first[r] = r % stride == 0 ? (r > kd ? r - kd : 0) : r;
        SCOPED_TRACE(::testing::Message() << "stride " << stride);
        expect_envelope_bit_identical(envelope_matrix(first, kd, 5));
    }
}

TEST(BandedBitIdentity, ZerosInsideTheEnvelope) {
    // Exact +0 and -0 inside row envelopes, including -0 as an envelope's
    // first stored entry and on rows that otherwise hold only the diagonal.
    const std::size_t n = 300, kd = 40;
    const std::vector<std::size_t> first = random_profile(n, kd, 6);
    la::SymBandedMatrix a = envelope_matrix(first, kd, 7);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = first[r]; c < r; ++c) {
            if ((r + 3 * c) % 7 == 0) a.band(r - c, c) = 0.0;
            if ((r + c) % 11 == 0) a.band(r - c, c) = -0.0;
        }
    a.band(5, 120) = -0.0;  // first stored entry of row 125 if it had none
    a.band(40, 200) = -0.0; // at the band's edge
    expect_envelope_bit_identical(a);
}

/// A FourierNS mode's matrices on Table 2's mesh and order: the pressure
/// operator (lambda = beta_1^2 = 1) and the velocity one, with the
/// solvers' default boundary conditions, Dirichlet-reduced.
TEST(BandedBitIdentity, FourierModeMatrices) {
    const nektar::Discretization disc(
        std::make_shared<mesh::Mesh>(nektar::workloads::table2_mesh()),
        nektar::workloads::kTable2Order);
    const nektar::SolverOptions opts;
    for (const auto& [lambda, bc] :
         {std::pair{1.0, opts.pressure_bc},
          std::pair{1.5 / (opts.viscosity * 2e-3) + 1.0, opts.velocity_bc}}) {
        SCOPED_TRACE(::testing::Message() << "lambda " << lambda);
        la::SymBandedMatrix h = nektar::assemble_helmholtz(disc, lambda);
        (void)nektar::DirichletReduction(h, nektar::constrained_dofs(disc, bc));
        ASSERT_EQ(h.size(), 1568u);
        ASSERT_EQ(h.bandwidth(), 267u);
        expect_envelope_bit_identical(h);
    }
}

/// SerialNS2d's Schur complements on Table 1's mesh and order: pressure
/// (lambda = 0) and velocity.
TEST(BandedBitIdentity, SerialSchurMatrices) {
    const auto disc = std::make_shared<nektar::Discretization>(
        std::make_shared<mesh::Mesh>(nektar::workloads::table1_mesh()),
        nektar::workloads::kTable1Order);
    const nektar::SolverOptions opts;
    for (const auto& [lambda, bc] :
         {std::pair{0.0, opts.pressure_bc},
          std::pair{1.5 / (opts.viscosity * 2e-3), opts.velocity_bc}}) {
        SCOPED_TRACE(::testing::Message() << "lambda " << lambda);
        const nektar::CondensedHelmholtz cond(disc, lambda, bc);
        const la::SymBandedMatrix s = cond.schur_matrix();
        ASSERT_EQ(s.size(), cond.boundary_dofs());
        expect_envelope_bit_identical(s);
    }
}

} // namespace
