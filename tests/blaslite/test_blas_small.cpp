/// Bitwise tests of dgemm's two engines.  BlasLiteSmall covers the unblocked
/// small-matrix path and dgemv_t, which share the register-row kernel; its
/// reference is the plain ikj loop the kernel replaced.  Shapes sweep every
/// accumulator count (n / 8 = 0..3), every tail width (n % 8 = 0..7) and the
/// n >= 32 fallback.  BlasLitePacked covers the packed micro-kernel behind
/// dgemm, dgemm_cm and both batched entry points; its reference is a loop in
/// the tile's own order.  Shapes sweep every row remainder (m % 8 = 0..7,
/// the micro-kernels of 1..7 rows next to the full 8-row tile) and every
/// panel width (1..8).  Each reference is compiled as a REPRO_MULTIVERSION
/// function, so it runs on the same ISA clone and contracts a*b+c into an
/// FMA exactly when the kernel does, and every shape has padded leading
/// dimensions whose padding must stay untouched.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <vector>

#include "blaslite/blas.hpp"
#include "blaslite/multiversion.hpp"

namespace {

/// C (m x n) <- beta C + alpha A B, row-major, in ikj order: beta applied
/// first, then c += (alpha*a_ip)*b_pj for p ascending.
REPRO_MULTIVERSION
void reference_ikj(double alpha, const double* a, std::size_t lda, const double* b,
                   std::size_t ldb, double beta, double* c, std::size_t ldc, std::size_t m,
                   std::size_t n, std::size_t k) {
    for (std::size_t i = 0; i < m; ++i) {
        double* crow = c + i * ldc;
        if (beta == 0.0) {
            std::fill(crow, crow + n, 0.0);
        } else if (beta != 1.0) {
            for (std::size_t j = 0; j < n; ++j) crow[j] *= beta;
        }
        const double* arow = a + i * lda;
        for (std::size_t p = 0; p < k; ++p) {
            const double aip = alpha * arow[p];
            const double* brow = b + p * ldb;
            for (std::size_t j = 0; j < n; ++j) crow[j] += aip * brow[j];
        }
    }
}

/// C (m x n) <- beta C + alpha A B, row-major, in the packed path's order:
/// beta applied to all of C first, then per element acc = sum_p a_ip*b_pj
/// for p ascending from zero, and c += alpha*acc.
REPRO_MULTIVERSION
void reference_tiled(double alpha, const double* a, std::size_t lda, const double* b,
                     std::size_t ldb, double beta, double* c, std::size_t ldc, std::size_t m,
                     std::size_t n, std::size_t k) {
    for (std::size_t i = 0; i < m; ++i) {
        double* crow = c + i * ldc;
        if (beta == 0.0) {
            std::fill(crow, crow + n, 0.0);
        } else if (beta != 1.0) {
            for (std::size_t j = 0; j < n; ++j) crow[j] *= beta;
        }
    }
    std::vector<double> acc(n);
    for (std::size_t i = 0; i < m; ++i) {
        std::fill(acc.begin(), acc.end(), 0.0);
        for (std::size_t p = 0; p < k; ++p) {
            const double aip = a[i * lda + p];
            const double* brow = b + p * ldb;
            for (std::size_t j = 0; j < n; ++j) acc[j] += aip * brow[j];
        }
        double* crow = c + i * ldc;
        for (std::size_t j = 0; j < n; ++j) crow[j] += alpha * acc[j];
    }
}

std::vector<double> random_vec(std::size_t n, std::mt19937& gen) {
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::vector<double> v(n);
    for (auto& x : v) x = dist(gen);
    return v;
}

constexpr double kAlphas[] = {1.0, -0.37};
constexpr double kBetas[] = {0.0, 1.0, 0.5, -0.7};

bool same_bits(const std::vector<double>& x, const std::vector<double>& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

TEST(BlasLiteSmall, DgemmSmallPathIsBitwiseTheIkjLoop) {
    std::mt19937 gen(2024);
    std::size_t cases = 0;
    for (std::size_t m = 1; m <= 9; ++m) {
        for (std::size_t n = 1; n <= 40; ++n) {
            for (std::size_t k = 0; k <= 30; ++k) {
                // Padded leading dimensions: lda > k, ldb and ldc > n.
                const std::size_t lda = k + 1, ldb = n + 3, ldc = n + 2;
                const auto a = random_vec(m * lda, gen);
                const auto b = random_vec(std::max<std::size_t>(k, 1) * ldb, gen);
                const auto c0 = random_vec(m * ldc, gen);
                for (double alpha : kAlphas) {
                    for (double beta : kBetas) {
                        auto c = c0, ref = c0;
                        blaslite::dgemm(alpha, a.data(), lda, b.data(), ldb, beta, c.data(),
                                        ldc, m, n, k);
                        reference_ikj(alpha, a.data(), lda, b.data(), ldb, beta, ref.data(),
                                      ldc, m, n, k);
                        ASSERT_TRUE(same_bits(c, ref)) << "m=" << m << " n=" << n
                                                       << " k=" << k << " alpha=" << alpha
                                                       << " beta=" << beta;
                        ++cases;
                    }
                }
            }
        }
    }
    EXPECT_EQ(cases, 9u * 40u * 31u * 8u);
}

TEST(BlasLiteSmall, DgemvTransposeIsBitwiseTheIkjLoop) {
    std::mt19937 gen(2025);
    for (std::size_t m = 0; m <= 30; ++m) {
        for (std::size_t n = 1; n <= 40; ++n) {
            const std::size_t lda = n + 5;
            const auto a = random_vec(std::max<std::size_t>(m, 1) * lda, gen);
            const auto x = random_vec(std::max<std::size_t>(m, 1), gen);
            // One spare entry past y[n - 1] must stay untouched.
            const auto y0 = random_vec(n + 1, gen);
            for (double alpha : kAlphas) {
                for (double beta : kBetas) {
                    auto y = y0, ref = y0;
                    blaslite::dgemv_t(alpha, a.data(), lda, m, n, x.data(), beta, y.data());
                    // y' (1 x n) = beta y' + alpha x' (1 x m) A.
                    reference_ikj(alpha, x.data(), m, a.data(), lda, beta, ref.data(), n, 1,
                                  n, m);
                    ASSERT_TRUE(same_bits(y, ref)) << "m=" << m << " n=" << n
                                                   << " alpha=" << alpha << " beta=" << beta;
                }
            }
        }
    }
}

TEST(BlasLiteSmall, DgemvTransposeChargesAsBefore) {
    const std::size_t m = 7, n = 25;
    std::vector<double> a(m * n, 0.5), x(m, 1.0), y(n, 0.0);
    blaslite::CountScope scope;
    blaslite::dgemv_t(1.0, a.data(), n, m, n, x.data(), 0.0, y.data());
    const auto d = scope.delta();
    EXPECT_EQ(d.flops, 2 * m * n + m);
    EXPECT_EQ(d.calls, 1u);
}

/// Random operand pools: each packed-path shape reads a prefix of each.
struct Pools {
    static constexpr std::size_t kSize = std::size_t{1} << 15;
    std::mt19937 gen{2026};
    std::vector<double> a = random_vec(kSize, gen), b = random_vec(kSize, gen),
                        c = random_vec(kSize, gen);
};

/// Calls body(r, nr, k) for every row remainder r = m % 8 = 0..7, panel
/// width nr = 1..8 (the last panel's columns) and depth k = 1..40.
template <class Body>
void sweep_tiles(Body&& body) {
    for (std::size_t r = 0; r < 8; ++r)
        for (std::size_t nr = 1; nr <= 8; ++nr)
            for (std::size_t k = 1; k <= 40; ++k) body(r, nr, k);
}

/// The smallest row count rows % 8 == r at which dgemm takes a rows x n x k
/// product off the small path (above 2 * 24^3 flops).
std::size_t packed_rows(std::size_t r, std::size_t n, std::size_t k) {
    std::size_t rows = 8 + r;
    while (2 * rows * n * k <= 2 * 24 * 24 * 24) rows += 8;
    return rows;
}

/// The first `size` values of a pool.
std::vector<double> prefix(const std::vector<double>& pool, std::size_t size) {
    EXPECT_LE(size, pool.size());
    return {pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(size)};
}

TEST(BlasLitePacked, DgemmIsBitwiseTheTiledLoop) {
    const Pools pools;
    sweep_tiles([&](std::size_t r, std::size_t nr, std::size_t k) {
        const std::size_t n = 8 + nr, m = packed_rows(r, n, k);
        const std::size_t lda = k + 1, ldb = n + 3, ldc = n + 2;
        const auto a = prefix(pools.a, m * lda), b = prefix(pools.b, k * ldb);
        const auto c0 = prefix(pools.c, m * ldc);
        for (double alpha : kAlphas) {
            for (double beta : kBetas) {
                auto c = c0, ref = c0;
                blaslite::dgemm(alpha, a.data(), lda, b.data(), ldb, beta, c.data(), ldc, m,
                                n, k);
                reference_tiled(alpha, a.data(), lda, b.data(), ldb, beta, ref.data(), ldc, m,
                                n, k);
                ASSERT_TRUE(same_bits(c, ref)) << "m=" << m << " n=" << n << " k=" << k
                                               << " alpha=" << alpha << " beta=" << beta;
            }
        }
    });
}

// The column-major entry points are row-major products of the transposed
// views, C'(n x m) = B'(n x k) A'(k x m): the panel width is m % 8 and the
// row remainder n % 8.

TEST(BlasLitePacked, DgemmCmIsBitwiseTheTiledLoop) {
    const Pools pools;
    sweep_tiles([&](std::size_t r, std::size_t nr, std::size_t k) {
        const std::size_t m = 8 + nr, n = packed_rows(r, m, k);
        const std::size_t lda = m + 1, ldb = k + 3, ldc = m + 2;
        const auto a = prefix(pools.a, k * lda), b = prefix(pools.b, n * ldb);
        const auto c0 = prefix(pools.c, n * ldc);
        for (double alpha : kAlphas) {
            for (double beta : kBetas) {
                auto c = c0, ref = c0;
                blaslite::dgemm_cm(alpha, a.data(), lda, b.data(), ldb, beta, c.data(), ldc,
                                   m, n, k);
                reference_tiled(alpha, b.data(), ldb, a.data(), lda, beta, ref.data(), ldc, n,
                                m, k);
                ASSERT_TRUE(same_bits(c, ref)) << "m=" << m << " n=" << n << " k=" << k
                                               << " alpha=" << alpha << " beta=" << beta;
            }
        }
    });
}

/// Items per batch in the batched sweeps.
constexpr std::size_t kItems = 3;

TEST(BlasLitePacked, BatchSameAIsBitwiseTheTiledLoop) {
    const Pools pools;
    sweep_tiles([&](std::size_t r, std::size_t nr, std::size_t k) {
        const std::size_t m = 8 + nr, n = 8 + r;
        const std::size_t lda = m + 1, ldb = k + 3, ldc = m + 2;
        const auto a = prefix(pools.a, k * lda), b = prefix(pools.b, kItems * n * ldb);
        const auto c0 = prefix(pools.c, kItems * n * ldc);
        for (double alpha : kAlphas) {
            for (double beta : kBetas) {
                auto c = c0, ref = c0;
                std::vector<blaslite::GemmBatchItem> items;
                for (std::size_t i = 0; i < kItems; ++i) {
                    items.push_back({b.data() + i * n * ldb, c.data() + i * n * ldc});
                    reference_tiled(alpha, b.data() + i * n * ldb, ldb, a.data(), lda, beta,
                                    ref.data() + i * n * ldc, ldc, n, m, k);
                }
                blaslite::dgemm_batch_same_a(alpha, a.data(), lda, m, k, items, n, ldb, ldc,
                                             beta);
                ASSERT_TRUE(same_bits(c, ref)) << "m=" << m << " n=" << n << " k=" << k
                                               << " alpha=" << alpha << " beta=" << beta;
            }
        }
    });
}

TEST(BlasLitePacked, BatchSameBIsBitwiseTheTiledLoop) {
    const Pools pools;
    sweep_tiles([&](std::size_t r, std::size_t nr, std::size_t k) {
        const std::size_t m = 8 + nr, n = 8 + r;
        const std::size_t lda = m + 1, ldb = k + 3, ldc = m + 2;
        const auto a = prefix(pools.a, kItems * k * lda), b = prefix(pools.b, n * ldb);
        const auto c0 = prefix(pools.c, kItems * n * ldc);
        for (double alpha : kAlphas) {
            for (double beta : kBetas) {
                auto c = c0, ref = c0;
                std::vector<blaslite::GemmBatchItem> items;
                for (std::size_t i = 0; i < kItems; ++i) {
                    items.push_back({a.data() + i * k * lda, c.data() + i * n * ldc});
                    reference_tiled(alpha, b.data(), ldb, a.data() + i * k * lda, lda, beta,
                                    ref.data() + i * n * ldc, ldc, n, m, k);
                }
                blaslite::dgemm_batch_same_b(alpha, items, lda, b.data(), ldb, ldc, m, n, k,
                                             beta);
                ASSERT_TRUE(same_bits(c, ref)) << "m=" << m << " n=" << n << " k=" << k
                                               << " alpha=" << alpha << " beta=" << beta;
            }
        }
    });
}

} // namespace
