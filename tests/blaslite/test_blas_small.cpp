/// Bitwise tests of dgemm's unblocked small-matrix path and dgemv_t, which
/// share the register-row kernel.  The reference is the plain ikj loop the
/// kernel replaced, compiled as a REPRO_MULTIVERSION function so it runs on
/// the same ISA clone and contracts a*b+c into an FMA exactly when the
/// kernel does.  Shapes sweep every accumulator count (n / 8 = 0..3), every
/// tail width (n % 8 = 0..7) and the n >= 32 fallback, with padded leading
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

} // namespace
