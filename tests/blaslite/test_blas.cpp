#include "blaslite/blas.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

namespace {

std::vector<double> random_vec(std::size_t n, unsigned seed) {
    std::mt19937 gen(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::vector<double> v(n);
    for (auto& x : v) x = dist(gen);
    return v;
}

TEST(BlasLite, DcopyCopies) {
    const auto x = random_vec(133, 1);
    std::vector<double> y(133, 0.0);
    blaslite::dcopy(x, y);
    EXPECT_EQ(x, y);
}

TEST(BlasLite, DaxpyMatchesReference) {
    const auto x = random_vec(97, 2);
    auto y = random_vec(97, 3);
    const auto y0 = y;
    blaslite::daxpy(2.5, x, y);
    for (std::size_t i = 0; i < y.size(); ++i)
        EXPECT_NEAR(y[i], y0[i] + 2.5 * x[i], 1e-14);
}

TEST(BlasLite, DdotMatchesReference) {
    const auto x = random_vec(1001, 4);
    const auto y = random_vec(1001, 5);
    double ref = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) ref += x[i] * y[i];
    EXPECT_NEAR(blaslite::ddot(x, y), ref, 1e-10);
}

TEST(BlasLite, DdotHandlesShortTails) {
    for (std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u}) {
        const auto x = random_vec(n, 6);
        const auto y = random_vec(n, 7);
        double ref = 0.0;
        for (std::size_t i = 0; i < n; ++i) ref += x[i] * y[i];
        EXPECT_NEAR(blaslite::ddot(x, y), ref, 1e-12) << "n=" << n;
    }
}

TEST(BlasLite, DvmulMatchesReference) {
    const auto x = random_vec(64, 8);
    const auto y = random_vec(64, 9);
    std::vector<double> z(64);
    blaslite::dvmul(x, y, z);
    for (std::size_t i = 0; i < 64; ++i) EXPECT_DOUBLE_EQ(z[i], x[i] * y[i]);
}

void reference_gemm(double alpha, const std::vector<double>& a, const std::vector<double>& b,
                    double beta, std::vector<double>& c, std::size_t m, std::size_t n,
                    std::size_t k) {
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            double s = 0.0;
            for (std::size_t p = 0; p < k; ++p) s += a[i * k + p] * b[p * n + j];
            c[i * n + j] = alpha * s + beta * c[i * n + j];
        }
    }
}

class GemmSizes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmSizes, MatchesReference) {
    const auto [m, n, k] = GetParam();
    const auto mu = static_cast<std::size_t>(m);
    const auto nu = static_cast<std::size_t>(n);
    const auto ku = static_cast<std::size_t>(k);
    const auto a = random_vec(mu * ku, 10);
    const auto b = random_vec(ku * nu, 11);
    auto c = random_vec(mu * nu, 12);
    auto ref = c;
    reference_gemm(1.3, a, b, 0.7, ref, mu, nu, ku);
    blaslite::dgemm(1.3, a.data(), ku, b.data(), nu, 0.7, c.data(), nu, mu, nu, ku);
    for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-11 * ku);
}

INSTANTIATE_TEST_SUITE_P(SmallAndBlocked, GemmSizes,
                         ::testing::Values(std::tuple{1, 1, 1}, std::tuple{2, 3, 4},
                                           std::tuple{5, 5, 5}, std::tuple{8, 16, 4},
                                           std::tuple{20, 20, 20}, std::tuple{64, 64, 64},
                                           std::tuple{65, 64, 63}, std::tuple{100, 37, 129},
                                           std::tuple{130, 130, 130}));

TEST(BlasLite, GemvNormalAndTranspose) {
    const std::size_t m = 17, n = 23;
    const auto a = random_vec(m * n, 13);
    const auto x = random_vec(n, 14);
    const auto xt = random_vec(m, 15);
    std::vector<double> y(m, 1.0), yt(n, 1.0);
    blaslite::dgemv(2.0, a.data(), n, m, n, x.data(), 0.5, y.data());
    blaslite::dgemv_t(2.0, a.data(), n, m, n, xt.data(), 0.5, yt.data());
    for (std::size_t i = 0; i < m; ++i) {
        double s = 0.0;
        for (std::size_t j = 0; j < n; ++j) s += a[i * n + j] * x[j];
        EXPECT_NEAR(y[i], 2.0 * s + 0.5, 1e-12);
    }
    for (std::size_t j = 0; j < n; ++j) {
        double s = 0.0;
        for (std::size_t i = 0; i < m; ++i) s += a[i * n + j] * xt[i];
        EXPECT_NEAR(yt[j], 2.0 * s + 0.5, 1e-12);
    }
}

TEST(BlasLite, GemvWithZeroBetaNeverReadsY) {
    // y may hold anything when beta = 0 (a scratch buffer's last contents):
    // NaN there must give the same bits as a zeroed y.
    const std::size_t m = 17, n = 23;
    const auto a = random_vec(m * n, 18);
    const auto x = random_vec(n, 19);
    std::vector<double> zeroed(m, 0.0), poisoned(m, std::numeric_limits<double>::quiet_NaN());
    blaslite::dgemv(1.0, a.data(), n, m, n, x.data(), 0.0, zeroed.data());
    blaslite::dgemv(1.0, a.data(), n, m, n, x.data(), 0.0, poisoned.data());
    EXPECT_EQ(std::memcmp(zeroed.data(), poisoned.data(), m * sizeof(double)), 0);
}

TEST(BlasLiteCounters, DgemmChargesExpectedFlops) {
    blaslite::reset_thread_counts();
    const std::size_t n = 10;
    const auto a = random_vec(n * n, 16);
    const auto b = random_vec(n * n, 17);
    std::vector<double> c(n * n, 0.0);
    blaslite::CountScope scope;
    blaslite::dgemm_square(1.0, a.data(), b.data(), 0.0, c.data(), n);
    const auto d = scope.delta();
    EXPECT_EQ(d.flops, 2 * n * n * n + n * n);
    EXPECT_EQ(d.calls, 1u);
    EXPECT_GT(d.bytes(), 0u);
}

TEST(BlasLiteCounters, ScopesNest) {
    std::vector<double> x(100, 1.0), y(100, 2.0);
    blaslite::CountScope outer;
    blaslite::daxpy(1.0, x, y);
    {
        blaslite::CountScope inner;
        blaslite::daxpy(1.0, x, y);
        EXPECT_EQ(inner.delta().flops, 200u);
    }
    EXPECT_EQ(outer.delta().flops, 400u);
}

} // namespace
