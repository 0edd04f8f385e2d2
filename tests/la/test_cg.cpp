#include "la/cg.hpp"

#include <gtest/gtest.h>

#include <random>

#include "la/banded.hpp"
#include "la/dense.hpp"

namespace {

TEST(Pcg, SolvesSpdBandedSystem) {
    const std::size_t n = 80;
    la::SymBandedMatrix a(n, 2);
    std::mt19937 gen(11);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    for (std::size_t d = 1; d <= 2; ++d)
        for (std::size_t j = 0; j + d < n; ++j) a.band(d, j) = dist(gen);
    for (std::size_t j = 0; j < n; ++j) a.band(0, j) = 6.0;

    std::vector<double> x_true(n), b(n), x(n, 0.0), inv_diag(n);
    for (std::size_t i = 0; i < n; ++i) x_true[i] = dist(gen);
    a.matvec(x_true, b);
    for (std::size_t j = 0; j < n; ++j) inv_diag[j] = 1.0 / a.band(0, j);

    const auto res = la::pcg(
        [&](std::span<const double> in, std::span<double> out) { a.matvec(in, out); }, inv_diag,
        b, x, {.max_iterations = 500, .tolerance = 1e-12});
    EXPECT_TRUE(res.converged());
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

TEST(Pcg, ImmediateConvergenceOnExactGuess) {
    la::SymBandedMatrix a(4, 0);
    for (std::size_t j = 0; j < 4; ++j) a.band(0, j) = 2.0;
    std::vector<double> b = {2, 4, 6, 8};
    std::vector<double> x = {1, 2, 3, 4};
    std::vector<double> inv_diag(4, 0.5);
    const auto res = la::pcg(
        [&](std::span<const double> in, std::span<double> out) { a.matvec(in, out); }, inv_diag,
        b, x);
    EXPECT_TRUE(res.converged());
    EXPECT_EQ(res.iterations, 0u);
}

TEST(Pcg, ReportsNonConvergenceWithinBudget) {
    // An ill-conditioned system and a tiny iteration budget.
    const std::size_t n = 50;
    la::SymBandedMatrix a(n, 1);
    for (std::size_t j = 0; j < n; ++j) a.band(0, j) = 2.0;
    for (std::size_t j = 0; j + 1 < n; ++j) a.band(1, j) = -1.0;
    std::vector<double> b(n, 1.0), x(n, 0.0), inv_diag(n, 0.5);
    const auto res = la::pcg(
        [&](std::span<const double> in, std::span<double> out) { a.matvec(in, out); }, inv_diag,
        b, x, {.max_iterations = 3, .tolerance = 1e-14});
    EXPECT_FALSE(res.converged());
    EXPECT_EQ(res.status, la::CgStatus::MaxIterations);
    EXPECT_EQ(res.iterations, 3u);
}

TEST(Pcg, ReportsBreakdownOnIndefiniteOperator) {
    // diag(1, -1) with b = (1, 1): p^T A p = 0 on the first search direction.
    const auto apply = [](std::span<const double> in, std::span<double> out) {
        out[0] = in[0];
        out[1] = -in[1];
    };
    std::vector<double> b = {1.0, 1.0}, x(2, 0.0), inv_diag(2, 1.0);
    const auto res = la::pcg(apply, inv_diag, b, x, {.max_iterations = 10, .tolerance = 1e-12});
    EXPECT_EQ(res.status, la::CgStatus::Breakdown);
    EXPECT_FALSE(res.converged());
    EXPECT_STREQ(la::to_string(res.status), "breakdown");
}

TEST(Pcg, DiagonalPreconditionerBeatsNone) {
    // Strongly varying diagonal: Jacobi preconditioning should converge in
    // far fewer iterations.
    const std::size_t n = 60;
    la::SymBandedMatrix a(n, 1);
    for (std::size_t j = 0; j < n; ++j)
        a.band(0, j) = 1.0 + 100.0 * static_cast<double>(j) / static_cast<double>(n);
    for (std::size_t j = 0; j + 1 < n; ++j) a.band(1, j) = -0.3;
    std::vector<double> b(n, 1.0);

    std::vector<double> x1(n, 0.0), inv1(n);
    for (std::size_t j = 0; j < n; ++j) inv1[j] = 1.0 / a.band(0, j);
    const auto with = la::pcg(
        [&](std::span<const double> in, std::span<double> out) { a.matvec(in, out); }, inv1, b,
        x1, {.max_iterations = 400, .tolerance = 1e-10});

    std::vector<double> x2(n, 0.0), inv2(n, 1.0);
    const auto without = la::pcg(
        [&](std::span<const double> in, std::span<double> out) { a.matvec(in, out); }, inv2, b,
        x2, {.max_iterations = 400, .tolerance = 1e-10});

    EXPECT_TRUE(with.converged());
    EXPECT_TRUE(without.converged());
    EXPECT_LT(with.iterations, without.iterations);
}

} // namespace
