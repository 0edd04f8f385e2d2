#include "nektar/helmholtz.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>
#include <string>

#include "blaslite/counters.hpp"
#include "mesh/generators.hpp"
#include "nektar/static_condensation.hpp"

namespace {

using nektar::Discretization;
using nektar::HelmholtzBC;
using nektar::HelmholtzDirect;
using nektar::HelmholtzPCG;

std::shared_ptr<Discretization> disc_for(mesh::Mesh m, std::size_t order) {
    return std::make_shared<Discretization>(std::make_shared<mesh::Mesh>(std::move(m)), order);
}

/// Manufactured solution u = sin(pi x) sin(pi y) on [0,1]^2 with
/// -lap u + lambda u = f, homogeneous Dirichlet on the whole boundary.
struct Manufactured {
    double lambda;
    [[nodiscard]] double u(double x, double y) const {
        return std::sin(std::numbers::pi * x) * std::sin(std::numbers::pi * y);
    }
    [[nodiscard]] double f(double x, double y) const {
        return (2.0 * std::numbers::pi * std::numbers::pi + lambda) * u(x, y);
    }
};

mesh::Mesh unit_square_quads(std::size_t n) {
    auto m = mesh::rectangle_quads(n, n, 0.0, 1.0, 0.0, 1.0);
    m.tag_boundary(mesh::BoundaryTag::Wall, [](double, double) { return true; });
    return m;
}

mesh::Mesh unit_square_tris(std::size_t n) {
    auto m = mesh::rectangle_tris(n, n, 0.0, 1.0, 0.0, 1.0);
    m.tag_boundary(mesh::BoundaryTag::Wall, [](double, double) { return true; });
    return m;
}

double solve_error(std::shared_ptr<Discretization> disc, double lambda, bool use_pcg) {
    const Manufactured ms{lambda};
    HelmholtzBC bc{.dirichlet = {mesh::BoundaryTag::Wall}};
    std::vector<double> fq(disc->quad_size());
    disc->eval_at_quad([&](double x, double y) { return ms.f(x, y); }, fq);
    std::vector<double> modal;
    if (use_pcg) {
        HelmholtzPCG solver(disc, lambda, bc);
        modal = solver.solve(fq);
    } else {
        HelmholtzDirect solver(disc, lambda, bc);
        modal = solver.solve(fq);
    }
    std::vector<double> uq(disc->quad_size());
    disc->to_quad(modal, uq);
    return disc->l2_error(uq, [&](double x, double y) { return ms.u(x, y); });
}

class HelmholtzOrders : public ::testing::TestWithParam<int> {};

TEST_P(HelmholtzOrders, QuadMeshPConvergence) {
    const auto P = static_cast<std::size_t>(GetParam());
    const double err = solve_error(disc_for(unit_square_quads(3), P), 1.0, false);
    // Exponential convergence: generous per-order bounds.
    const double bounds[] = {0, 0, 0.05, 0.02, 2e-3, 5e-4, 2e-5, 5e-6, 2e-7};
    EXPECT_LT(err, bounds[P]) << "P=" << P;
}

TEST_P(HelmholtzOrders, TriMeshPConvergence) {
    const auto P = static_cast<std::size_t>(GetParam());
    const double err = solve_error(disc_for(unit_square_tris(3), P), 1.0, false);
    const double bounds[] = {0, 0, 0.06, 0.03, 3e-3, 8e-4, 4e-5, 1e-5, 5e-7};
    EXPECT_LT(err, bounds[P]) << "P=" << P;
}

INSTANTIATE_TEST_SUITE_P(Orders, HelmholtzOrders, ::testing::Values(2, 3, 4, 5, 6, 7, 8));

TEST(Helmholtz, DirectAndPcgAgree) {
    const auto disc = disc_for(unit_square_quads(3), 5);
    const double direct = solve_error(disc, 2.5, false);
    const double pcg = solve_error(disc, 2.5, true);
    EXPECT_NEAR(direct, pcg, 1e-7);
}

TEST(Helmholtz, NonHomogeneousDirichlet) {
    // u = x^2 - y^2 is harmonic: solve Laplace with u given on the boundary.
    const auto disc = disc_for(unit_square_quads(4), 4);
    HelmholtzDirect solver(disc, 0.0, {.dirichlet = {mesh::BoundaryTag::Wall}});
    std::vector<double> fq(disc->quad_size(), 0.0);
    const auto modal = solver.solve(fq, [](double x, double y) { return x * x - y * y; });
    std::vector<double> uq(disc->quad_size());
    disc->to_quad(modal, uq);
    EXPECT_LT(disc->l2_error(uq, [](double x, double y) { return x * x - y * y; }), 1e-9);
}

TEST(Helmholtz, MixedDirichletNeumann) {
    // u = cos(pi x): du/dn = 0 on y = 0, 1 (natural), Dirichlet on x = 0, 1.
    auto m = mesh::rectangle_quads(4, 2, 0.0, 1.0, 0.0, 1.0);
    m.tag_boundary(mesh::BoundaryTag::Wall,
                   [](double x, double) { return x < 1e-9 || x > 1.0 - 1e-9; });
    m.tag_boundary(mesh::BoundaryTag::Side,
                   [](double, double y) { return y < 1e-9 || y > 1.0 - 1e-9; });
    const auto disc = disc_for(std::move(m), 6);
    const double lambda = 1.0;
    HelmholtzDirect solver(disc, lambda, {.dirichlet = {mesh::BoundaryTag::Wall}});
    std::vector<double> fq(disc->quad_size());
    disc->eval_at_quad(
        [&](double x, double) {
            return (std::numbers::pi * std::numbers::pi + lambda) * std::cos(std::numbers::pi * x);
        },
        fq);
    const auto modal =
        solver.solve(fq, [](double x, double) { return std::cos(std::numbers::pi * x); });
    std::vector<double> uq(disc->quad_size());
    disc->to_quad(modal, uq);
    EXPECT_LT(disc->l2_error(uq, [](double x, double) { return std::cos(std::numbers::pi * x); }),
              1e-5);
}

TEST(Helmholtz, AllNeumannPoissonNeedsPin) {
    auto m = mesh::rectangle_quads(3, 3, 0.0, 1.0, 0.0, 1.0);
    // No Dirichlet tags at all.
    const auto disc = disc_for(std::move(m), 3);
    EXPECT_THROW(HelmholtzDirect(disc, 0.0, {}), std::runtime_error);
    EXPECT_NO_THROW(HelmholtzDirect(disc, 0.0, {.dirichlet = {}, .pin_first_dof = true}));
}

TEST(Helmholtz, BandedSolverSeesReducedBandwidth) {
    // The RCM ordering must give a half-bandwidth well below the dof count.
    const auto disc = disc_for(unit_square_quads(6), 4);
    HelmholtzDirect solver(disc, 1.0, {.dirichlet = {mesh::BoundaryTag::Wall}});
    EXPECT_LT(solver.bandwidth(), disc->dofmap().num_global() / 3);
}

TEST(Helmholtz, TwoRhsSolveGlobalMatchesTwoSingleSolves) {
    // The u/v pair of a step: different forcing and Dirichlet data, one pass
    // over the factor, bitwise and in operation counts equal to two calls.
    const auto disc = disc_for(unit_square_quads(4), 5);
    HelmholtzDirect solver(disc, 3.0, {.dirichlet = {mesh::BoundaryTag::Wall}});
    const std::size_t n = disc->dofmap().num_global();
    std::vector<double> f0(n), f1(n);
    for (std::size_t i = 0; i < n; ++i) {
        f0[i] = std::sin(0.3 * static_cast<double>(i));
        f1[i] = std::cos(0.7 * static_cast<double>(i));
    }
    const auto d0 = solver.dirichlet_vector([](double x, double y) { return x + 2.0 * y; });
    const auto d1 = solver.dirichlet_vector([](double x, double y) { return x * y - 1.0; });
    blaslite::OpCounts single_counts, pair_counts;
    std::vector<double> u0, u1;
    {
        blaslite::CountScope scope;
        u0 = solver.solve_global(f0, d0);
        u1 = solver.solve_global(f1, d1);
        single_counts = scope.delta();
    }
    std::vector<std::vector<double>> uv;
    {
        blaslite::CountScope scope;
        uv = solver.solve_global({f0, f1}, {d0, d1});
        pair_counts = scope.delta();
    }
    ASSERT_EQ(uv[0].size(), u0.size());
    EXPECT_EQ(std::memcmp(uv[0].data(), u0.data(), u0.size() * sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(uv[1].data(), u1.data(), u1.size() * sizeof(double)), 0);
    EXPECT_EQ(pair_counts.flops, single_counts.flops);
    EXPECT_EQ(pair_counts.bytes_read, single_counts.bytes_read);
    EXPECT_EQ(pair_counts.bytes_written, single_counts.bytes_written);
    EXPECT_EQ(pair_counts.calls, single_counts.calls);
}

/// k right-hand sides in one pass, Dirichlet data on only one of them (a
/// Fourier mode's planes: the mean mode's real plane), the rest
/// homogeneous.  Each solution and the summed charges equal k single calls
/// bitwise.
template <class Solver>
void expect_multi_rhs_matches_single_solves() {
    const auto disc = disc_for(unit_square_quads(4), 5);
    const Solver solver(disc, 2.5, {.dirichlet = {mesh::BoundaryTag::Wall}});
    const std::size_t n = disc->dofmap().num_global();
    const auto bvals = solver.dirichlet_vector([](double x, double y) { return 1.0 + x - y; });
    const std::vector<double> zero(n, 0.0);
    for (std::size_t k : {1u, 2u, 3u, 6u}) {
        std::vector<std::vector<double>> f(k, std::vector<double>(n));
        std::vector<std::span<const double>> dirichlet;
        for (std::size_t q = 0; q < k; ++q) {
            for (std::size_t i = 0; i < n; ++i)
                f[q][i] = std::sin(0.1 * static_cast<double>((q + 1) * i) + 0.5 * q);
            dirichlet.emplace_back(q == k / 2 ? bvals : zero);
        }
        blaslite::OpCounts single_counts, multi_counts;
        std::vector<std::vector<double>> single, multi;
        {
            blaslite::CountScope scope;
            for (std::size_t q = 0; q < k; ++q)
                single.push_back(solver.solve_global(f[q], dirichlet[q]));
            single_counts = scope.delta();
        }
        {
            blaslite::CountScope scope;
            multi = solver.solve_global(f, dirichlet);
            multi_counts = scope.delta();
        }
        ASSERT_EQ(multi.size(), k);
        for (std::size_t q = 0; q < k; ++q) {
            ASSERT_EQ(multi[q].size(), single[q].size());
            EXPECT_EQ(std::memcmp(multi[q].data(), single[q].data(),
                                  single[q].size() * sizeof(double)),
                      0)
                << "rhs " << q << " of " << k;
        }
        EXPECT_EQ(multi_counts.flops, single_counts.flops) << k;
        EXPECT_EQ(multi_counts.bytes_read, single_counts.bytes_read) << k;
        EXPECT_EQ(multi_counts.bytes_written, single_counts.bytes_written) << k;
        EXPECT_EQ(multi_counts.calls, single_counts.calls) << k;
    }
}

TEST(Helmholtz, MultiRhsSolveGlobalMatchesSingleSolves) {
    {
        SCOPED_TRACE("HelmholtzDirect");
        expect_multi_rhs_matches_single_solves<HelmholtzDirect>();
    }
    {
        SCOPED_TRACE("CondensedHelmholtz");
        expect_multi_rhs_matches_single_solves<nektar::CondensedHelmholtz>();
    }
}

TEST(Helmholtz, PcgThrowsWhenCgStopsUnconverged) {
    // Two iterations cannot reach 1e-10 on this problem: the solve must
    // throw, naming the status and the iteration count, rather than return
    // an unconverged field.
    const auto disc = disc_for(unit_square_quads(4), 5);
    HelmholtzPCG solver(disc, 1.0, {.dirichlet = {mesh::BoundaryTag::Wall}},
                        {.max_iterations = 2, .tolerance = 1e-10});
    std::vector<double> fq(disc->quad_size(), 1.0);
    try {
        (void)solver.solve(fq);
        ADD_FAILURE() << "unconverged PCG solve did not throw";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("max-iterations"), std::string::npos) << what;
        EXPECT_NE(what.find("after 2 iterations"), std::string::npos) << what;
    }
    EXPECT_EQ(solver.last_iterations(), 2u);
}

TEST(Helmholtz, HybridTriQuadMesh) {
    // Half the strip quads, half split into triangles: conformity across the
    // tri/quad interface is exercised directly.
    std::vector<mesh::Vertex> verts = {{0, 0}, {1, 0}, {2, 0}, {0, 1}, {1, 1}, {2, 1}};
    std::vector<mesh::Element> elems;
    elems.push_back({spectral::Shape::Quad, {0, 1, 4, 3}});
    elems.push_back({spectral::Shape::Triangle, {1, 2, 5, -1}});
    elems.push_back({spectral::Shape::Triangle, {1, 5, 4, -1}});
    auto m = mesh::Mesh(std::move(verts), std::move(elems));
    m.tag_boundary(mesh::BoundaryTag::Wall, [](double, double) { return true; });
    const auto disc = disc_for(std::move(m), 5);
    HelmholtzDirect solver(disc, 1.0, {.dirichlet = {mesh::BoundaryTag::Wall}});
    // Manufactured: u = sin(pi x / 2) sin(pi y), Dirichlet from the exact u.
    const auto u = [](double x, double y) {
        return std::sin(0.5 * std::numbers::pi * x) * std::sin(std::numbers::pi * y);
    };
    std::vector<double> fq(disc->quad_size());
    disc->eval_at_quad(
        [&](double x, double y) {
            return (1.25 * std::numbers::pi * std::numbers::pi + 1.0) * u(x, y);
        },
        fq);
    const auto modal = solver.solve(fq, u);
    std::vector<double> uq(disc->quad_size());
    disc->to_quad(modal, uq);
    EXPECT_LT(disc->l2_error(uq, u), 5e-3);
}

} // namespace
