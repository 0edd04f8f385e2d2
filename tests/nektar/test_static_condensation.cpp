#include "nektar/static_condensation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "mesh/generators.hpp"
#include "nektar/solver_options.hpp"
#include "nektar/workloads.hpp"

namespace {

using nektar::CondensedHelmholtz;
using nektar::Discretization;
using nektar::HelmholtzBC;
using nektar::HelmholtzDirect;

std::shared_ptr<Discretization> disc_for(mesh::Mesh m, std::size_t order) {
    return std::make_shared<Discretization>(std::make_shared<mesh::Mesh>(std::move(m)), order);
}

mesh::Mesh tagged_square_quads(std::size_t n) {
    auto m = mesh::rectangle_quads(n, n, 0.0, 1.0, 0.0, 1.0);
    m.tag_boundary(mesh::BoundaryTag::Wall, [](double, double) { return true; });
    return m;
}

/// ||a - b||_2 / ||b||_2.
double rel_l2(const std::vector<double>& a, const std::vector<double>& b) {
    EXPECT_EQ(a.size(), b.size());
    double d = 0.0, n = 0.0;
    for (std::size_t i = 0; i < b.size(); ++i) {
        d += (a[i] - b[i]) * (a[i] - b[i]);
        n += b[i] * b[i];
    }
    return std::sqrt(d / n);
}

class CondensedOrders : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(CondensedOrders, MatchesFullDirectSolve) {
    const auto [p, tris] = GetParam();
    const auto P = static_cast<std::size_t>(p);
    auto m = tris ? mesh::rectangle_tris(3, 3, 0.0, 1.0, 0.0, 1.0)
                  : mesh::rectangle_quads(3, 3, 0.0, 1.0, 0.0, 1.0);
    m.tag_boundary(mesh::BoundaryTag::Wall, [](double, double) { return true; });
    const auto disc = disc_for(std::move(m), P);
    const HelmholtzBC bc{.dirichlet = {mesh::BoundaryTag::Wall}};
    HelmholtzDirect full(disc, 2.0, bc);
    CondensedHelmholtz cond(disc, 2.0, bc);

    std::vector<double> f(disc->quad_size());
    disc->eval_at_quad([](double x, double y) { return std::exp(x) * (1.0 + y); }, f);
    const auto g = [](double x, double y) { return 0.25 * x - 0.5 * y; };
    const auto uf = full.solve(f, g);
    const auto uc = cond.solve(f, g);
    ASSERT_EQ(uf.size(), uc.size());
    EXPECT_LT(rel_l2(uc, uf), 1e-12) << "P=" << P << " tris=" << tris;

    // The global-RHS path on an assembled right-hand side that is not a
    // weak projection of anything smooth.
    std::vector<double> rhs(disc->dofmap().num_global());
    for (std::size_t i = 0; i < rhs.size(); ++i) rhs[i] = std::sin(0.7 * static_cast<double>(i));
    const auto dir = full.dirichlet_vector(g);
    EXPECT_LT(rel_l2(cond.solve_global(rhs, dir), full.solve_global(rhs, dir)), 1e-12)
        << "P=" << P << " tris=" << tris;
}

INSTANTIATE_TEST_SUITE_P(Meshes, CondensedOrders,
                         ::testing::Combine(::testing::Values(2, 3, 5, 7),
                                            ::testing::Values(false, true)));

TEST(Condensed, MatchesFullDirectOnTheTableOneMesh) {
    // SerialNS2d's three solves on Table 1's bluff-body mesh at order 6,
    // with the solver-default boundary conditions: u and v as one 2-RHS
    // call at lambda = gamma0/(nu dt) with nonzero Dirichlet data, the
    // pressure at lambda = 0 with Outflow Dirichlet, and a pinned
    // all-Neumann Poisson problem.
    const auto disc =
        disc_for(nektar::workloads::table1_mesh(), nektar::workloads::kTable1Order);
    const nektar::SolverOptions opts;
    std::vector<double> fu(disc->quad_size()), fv(disc->quad_size());
    disc->eval_at_quad([](double x, double y) { return std::exp(-0.1 * x) * (1.0 + y); }, fu);
    disc->eval_at_quad([](double x, double y) { return std::sin(x) * std::cos(2.0 * y); }, fv);
    const std::vector<std::vector<double>> rhs = {nektar::weak_rhs(*disc, fu),
                                                  nektar::weak_rhs(*disc, fv)};

    const double lambda = 1.5 / (0.01 * 2e-3);
    const HelmholtzDirect full(disc, lambda, opts.velocity_bc);
    const CondensedHelmholtz cond(disc, lambda, opts.velocity_bc);
    EXPECT_EQ(cond.boundary_dofs(), 2416u);
    EXPECT_EQ(cond.bandwidth(), 243u);
    const auto du = full.dirichlet_vector(
        [](double x, double y) { return nektar::workloads::inflow_u(x, y, 0.0); });
    const auto dv = full.dirichlet_vector([](double x, double y) { return 0.1 * x * y; });
    const auto uf = full.solve_global(rhs, {du, dv});
    const auto uc = cond.solve_global(rhs, {du, dv});
    EXPECT_LT(rel_l2(uc[0], uf[0]), 1e-12);
    EXPECT_LT(rel_l2(uc[1], uf[1]), 1e-12);

    const std::vector<double> zero(disc->dofmap().num_global(), 0.0);
    const HelmholtzDirect pfull(disc, 0.0, opts.pressure_bc);
    const CondensedHelmholtz pcond(disc, 0.0, opts.pressure_bc);
    EXPECT_LT(rel_l2(pcond.solve_global(rhs[1], zero), pfull.solve_global(rhs[1], zero)),
              1e-12);

    const HelmholtzBC pinned{.dirichlet = {}, .pin_first_dof = true};
    const HelmholtzDirect nfull(disc, 0.0, pinned);
    const CondensedHelmholtz ncond(disc, 0.0, pinned);
    EXPECT_LT(rel_l2(ncond.solve_global(rhs[1], zero), nfull.solve_global(rhs[1], zero)),
              1e-12);
}

TEST(Condensed, ShrinksTheGlobalSystem) {
    const auto disc = disc_for(tagged_square_quads(4), 7);
    const HelmholtzBC bc{.dirichlet = {mesh::BoundaryTag::Wall}};
    HelmholtzDirect full(disc, 1.0, bc);
    CondensedHelmholtz cond(disc, 1.0, bc);
    // 16 elements x 36 interior modes eliminated.
    EXPECT_EQ(cond.boundary_dofs() + 16 * 36, disc->dofmap().num_global());
    EXPECT_LT(cond.boundary_dofs(), disc->dofmap().num_global() / 2);
    EXPECT_LT(cond.bandwidth(), full.bandwidth());
}

TEST(Condensed, ManufacturedSolutionAccuracy) {
    const auto disc = disc_for(tagged_square_quads(3), 6);
    CondensedHelmholtz cond(disc, 1.0, {.dirichlet = {mesh::BoundaryTag::Wall}});
    std::vector<double> f(disc->quad_size());
    disc->eval_at_quad(
        [](double x, double y) {
            return (2.0 * std::numbers::pi * std::numbers::pi + 1.0) *
                   std::sin(std::numbers::pi * x) * std::sin(std::numbers::pi * y);
        },
        f);
    const auto sol = cond.solve(f);
    std::vector<double> uq(disc->quad_size());
    disc->to_quad(sol, uq);
    EXPECT_LT(disc->l2_error(uq, [](double x, double y) {
                  return std::sin(std::numbers::pi * x) * std::sin(std::numbers::pi * y);
              }),
              1e-4);
}

TEST(Condensed, AllNeumannWithPin) {
    auto m = mesh::rectangle_quads(3, 3, 0.0, 1.0, 0.0, 1.0); // untagged
    const auto disc = disc_for(std::move(m), 4);
    // Helmholtz with lambda > 0 is nonsingular even without Dirichlet data.
    CondensedHelmholtz cond(disc, 3.0, {});
    HelmholtzDirect full(disc, 3.0, {});
    std::vector<double> f(disc->quad_size());
    disc->eval_at_quad([](double x, double y) { return x - y * y; }, f);
    const auto uc = cond.solve(f);
    const auto uf = full.solve(f);
    for (std::size_t i = 0; i < uf.size(); ++i) EXPECT_NEAR(uc[i], uf[i], 1e-9);
}

TEST(Condensed, LowestOrderHasNoInteriors) {
    // P = 1: no bubbles to condense; the solver must degenerate gracefully
    // to the full vertex system.
    const auto disc = disc_for(tagged_square_quads(4), 1);
    CondensedHelmholtz cond(disc, 1.0, {.dirichlet = {mesh::BoundaryTag::Wall}});
    EXPECT_EQ(cond.boundary_dofs(), disc->dofmap().num_global());
    std::vector<double> f(disc->quad_size(), 1.0);
    const auto sol = cond.solve(f);
    for (double v : sol) EXPECT_TRUE(std::isfinite(v));
}

} // namespace
