/// Tests of the shared stiffly-stable time-integration core (splitting.hpp):
/// coefficient tables, history ring buffers, the startup-order ramp, the
/// effective-gamma0 operator caches, golden equivalence of the refactored
/// solvers against pre-refactor step results, and temporal convergence at
/// orders 1, 2 and 3 on all three solvers.
#include <cmath>
#include <memory>
#include <numbers>

#include <gtest/gtest.h>

#include "mesh/generators.hpp"
#include "nektar/ns_ale.hpp"
#include "nektar/ns_fourier.hpp"
#include "nektar/ns_serial.hpp"
#include "nektar/splitting.hpp"

namespace {

using nektar::FieldHistory;
using nektar::stiffly_stable;

constexpr double kPi = std::numbers::pi;

// ---------------------------------------------------------------------------
// Coefficient tables.

TEST(SplittingCoeffs, TableMatchesKarniadakisIsraeliOrszag) {
    const auto& je1 = stiffly_stable(1);
    EXPECT_EQ(je1.order, 1);
    EXPECT_DOUBLE_EQ(je1.gamma0, 1.0);
    EXPECT_DOUBLE_EQ(je1.alpha[0], 1.0);
    EXPECT_DOUBLE_EQ(je1.beta[0], 1.0);

    const auto& je2 = stiffly_stable(2);
    EXPECT_DOUBLE_EQ(je2.gamma0, 1.5);
    EXPECT_DOUBLE_EQ(je2.alpha[0], 2.0);
    EXPECT_DOUBLE_EQ(je2.alpha[1], -0.5);
    EXPECT_DOUBLE_EQ(je2.beta[0], 2.0);
    EXPECT_DOUBLE_EQ(je2.beta[1], -1.0);

    const auto& je3 = stiffly_stable(3);
    EXPECT_DOUBLE_EQ(je3.gamma0, 11.0 / 6.0);
    EXPECT_DOUBLE_EQ(je3.alpha[0], 3.0);
    EXPECT_DOUBLE_EQ(je3.alpha[1], -1.5);
    EXPECT_DOUBLE_EQ(je3.alpha[2], 1.0 / 3.0);
    EXPECT_DOUBLE_EQ(je3.beta[0], 3.0);
    EXPECT_DOUBLE_EQ(je3.beta[1], -3.0);
    EXPECT_DOUBLE_EQ(je3.beta[2], 1.0);
}

TEST(SplittingCoeffs, ConsistencyConditionsHold) {
    // Zeroth/first-order consistency of the implicit-explicit pairing:
    // sum alpha_q = gamma0 (constants are preserved) and sum beta_q = 1
    // (the nonlinear extrapolation is exact for constants).
    for (int je = 1; je <= nektar::kMaxTimeOrder; ++je) {
        const auto& c = stiffly_stable(je);
        double sa = 0.0, sb = 0.0;
        for (int q = 0; q < je; ++q) {
            sa += c.alpha[static_cast<std::size_t>(q)];
            sb += c.beta[static_cast<std::size_t>(q)];
        }
        EXPECT_NEAR(sa, c.gamma0, 1e-14) << "Je=" << je;
        EXPECT_NEAR(sb, 1.0, 1e-14) << "Je=" << je;
    }
}

TEST(SplittingCoeffs, ThrowsOutsideSupportedOrders) {
    EXPECT_THROW((void)stiffly_stable(0), std::invalid_argument);
    EXPECT_THROW((void)stiffly_stable(4), std::invalid_argument);
    EXPECT_THROW((void)stiffly_stable(-1), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// History ring buffer.

TEST(FieldHistory, PushLevelAndEviction) {
    FieldHistory h;
    h.configure(/*components=*/2, /*size=*/2, /*depth=*/2);
    EXPECT_EQ(h.available(), 0);
    EXPECT_EQ(h.depth(), 2);

    h.push({{1.0, 1.0}, {10.0, 10.0}});
    EXPECT_EQ(h.available(), 1);
    EXPECT_EQ(h.level(1, 0)[0], 1.0);
    EXPECT_EQ(h.level(1, 1)[0], 10.0);

    h.push({{2.0, 2.0}, {20.0, 20.0}});
    EXPECT_EQ(h.available(), 2);
    EXPECT_EQ(h.level(1, 0)[0], 2.0); // age 1 = newest
    EXPECT_EQ(h.level(2, 0)[0], 1.0);

    h.push({{3.0, 3.0}, {30.0, 30.0}}); // evicts the oldest
    EXPECT_EQ(h.available(), 2);
    EXPECT_EQ(h.level(1, 0)[0], 3.0);
    EXPECT_EQ(h.level(2, 1)[0], 20.0);
}

TEST(FieldHistory, ClearForgetsLevelsButKeepsConfiguration) {
    FieldHistory h;
    h.configure(1, 3, 2);
    h.push({{1.0, 2.0, 3.0}});
    h.clear();
    EXPECT_EQ(h.available(), 0);
    h.push({{4.0, 5.0, 6.0}});
    EXPECT_EQ(h.available(), 1);
    EXPECT_EQ(h.level(1, 0)[2], 6.0);
}

TEST(FieldHistory, DepthZeroIsANoOp) {
    FieldHistory h;
    h.configure(1, 2, 0); // order-1 schemes keep no history
    h.push({{1.0, 2.0}});
    EXPECT_EQ(h.available(), 0);
}

// ---------------------------------------------------------------------------
// Shared fixtures for the solver-level tests.

std::shared_ptr<nektar::Discretization> decay_disc(std::size_t order) {
    // Unit square, Wall everywhere except an Outflow edge at x = 1 (gives the
    // pressure its Dirichlet anchor; the exact problems below have p = 0 and
    // du/dn = 0 there, so the Outflow natural velocity BC is exact too).
    auto m = mesh::rectangle_quads(2, 2, 0.0, 1.0, 0.0, 1.0);
    m.tag_boundary(mesh::BoundaryTag::Wall, [](double, double) { return true; });
    m.tag_boundary(mesh::BoundaryTag::Outflow, [](double x, double) { return x > 1.0 - 1e-9; });
    return std::make_shared<nektar::Discretization>(std::make_shared<mesh::Mesh>(std::move(m)),
                                                    order);
}

/// L2 error of the serial solver's u field against exact u(x, y, t) after
/// integrating the shear-decay problem u = sin(pi y) exp(-nu pi^2 t), v = 0
/// (nonlinear terms and pressure vanish identically: pure time integration
/// of the viscous term) to time T at order `je` with an exact-history start.
double serial_decay_error(int je, double dt, double T, double nu) {
    const auto exact = [nu](double, double y, double t) {
        return std::sin(kPi * y) * std::exp(-nu * kPi * kPi * t);
    };
    nektar::SerialNsOptions opts;
    opts.dt = dt;
    opts.viscosity = nu;
    opts.time_order = je;
    opts.u_bc = exact;
    opts.v_bc = [](double, double, double) { return 0.0; };
    nektar::SerialNS2d ns(decay_disc(8), opts);
    ns.set_initial_exact(exact, opts.v_bc);
    const int steps = static_cast<int>(std::lround(T / dt));
    for (int s = 0; s < steps; ++s) ns.step();
    std::vector<double> ex(ns.disc().quad_size());
    ns.disc().eval_at_quad([&](double x, double y) { return exact(x, y, ns.time()); }, ex);
    for (std::size_t i = 0; i < ex.size(); ++i) ex[i] -= ns.u_quad()[i];
    return ns.disc().l2_norm(ex);
}

double observed_order(double err_coarse, double err_fine) {
    return std::log2(err_coarse / err_fine);
}

// ---------------------------------------------------------------------------
// Startup ramp and the effective-gamma0 operator cache.

TEST(SolverCoreRamp, StartupOrdersRampToRequested) {
    nektar::SerialNsOptions opts;
    opts.dt = 1e-3;
    opts.viscosity = 0.1;
    opts.time_order = 3;
    nektar::SerialNS2d ns(decay_disc(4), opts);
    ns.set_initial([](double, double y) { return std::sin(kPi * y); },
                   [](double, double) { return 0.0; });
    EXPECT_EQ(ns.effective_order(), 1);
    EXPECT_EQ(ns.last_step_order(), 0);
    ns.step();
    EXPECT_EQ(ns.last_step_order(), 1);
    ns.step();
    EXPECT_EQ(ns.last_step_order(), 2);
    ns.step();
    EXPECT_EQ(ns.last_step_order(), 3);
    ns.step();
    EXPECT_EQ(ns.last_step_order(), 3);
}

TEST(SolverCoreRamp, ExactStartSkipsTheRamp) {
    const double nu = 0.1;
    const auto exact = [](double, double y, double t) {
        return std::sin(kPi * y) * std::exp(-0.1 * kPi * kPi * t);
    };
    nektar::SerialNsOptions opts;
    opts.dt = 1e-3;
    opts.viscosity = nu;
    opts.time_order = 3;
    opts.u_bc = exact;
    nektar::SerialNS2d ns(decay_disc(4), opts);
    ns.set_initial_exact(exact, [](double, double, double) { return 0.0; });
    EXPECT_EQ(ns.effective_order(), 3);
    ns.step();
    EXPECT_EQ(ns.last_step_order(), 3);
}

TEST(SolverCoreRamp, FirstStepLambdaMatchesEffectiveGamma0) {
    // Regression for the old first-step gamma0 mismatch: the velocity
    // Helmholtz operator of a ramped step must use the *effective* order's
    // gamma0, not the requested order's.
    nektar::SerialNsOptions opts;
    opts.dt = 2e-3;
    opts.viscosity = 0.05;
    opts.time_order = 2;
    nektar::SerialNS2d ns(decay_disc(4), opts);
    ns.set_initial([](double, double y) { return std::sin(kPi * y); },
                   [](double, double) { return 0.0; });
    EXPECT_TRUE(std::isnan(ns.last_velocity_lambda()));
    ns.step(); // effective order 1: gamma0 = 1
    EXPECT_DOUBLE_EQ(ns.last_velocity_lambda(), 1.0 / (opts.viscosity * opts.dt));
    ns.step(); // full order 2: gamma0 = 3/2
    EXPECT_DOUBLE_EQ(ns.last_velocity_lambda(), 1.5 / (opts.viscosity * opts.dt));
}

TEST(SolverCoreRamp, FirstOrder2StepEqualsFirstOrder1Step) {
    // With matching lambda, the first step of an order-2 run is *exactly* an
    // order-1 step (no history exists yet), bit for bit.
    const auto u0 = [](double x, double y) { return std::sin(kPi * y) + 0.1 * x; };
    const auto v0 = [](double x, double y) { return 0.05 * std::sin(kPi * x) * y; };
    auto run_one_step = [&](int je) {
        nektar::SerialNsOptions opts;
        opts.dt = 1e-3;
        opts.viscosity = 0.05;
        opts.time_order = je;
        nektar::SerialNS2d ns(decay_disc(5), opts);
        ns.set_initial(u0, v0);
        ns.step();
        return std::vector<double>(ns.u_quad());
    };
    const auto u_je1 = run_one_step(1);
    const auto u_je2 = run_one_step(2);
    ASSERT_EQ(u_je1.size(), u_je2.size());
    for (std::size_t i = 0; i < u_je1.size(); ++i) EXPECT_EQ(u_je1[i], u_je2[i]) << "i=" << i;
}

TEST(SolverCoreRamp, FourierFirstStepLambdaMatchesEffectiveGamma0) {
    auto m = mesh::rectangle_quads(2, 2, 0.0, 1.0, 0.0, 1.0);
    m.tag_boundary(mesh::BoundaryTag::Wall, [](double, double) { return true; });
    const auto disc =
        std::make_shared<nektar::Discretization>(std::make_shared<mesh::Mesh>(std::move(m)), 4);
    nektar::FourierNsOptions o;
    o.dt = 1e-3;
    o.viscosity = 0.05;
    o.num_modes = 2;
    o.time_order = 2;
    o.velocity_bc.dirichlet = {mesh::BoundaryTag::Wall};
    o.pressure_bc.dirichlet.clear();
    o.pressure_bc.pin_first_dof = true;
    nektar::FourierNS ns(disc, o);
    ns.set_initial([](double, double y, double z) { return std::sin(kPi * y) * std::sin(z); },
                   [](double, double, double) { return 0.0; },
                   [](double, double, double) { return 0.0; });
    ns.step(); // mean mode (beta = 0): lambda = gamma0_eff/(nu dt) = 1/(nu dt)
    EXPECT_DOUBLE_EQ(ns.last_velocity_lambda(), 1.0 / (o.viscosity * o.dt));
    ns.step();
    EXPECT_DOUBLE_EQ(ns.last_velocity_lambda(), 1.5 / (o.viscosity * o.dt));
}

TEST(SolverCoreRamp, AleLambdaFollowsTheRamp) {
    const auto m = mesh::flapping_body_mesh(1);
    nektar::AleOptions opts;
    opts.dt = 2e-3;
    opts.viscosity = 0.05;
    opts.time_order = 3;
    opts.body_velocity = [](double t) { return 0.1 * std::sin(5.0 * t); };
    opts.u_bc = [](double x, double y, double) {
        const bool body = std::abs(x) <= 0.5 + 1e-6 && std::abs(y) <= 0.5 + 1e-6;
        return body ? 0.0 : 1.0;
    };
    nektar::AleNS2d ns(m, 3, opts);
    ns.set_initial([](double, double) { return 1.0; }, [](double, double) { return 0.0; });
    ns.step();
    EXPECT_EQ(ns.last_step_order(), 1);
    EXPECT_DOUBLE_EQ(ns.last_velocity_lambda(), 1.0 / (opts.viscosity * opts.dt));
    ns.step();
    EXPECT_EQ(ns.last_step_order(), 2);
    EXPECT_DOUBLE_EQ(ns.last_velocity_lambda(), 1.5 / (opts.viscosity * opts.dt));
    ns.step();
    EXPECT_EQ(ns.last_step_order(), 3);
    EXPECT_DOUBLE_EQ(ns.last_velocity_lambda(), (11.0 / 6.0) / (opts.viscosity * opts.dt));
}

// ---------------------------------------------------------------------------
// Golden equivalence: the refactored solvers must reproduce the step results
// of the pre-refactor implementations (values captured from the code at the
// previous commit, 3 steps each, default order-2 integration).

void expect_golden(double value, double golden) {
    EXPECT_NEAR(value, golden, std::max(1e-8 * std::abs(golden), 1e-10));
}

TEST(SplittingGolden, SerialKovasznayMatchesPreRefactorSteps) {
    const double re = 40.0;
    const double lam = re / 2.0 - std::sqrt(re * re / 4.0 + 4.0 * kPi * kPi);
    auto ku = [=](double x, double y) { return 1.0 - std::exp(lam * x) * std::cos(2.0 * kPi * y); };
    auto kv = [=](double x, double y) {
        return lam / (2.0 * kPi) * std::exp(lam * x) * std::sin(2.0 * kPi * y);
    };
    auto m = mesh::rectangle_quads(3, 2, -0.5, 1.0, -0.5, 0.5);
    m.tag_boundary(mesh::BoundaryTag::Wall, [](double, double) { return true; });
    m.tag_boundary(mesh::BoundaryTag::Outflow, [](double x, double) { return x > 1.0 - 1e-9; });
    const auto disc =
        std::make_shared<nektar::Discretization>(std::make_shared<mesh::Mesh>(std::move(m)), 5);
    nektar::SerialNsOptions opts;
    opts.dt = 1e-3;
    opts.viscosity = 1.0 / re;
    opts.time_order = 2;
    opts.u_bc = [&](double x, double y, double) { return ku(x, y); };
    opts.v_bc = [&](double x, double y, double) { return kv(x, y); };
    nektar::SerialNS2d ns(disc, opts);
    ns.set_initial(ku, kv);
    for (int s = 0; s < 3; ++s) ns.step();

    const auto& u = ns.u_quad();
    const auto& v = ns.v_quad();
    ASSERT_EQ(u.size(), 294u);
    double su = 0.0, sv = 0.0;
    for (double x : u) su += x * x;
    for (double x : v) sv += x * x;
    expect_golden(su, 470.19696380018235);
    expect_golden(u[0], 2.6190997292659639);
    expect_golden(u[u.size() / 2], -0.61909972926596391);
    expect_golden(u.back(), 1.3814633335317423);
    expect_golden(sv, 1.9384998113276619);
    expect_golden(ns.divergence_norm(), 0.014146581792959873);
}

TEST(SplittingGolden, FourierShearMatchesPreRefactorSteps) {
    auto m = mesh::rectangle_quads(2, 2, 0.0, 1.0, 0.0, 1.0);
    m.tag_boundary(mesh::BoundaryTag::Side, [](double, double) { return true; });
    m.tag_boundary(mesh::BoundaryTag::Wall,
                   [](double, double y) { return y < 1e-9 || y > 1.0 - 1e-9; });
    const auto disc =
        std::make_shared<nektar::Discretization>(std::make_shared<mesh::Mesh>(std::move(m)), 4);
    nektar::FourierNsOptions o;
    o.dt = 1e-3;
    o.viscosity = 0.05;
    o.num_modes = 4;
    o.velocity_bc.dirichlet = {mesh::BoundaryTag::Wall};
    o.pressure_bc.dirichlet.clear();
    o.pressure_bc.pin_first_dof = true;
    nektar::FourierNS ns(disc, o);
    ns.set_initial(
        [](double, double y, double z) {
            return std::sin(kPi * y) * (std::sin(z) + 0.3 * std::cos(2.0 * z));
        },
        [](double, double, double) { return 0.0; },
        [](double, double y, double z) { return 0.1 * std::sin(kPi * y) * std::cos(z); });
    for (int s = 0; s < 3; ++s) ns.step();

    const auto sumsq = [](std::span<const double> q) {
        double s = 0.0;
        for (double v : q) s += v * v;
        return s;
    };
    const auto p0 = ns.plane_quad(0, 0);
    const auto p3 = ns.plane_quad(0, 3);
    const auto w2 = ns.plane_quad(2, 2);
    ASSERT_EQ(p0.size(), 144u);
    expect_golden(sumsq(p0), 8.8741283787259468e-08);
    expect_golden(p0[p0.size() / 2], -3.3238795733258307e-05);
    expect_golden(sumsq(p3), 17.940158750665507);
    expect_golden(p3[p3.size() / 2], -0.49908830971610985);
    expect_golden(sumsq(w2), 0.029249709654206309);
    expect_golden(w2[w2.size() / 2], 0.021334983810618945);
    expect_golden(ns.l2_error_3d(nullptr, 0, ns.time(),
                                 [](double, double, double, double) { return 0.0; }),
                  0.52114228297739418);
}

TEST(SplittingGolden, AleFlappingBodyMatchesPreRefactorSteps) {
    const auto m = mesh::flapping_body_mesh(1);
    nektar::AleOptions opts;
    opts.dt = 2e-3;
    opts.viscosity = 0.05;
    opts.body_velocity = [](double t) { return 0.3 * std::sin(5.0 * t); };
    opts.cg.tolerance = 1e-12;
    opts.u_bc = [](double x, double y, double) {
        const bool body = std::abs(x) <= 0.5 + 1e-6 && std::abs(y) <= 0.5 + 1e-6;
        return body ? 0.0 : 1.0;
    };
    opts.v_bc = [&opts](double x, double y, double t) {
        const bool body = std::abs(x) <= 0.5 + 1e-6 && std::abs(y) <= 0.5 + 1e-6;
        return body ? opts.body_velocity(t) : 0.0;
    };
    nektar::AleNS2d ns(m, 3, opts);
    ns.set_initial([](double, double) { return 1.0; }, [](double, double) { return 0.0; });
    for (int s = 0; s < 3; ++s) ns.step();

    const auto sumsq = [](const std::vector<double>& q) {
        double s = 0.0;
        for (double v : q) s += v * v;
        return s;
    };
    ASSERT_EQ(ns.u_quad().size(), 1700u);
    expect_golden(sumsq(ns.u_quad()), 1899.0950707710058);
    expect_golden(ns.u_quad().back(), 1.0088627797251195);
    expect_golden(sumsq(ns.v_quad()), 34.773488610678719);
    expect_golden(ns.v_quad().back(), -1.6898910654123833e-06);
    expect_golden(sumsq(ns.mesh_velocity_quad()), 0.008863877361229509);
}

// ---------------------------------------------------------------------------
// Temporal convergence: observed order of accuracy at Je = 1, 2, 3.

// Observed slopes approach Je from *above* on this problem (the O(dt^{Je+1})
// correction enters with the same sign and decays as dt shrinks), so the dt
// pairs below sit in the asymptotic range and the windows allow a slightly
// superconvergent tail while still excluding the neighbouring orders.

TEST(TemporalConvergence, SerialFirstOrderSlope) {
    const double e1 = serial_decay_error(1, 0.0025, 0.1, 1.0);
    const double e2 = serial_decay_error(1, 0.00125, 0.1, 1.0);
    const double p = observed_order(e1, e2);
    EXPECT_GT(p, 0.8) << "e1=" << e1 << " e2=" << e2;
    EXPECT_LT(p, 1.6);
}

TEST(TemporalConvergence, SerialSecondOrderSlope) {
    const double e1 = serial_decay_error(2, 0.0025, 0.1, 1.0);
    const double e2 = serial_decay_error(2, 0.00125, 0.1, 1.0);
    const double p = observed_order(e1, e2);
    EXPECT_GT(p, 1.8) << "e1=" << e1 << " e2=" << e2;
    EXPECT_LT(p, 2.6);
}

TEST(TemporalConvergence, SerialThirdOrderSlope) {
    const double e1 = serial_decay_error(3, 0.005, 0.1, 1.0);
    const double e2 = serial_decay_error(3, 0.0025, 0.1, 1.0);
    const double p = observed_order(e1, e2);
    EXPECT_GT(p, 2.8) << "e1=" << e1 << " e2=" << e2;
    EXPECT_LT(p, 3.7);
}

/// NekTar-F on the advected shear u = sin(pi y) sin(z - w0 t) e^{-nu(pi^2+1)t},
/// v = 0, w = w0: an exact Navier-Stokes solution with p = 0 whose nonzero
/// nonlinear term N_u = -w0 du/dz exercises the beta extrapolation weights.
double fourier_shear_error(int je, double dt, double T, double nu, double w0) {
    const auto exact_u = [=](double, double y, double z, double t) {
        return std::sin(kPi * y) * std::sin(z - w0 * t) * std::exp(-nu * (kPi * kPi + 1.0) * t);
    };
    auto m = mesh::rectangle_quads(2, 2, 0.0, 1.0, 0.0, 1.0);
    m.tag_boundary(mesh::BoundaryTag::Side, [](double, double) { return true; });
    m.tag_boundary(mesh::BoundaryTag::Wall,
                   [](double, double y) { return y < 1e-9 || y > 1.0 - 1e-9; });
    const auto disc =
        std::make_shared<nektar::Discretization>(std::make_shared<mesh::Mesh>(std::move(m)), 8);
    nektar::FourierNsOptions o;
    o.dt = dt;
    o.viscosity = nu;
    o.num_modes = 4;
    o.time_order = je;
    o.velocity_bc.dirichlet = {mesh::BoundaryTag::Wall};
    o.pressure_bc.dirichlet.clear();
    o.pressure_bc.pin_first_dof = true;
    o.w_bc = [=](double, double, double) { return w0; };
    nektar::FourierNS ns(disc, o);
    ns.set_initial_exact(exact_u, [](double, double, double, double) { return 0.0; },
                         [=](double, double, double, double) { return w0; });
    const int steps = static_cast<int>(std::lround(T / dt));
    for (int s = 0; s < steps; ++s) ns.step();
    return ns.l2_error_3d(nullptr, 0, ns.time(), exact_u);
}

TEST(TemporalConvergence, FourierSecondOrderSlope) {
    const double e1 = fourier_shear_error(2, 0.02, 0.2, 0.1, 1.0);
    const double e2 = fourier_shear_error(2, 0.01, 0.2, 0.1, 1.0);
    const double p = observed_order(e1, e2);
    EXPECT_GT(p, 1.6) << "e1=" << e1 << " e2=" << e2;
    EXPECT_LT(p, 2.4);
}

TEST(TemporalConvergence, FourierThirdOrderSlope) {
    const double e1 = fourier_shear_error(3, 0.02, 0.2, 0.1, 1.0);
    const double e2 = fourier_shear_error(3, 0.01, 0.2, 0.1, 1.0);
    const double p = observed_order(e1, e2);
    EXPECT_GT(p, 2.5) << "e1=" << e1 << " e2=" << e2;
    EXPECT_LT(p, 3.5);
}

/// NekTar-ALE on the same shear-decay problem as the serial solver, with the
/// body at rest (the mesh never moves, so the ALE machinery reduces to the
/// PCG-based fixed-mesh solver and the exact solution applies).
double ale_decay_error(int je, double dt, double T, double nu) {
    const auto exact = [nu](double, double y, double t) {
        return std::sin(kPi * y) * std::exp(-nu * kPi * kPi * t);
    };
    auto m = mesh::rectangle_quads(2, 2, 0.0, 1.0, 0.0, 1.0);
    m.tag_boundary(mesh::BoundaryTag::Wall, [](double, double) { return true; });
    m.tag_boundary(mesh::BoundaryTag::Outflow, [](double x, double) { return x > 1.0 - 1e-9; });
    nektar::AleOptions opts;
    opts.dt = dt;
    opts.viscosity = nu;
    opts.time_order = je;
    opts.cg.tolerance = 1e-13;
    opts.u_bc = exact;
    nektar::AleNS2d ns(m, 8, opts);
    ns.set_initial_exact(exact, [](double, double, double) { return 0.0; });
    const int steps = static_cast<int>(std::lround(T / dt));
    for (int s = 0; s < steps; ++s) ns.step();
    std::vector<double> ex(ns.disc().quad_size());
    ns.disc().eval_at_quad([&](double x, double y) { return exact(x, y, ns.time()); }, ex);
    for (std::size_t i = 0; i < ex.size(); ++i) ex[i] -= ns.u_quad()[i];
    return ns.disc().l2_norm(ex);
}

TEST(TemporalConvergence, AleSecondOrderSlopeAndThirdOrderBeatsIt) {
    const double e2c = ale_decay_error(2, 0.005, 0.05, 1.0);
    const double e2f = ale_decay_error(2, 0.0025, 0.05, 1.0);
    const double p = observed_order(e2c, e2f);
    EXPECT_GT(p, 1.8) << "e2c=" << e2c << " e2f=" << e2f;
    EXPECT_LT(p, 2.6);
    // Order 3 at the same dt must be strictly more accurate.
    const double e3 = ale_decay_error(3, 0.005, 0.05, 1.0);
    EXPECT_LT(e3, 0.5 * e2c) << "e3=" << e3 << " e2c=" << e2c;
}

} // namespace
