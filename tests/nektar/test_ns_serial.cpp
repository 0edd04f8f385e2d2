#include "nektar/ns_serial.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numbers>
#include <string_view>
#include <vector>

#include "blaslite/multiversion.hpp"
#include "ckpt/checkpoint.hpp"
#include "mesh/generators.hpp"
#include "nektar/workloads.hpp"

namespace {

using nektar::Discretization;
using nektar::SerialNsOptions;
using nektar::SerialNS2d;
namespace workloads = nektar::workloads;

/// Kovasznay flow: an exact steady Navier-Stokes solution.
struct Kovasznay {
    double re;
    [[nodiscard]] double lam() const {
        return re / 2.0 - std::sqrt(re * re / 4.0 + 4.0 * std::numbers::pi * std::numbers::pi);
    }
    [[nodiscard]] double u(double x, double y) const {
        return 1.0 - std::exp(lam() * x) * std::cos(2.0 * std::numbers::pi * y);
    }
    [[nodiscard]] double v(double x, double y) const {
        return lam() / (2.0 * std::numbers::pi) * std::exp(lam() * x) *
               std::sin(2.0 * std::numbers::pi * y);
    }
};

std::shared_ptr<Discretization> kovasznay_disc(std::size_t order) {
    // Domain [-0.5, 1] x [-0.5, 0.5]; Dirichlet everywhere except outflow.
    auto m = mesh::rectangle_quads(3, 2, -0.5, 1.0, -0.5, 0.5);
    m.tag_boundary(mesh::BoundaryTag::Wall, [](double, double) { return true; });
    m.tag_boundary(mesh::BoundaryTag::Outflow, [](double x, double) { return x > 1.0 - 1e-9; });
    return std::make_shared<Discretization>(std::make_shared<mesh::Mesh>(std::move(m)), order);
}

TEST(SerialNS, KovasznaySteadyStateAccuracy) {
    const Kovasznay k{40.0};
    SerialNsOptions opts;
    opts.dt = 2e-3;
    opts.viscosity = 1.0 / k.re;
    opts.time_order = 2;
    opts.u_bc = [&](double x, double y, double) { return k.u(x, y); };
    opts.v_bc = [&](double x, double y, double) { return k.v(x, y); };
    const auto disc = kovasznay_disc(7);
    SerialNS2d ns(disc, opts);
    ns.set_initial([&](double x, double y) { return k.u(x, y); },
                   [&](double x, double y) { return k.v(x, y); });
    for (int s = 0; s < 100; ++s) ns.step();
    const double err_u =
        disc->l2_error(ns.u_quad(), [&](double x, double y) { return k.u(x, y); });
    const double err_v =
        disc->l2_error(ns.v_quad(), [&](double x, double y) { return k.v(x, y); });
    // Started at the exact solution: the scheme must hold it to splitting
    // accuracy (O(dt) pressure boundary layer), not blow up or drift.
    EXPECT_LT(err_u, 0.02);
    EXPECT_LT(err_v, 0.02);
}

TEST(SerialNS, DivergenceStaysSmall) {
    const Kovasznay k{40.0};
    SerialNsOptions opts;
    opts.dt = 2e-3;
    opts.viscosity = 1.0 / k.re;
    const auto disc = kovasznay_disc(6);
    opts.u_bc = [&](double x, double y, double) { return k.u(x, y); };
    opts.v_bc = [&](double x, double y, double) { return k.v(x, y); };
    SerialNS2d ns(disc, opts);
    ns.set_initial([&](double x, double y) { return k.u(x, y); },
                   [&](double x, double y) { return k.v(x, y); });
    for (int s = 0; s < 30; ++s) ns.step();
    EXPECT_LT(ns.divergence_norm(), 0.5);
    EXPECT_TRUE(std::isfinite(ns.divergence_norm()));
}

TEST(SerialNS, TaylorGreenDecayRate) {
    // u = -cos(pi x) sin(pi y) e^{-2 pi^2 nu t}: kinetic energy decays at a
    // known exponential rate.  Dirichlet data from the exact solution.
    const double nu = 0.05;
    const double k2 = 2.0 * std::numbers::pi * std::numbers::pi * nu;
    const auto uex = [=](double x, double y, double t) {
        return -std::cos(std::numbers::pi * x) * std::sin(std::numbers::pi * y) *
               std::exp(-k2 * t);
    };
    const auto vex = [=](double x, double y, double t) {
        return std::sin(std::numbers::pi * x) * std::cos(std::numbers::pi * y) *
               std::exp(-k2 * t);
    };
    auto m = mesh::rectangle_quads(2, 2, 0.0, 2.0, 0.0, 2.0);
    m.tag_boundary(mesh::BoundaryTag::Wall, [](double, double) { return true; });
    const auto disc =
        std::make_shared<Discretization>(std::make_shared<mesh::Mesh>(std::move(m)), 8);
    SerialNsOptions opts;
    opts.dt = 1e-3;
    opts.viscosity = nu;
    opts.u_bc = [&](double x, double y, double t) { return uex(x, y, t); };
    opts.v_bc = [&](double x, double y, double t) { return vex(x, y, t); };
    opts.pressure_bc.pin_first_dof = true;
    opts.pressure_bc.dirichlet.clear();
    SerialNS2d ns(disc, opts);
    ns.set_initial([&](double x, double y) { return uex(x, y, 0.0); },
                   [&](double x, double y) { return vex(x, y, 0.0); });
    const int nsteps = 100;
    for (int s = 0; s < nsteps; ++s) ns.step();
    const double t = ns.time();
    const double err =
        disc->l2_error(ns.u_quad(), [&](double x, double y) { return uex(x, y, t); });
    EXPECT_LT(err, 5e-3);
}

TEST(SerialNS, SecondOrderBeatsFirstOrderInTime) {
    const double nu = 0.05;
    const double k2 = 2.0 * std::numbers::pi * std::numbers::pi * nu;
    const auto uex = [=](double x, double y, double t) {
        return -std::cos(std::numbers::pi * x) * std::sin(std::numbers::pi * y) *
               std::exp(-k2 * t);
    };
    const auto vex = [=](double x, double y, double t) {
        return std::sin(std::numbers::pi * x) * std::cos(std::numbers::pi * y) *
               std::exp(-k2 * t);
    };
    auto run = [&](int order, double dt) {
        auto m = mesh::rectangle_quads(2, 2, 0.0, 2.0, 0.0, 2.0);
        m.tag_boundary(mesh::BoundaryTag::Wall, [](double, double) { return true; });
        const auto disc =
            std::make_shared<Discretization>(std::make_shared<mesh::Mesh>(std::move(m)), 8);
        SerialNsOptions opts;
        opts.dt = dt;
        opts.viscosity = nu;
        opts.time_order = order;
        opts.u_bc = [&](double x, double y, double t) { return uex(x, y, t); };
        opts.v_bc = [&](double x, double y, double t) { return vex(x, y, t); };
        opts.pressure_bc.pin_first_dof = true;
        opts.pressure_bc.dirichlet.clear();
        SerialNS2d ns(disc, opts);
        ns.set_initial([&](double x, double y) { return uex(x, y, 0.0); },
                       [&](double x, double y) { return vex(x, y, 0.0); });
        const int nsteps = static_cast<int>(std::lround(0.1 / dt));
        for (int s = 0; s < nsteps; ++s) ns.step();
        const double t = ns.time();
        return disc->l2_error(ns.u_quad(), [&](double x, double y) { return uex(x, y, t); });
    };
    const double e1 = run(1, 2e-3);
    const double e2 = run(2, 2e-3);
    EXPECT_LT(e2, e1);
}

TEST(SerialNS, StageBreakdownRecordsAllSevenStages) {
    const Kovasznay k{40.0};
    SerialNsOptions opts;
    opts.dt = 1e-3;
    opts.viscosity = 1.0 / k.re;
    const auto disc = kovasznay_disc(5);
    opts.u_bc = [&](double x, double y, double) { return k.u(x, y); };
    opts.v_bc = [&](double x, double y, double) { return k.v(x, y); };
    SerialNS2d ns(disc, opts);
    ns.set_initial([&](double x, double y) { return k.u(x, y); },
                   [&](double x, double y) { return k.v(x, y); });
    ns.breakdown() = {};
    for (int s = 0; s < 3; ++s) ns.step();
    const auto& bd = ns.breakdown();
    EXPECT_EQ(bd.steps, 3);
    for (std::size_t stage = 1; stage <= perf::kNumStages; ++stage) {
        EXPECT_GT(bd.counts[stage].flops, 0u) << "stage " << stage << " recorded no flops";
        EXPECT_GT(bd.host_seconds[stage], 0.0);
    }
    // Figure 12 shape: the two banded solves (stages 5 and 7) dominate.
    const auto total = bd.total_counts();
    EXPECT_GT(bd.counts[5].flops + bd.counts[7].flops, total.flops / 4);
}

TEST(SerialNS, WorkingSetIsTheCondensedBand) {
    // Table 1's mesh at order 6: a 2416-dof Schur system, 244 band diagonals.
    const auto disc = std::make_shared<Discretization>(
        std::make_shared<mesh::Mesh>(workloads::table1_mesh()), workloads::kTable1Order);
    const SerialNS2d ns(disc, SerialNsOptions{});
    EXPECT_EQ(ns.working_set_bytes(), 2416u * 244u * sizeof(double));
}

TEST(SerialNS, BluffBodyShortRunStaysFinite) {
    // A few steps of the actual paper workload (reduced resolution).
    const auto disc = std::make_shared<Discretization>(
        std::make_shared<mesh::Mesh>(workloads::table2_mesh()), workloads::kTable2Order);
    SerialNsOptions opts;
    opts.dt = 5e-3;
    opts.viscosity = 0.01;
    opts.u_bc = workloads::inflow_u; // no-slip body, inflow of 1
    SerialNS2d ns(disc, opts);
    workloads::start_free_stream(ns);
    for (int s = 0; s < 5; ++s) ns.step();
    for (double v : ns.u_quad()) ASSERT_TRUE(std::isfinite(v));
    const double maxu = *std::max_element(ns.u_quad().begin(), ns.u_quad().end());
    EXPECT_LT(maxu, 10.0); // no blow-up
}

TEST(SerialNS, FieldsArePinned) {
    // perfbench's serial_bluff set-up (Table 1's mesh at order 6) for four
    // steps, two of them ramp.  The checkpoint bytes hold the modal and
    // quadrature fields, the pressure, both history rings and every stage's
    // blaslite counts, so any change to the condensed solves, the pressure
    // RHS or the charges that moves a bit or an operation count shows.  The
    // bits are the host's, as for AleNS.SolvesArePinned.
    const bool fma = blaslite::isa_level() != blaslite::IsaLevel::base;
#if defined(__clang__)
    if (fma) GTEST_SKIP() << "FMA-host bits are recorded for GCC's contraction";
#endif
    const std::uint64_t pin = fma ? 0xf9f7d33ba8306bffull : 0xec518a189c64b4cdull;
    const auto disc = std::make_shared<Discretization>(
        std::make_shared<mesh::Mesh>(workloads::table1_mesh()), workloads::kTable1Order);
    SerialNsOptions opts;
    opts.dt = 2e-3;
    opts.viscosity = 0.01;
    opts.u_bc = workloads::inflow_u;
    SerialNS2d ns(disc, opts);
    workloads::start_free_stream(ns);
    for (int s = 0; s < 4; ++s) ns.step();
    const std::vector<std::uint8_t> bytes = ns.checkpoint().serialize();
    const std::uint64_t got =
        ckpt::Fingerprint{}
            .add(std::string_view(reinterpret_cast<const char*>(bytes.data()), bytes.size()))
            .value();
    EXPECT_EQ(got, pin) << std::hex << "0x" << got;
}

} // namespace
