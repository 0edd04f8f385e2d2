#include "nektar/ns_fourier.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <string_view>
#include <vector>

#include "blaslite/multiversion.hpp"
#include "ckpt/checkpoint.hpp"
#include "mesh/generators.hpp"
#include "nektar/workloads.hpp"
#include "transpose_oracle.hpp"

namespace {

using nektar::Discretization;
using nektar::FourierNS;
using nektar::FourierNsOptions;
using nektar::Transpose;

netsim::NetworkModel test_net() {
    netsim::NetworkModel n;
    n.name = "test";
    n.latency_us = 10.0;
    n.bandwidth_mbps = 100.0;
    return n;
}

TEST(FourierTranspose, SerialRoundTrip) {
    const std::size_t nq = 17, npl = 6;
    const Transpose tr(nullptr, nq, npl);
    const auto planes = transpose_oracle::planes(tr, nq, 0);
    std::vector<double> lines(tr.lines_buffer_size());
    tr.to_lines(nullptr, planes, lines);
    EXPECT_EQ(lines, transpose_oracle::lines(tr, nq, 0));
    std::vector<double> back(planes.size(), -1.0);
    tr.to_planes(nullptr, lines, back);
    EXPECT_EQ(back, planes);
}

class TransposeRanks : public ::testing::TestWithParam<int> {};

TEST_P(TransposeRanks, ParallelRoundTripAndLayout) {
    const int p = GetParam();
    const std::size_t nq = 23, npl = 4; // nq not divisible by p: exercises padding
    simmpi::World world(p, test_net());
    world.run([&](simmpi::Comm& c) {
        for (const auto kind : {nektar::TransposeKind::Slab, nektar::TransposeKind::Pencil}) {
            const Transpose tr(&c, nq, npl, kind);
            const auto planes = transpose_oracle::planes(tr, nq, c.rank());
            std::vector<double> lines(tr.lines_buffer_size());
            tr.to_lines(&c, planes, lines);
            EXPECT_EQ(lines, transpose_oracle::lines(tr, nq, c.rank()));
            std::vector<double> back(planes.size(), -1.0);
            tr.to_planes(&c, lines, back);
            EXPECT_EQ(back, planes);
        }
    });
}

INSTANTIATE_TEST_SUITE_P(Ranks, TransposeRanks, ::testing::Values(1, 2, 4));

std::shared_ptr<Discretization> shear_disc(std::size_t order) {
    // [0,1]^2, Dirichlet walls at y = 0,1, natural (Side) at x = 0,1.
    auto m = mesh::rectangle_quads(2, 2, 0.0, 1.0, 0.0, 1.0);
    m.tag_boundary(mesh::BoundaryTag::Side, [](double, double) { return true; });
    m.tag_boundary(mesh::BoundaryTag::Wall,
                   [](double, double y) { return y < 1e-9 || y > 1.0 - 1e-9; });
    return std::make_shared<Discretization>(std::make_shared<mesh::Mesh>(std::move(m)), order);
}

FourierNsOptions shear_opts(double nu, double dt) {
    FourierNsOptions o;
    o.dt = dt;
    o.viscosity = nu;
    o.num_modes = 4;
    o.velocity_bc.dirichlet = {mesh::BoundaryTag::Wall};
    o.pressure_bc.dirichlet.clear();
    o.pressure_bc.pin_first_dof = true;
    return o;
}

/// u = sin(pi y) sin(z), v = w = 0 is divergence free, has zero nonlinear
/// term, and decays at exactly nu (pi^2 + 1): it validates the per-mode
/// Helmholtz shift beta_k^2 = 1 for k = 1 (Lz = 2 pi).
TEST(FourierNS, ShearModeDecayRate) {
    const double nu = 0.05, dt = 1e-3;
    const auto disc = shear_disc(6);
    FourierNS ns(disc, shear_opts(nu, dt));
    ns.set_initial(
        [](double, double y, double z) { return std::sin(std::numbers::pi * y) * std::sin(z); },
        [](double, double, double) { return 0.0; }, [](double, double, double) { return 0.0; });
    const int nsteps = 50;
    for (int s = 0; s < nsteps; ++s) ns.step();
    const double t = ns.time();
    const double decay = std::exp(-nu * (std::numbers::pi * std::numbers::pi + 1.0) * t);
    const double err = ns.l2_error_3d(nullptr, 0, t, [&](double, double y, double z, double) {
        return std::sin(std::numbers::pi * y) * std::sin(z) * decay;
    });
    EXPECT_LT(err, 2e-4);
    // And the shift matters: the wrong rate must be clearly distinguishable.
    const double wrong = std::exp(-nu * std::numbers::pi * std::numbers::pi * t);
    const double err_wrong =
        ns.l2_error_3d(nullptr, 0, t, [&](double, double y, double z, double) {
            return std::sin(std::numbers::pi * y) * std::sin(z) * wrong;
        });
    EXPECT_GT(err_wrong, 5.0 * err);
}

TEST(FourierNS, MeanModeMatchesExactDiffusion) {
    // w = sin(pi x) sin(pi y), u = v = 0: z-independent pure diffusion of the
    // spanwise velocity, exercising only the k = 0 path.
    const double nu = 0.05, dt = 1e-3;
    auto m = mesh::rectangle_quads(2, 2, 0.0, 1.0, 0.0, 1.0);
    m.tag_boundary(mesh::BoundaryTag::Wall, [](double, double) { return true; });
    const auto disc =
        std::make_shared<Discretization>(std::make_shared<mesh::Mesh>(std::move(m)), 6);
    FourierNsOptions o = shear_opts(nu, dt);
    o.velocity_bc.dirichlet = {mesh::BoundaryTag::Wall};
    FourierNS ns(disc, o);
    ns.set_initial([](double, double, double) { return 0.0; },
                   [](double, double, double) { return 0.0; },
                   [](double x, double y, double) {
                       return std::sin(std::numbers::pi * x) * std::sin(std::numbers::pi * y);
                   });
    for (int s = 0; s < 50; ++s) ns.step();
    const double t = ns.time();
    const double decay = std::exp(-2.0 * nu * std::numbers::pi * std::numbers::pi * t);
    const double err = ns.l2_error_3d(nullptr, 2, t, [&](double x, double y, double, double) {
        return std::sin(std::numbers::pi * x) * std::sin(std::numbers::pi * y) * decay;
    });
    EXPECT_LT(err, 2e-4);
}

/// Kovasznay flow is a steady *nonlinear* Navier-Stokes solution that is
/// z-independent: it validates the divergence-form nonlinear step (products
/// + transposes + derivatives) end to end, since holding the steady state
/// requires the convective terms to be exactly right.
TEST(FourierNS, KovasznayHoldsThroughTheNonlinearPath) {
    const double re = 40.0;
    const double lam =
        re / 2.0 - std::sqrt(re * re / 4.0 + 4.0 * std::numbers::pi * std::numbers::pi);
    const auto ku = [=](double x, double y) {
        return 1.0 - std::exp(lam * x) * std::cos(2.0 * std::numbers::pi * y);
    };
    const auto kv = [=](double x, double y) {
        return lam / (2.0 * std::numbers::pi) * std::exp(lam * x) *
               std::sin(2.0 * std::numbers::pi * y);
    };
    auto m = mesh::rectangle_quads(3, 2, -0.5, 1.0, -0.5, 0.5);
    m.tag_boundary(mesh::BoundaryTag::Wall, [](double, double) { return true; });
    m.tag_boundary(mesh::BoundaryTag::Outflow, [](double x, double) { return x > 1.0 - 1e-9; });
    const auto disc =
        std::make_shared<Discretization>(std::make_shared<mesh::Mesh>(std::move(m)), 7);
    FourierNsOptions o;
    o.dt = 2e-3;
    o.viscosity = 1.0 / re;
    o.num_modes = 2;
    o.velocity_bc.dirichlet = {mesh::BoundaryTag::Wall};
    o.pressure_bc.dirichlet = {mesh::BoundaryTag::Outflow};
    o.u_bc = [&](double x, double y, double) { return ku(x, y); };
    o.v_bc = [&](double x, double y, double) { return kv(x, y); };
    FourierNS ns(disc, o);
    ns.set_initial([&](double x, double y, double) { return ku(x, y); },
                   [&](double x, double y, double) { return kv(x, y); },
                   [](double, double, double) { return 0.0; });
    for (int s = 0; s < 60; ++s) ns.step();
    const double err = ns.l2_error_3d(nullptr, 0, ns.time(),
                                      [&](double x, double y, double, double) {
                                          return ku(x, y);
                                      });
    EXPECT_LT(err, 0.03);
    // Higher modes must stay negligible for a z-independent flow.
    for (std::size_t mm = 1; mm < ns.local_modes(); ++mm) {
        for (int plane = 0; plane < 2; ++plane) {
            const auto q = ns.plane_quad(0, 2 * mm + static_cast<std::size_t>(plane));
            for (double v : q) EXPECT_LT(std::abs(v), 1e-6);
        }
    }
}

TEST(FourierNS, ParallelMatchesSerial) {
    const double nu = 0.05, dt = 2e-3;
    const int nsteps = 10;
    const auto run_error = [&](simmpi::Comm* comm) {
        const auto disc = shear_disc(5);
        FourierNS ns(disc, shear_opts(nu, dt), comm);
        ns.set_initial(
            [](double, double y, double z) {
                return std::sin(std::numbers::pi * y) * (std::sin(z) + 0.3 * std::cos(2.0 * z));
            },
            [](double, double, double) { return 0.0; },
            [](double, double, double) { return 0.0; });
        for (int s = 0; s < nsteps; ++s) ns.step();
        return ns.l2_error_3d(comm, 0, ns.time(),
                              [](double, double, double, double) { return 0.0; });
    };
    const double serial_norm = run_error(nullptr);
    for (int p : {2, 4}) {
        simmpi::World world(p, test_net());
        std::vector<double> norms(static_cast<std::size_t>(p));
        world.run([&](simmpi::Comm& c) {
            norms[static_cast<std::size_t>(c.rank())] = run_error(&c);
        });
        for (double n : norms) EXPECT_NEAR(n, serial_norm, 1e-10) << "p=" << p;
    }
}

TEST(FourierNS, ModeEnergyParseval) {
    // sum over modes (with the conjugate-pair factor 2 for k > 0) of the
    // plane-integrated |u_k|^2 equals the z-averaged volume integral of u^2.
    const auto disc = shear_disc(5);
    FourierNS ns(disc, shear_opts(0.05, 1e-3));
    ns.set_initial(
        [](double x, double y, double z) {
            return std::sin(std::numbers::pi * y) * (1.0 + 0.5 * std::sin(z)) + 0.1 * x;
        },
        [](double, double, double) { return 0.0; }, [](double, double, double) { return 0.0; });
    double spectral_sum = 0.0;
    for (std::size_t m = 0; m < ns.total_modes(); ++m)
        spectral_sum += (m == 0 ? 1.0 : 2.0) * ns.mode_energy(0, m);
    // z-averaged physical energy via the solver's own reconstruction.
    const double err0 = ns.l2_error_3d(nullptr, 0, 0.0,
                                       [](double, double, double, double) { return 0.0; });
    EXPECT_NEAR(spectral_sum, err0 * err0, 1e-8 * std::max(1.0, err0 * err0));
}

TEST(FourierNS, StageBreakdownAndCommLog) {
    simmpi::World world(2, test_net());
    const auto reports = world.run([&](simmpi::Comm& c) {
        const auto disc = shear_disc(4);
        FourierNS ns(disc, shear_opts(0.05, 1e-3), &c);
        ns.set_initial(
            [](double, double y, double z) { return std::sin(std::numbers::pi * y) * std::sin(z); },
            [](double, double, double) { return 0.0; },
            [](double, double, double) { return 0.0; });
        ns.breakdown() = {};
        ns.step();
        ns.step();
        const auto& bd = ns.breakdown();
        for (std::size_t stage = 1; stage <= perf::kNumStages; ++stage)
            EXPECT_GT(bd.counts[stage].flops, 0u) << "stage " << stage;
    });
    // The nonlinear step's Alltoall transposes must appear in stage 2 of the
    // comm log: 3 fields out + 6 products back per nonlinear evaluation.
    const auto& log = reports[0].log;
    ASSERT_TRUE(log.count(2));
    std::uint64_t alltoalls = 0;
    for (const auto& [key, count] : log.at(2))
        if (key.kind == simmpi::CommKind::Alltoall) alltoalls += count;
    // Two steps, each transposing 3 components out and 6 products back: 2 * 9
    // (set_initial no longer evaluates the nonlinear term; the first step
    // runs at order 1 and never reads a seeded history level).
    EXPECT_EQ(alltoalls, 18u);
}

/// FNV-1a of a solver's checkpoint bytes: the modal and quadrature fields,
/// the pressure, both history rings, every stage's blaslite counts and, on a
/// comm, the rank's virtual clocks and comm logs.
std::uint64_t checkpoint_fingerprint(const nektar::SolverCore& ns) {
    const std::vector<std::uint8_t> bytes = ns.checkpoint().serialize();
    return ckpt::Fingerprint{}
        .add(std::string_view(reinterpret_cast<const char*>(bytes.data()), bytes.size()))
        .value();
}

TEST(FourierNS, FieldsArePinned) {
    // perfbench's fourier_wake_p8 set-up (Table 2's mesh and order, 16
    // planes) for four steps, two of them ramp, serially and on 2 and 4
    // ranks with the overlapped transpose on and off.  Any change to the
    // nonlinear stage, the per-mode solves or the charges that moves a bit,
    // an operation count or a virtual clock shows.  As for
    // AleNS.SolvesArePinned, the bits are the host's: the blaslite clones
    // fuse multiply-adds on an x86-64-v3/v4 host, and the FMA bits were
    // recorded with GCC.
    const bool fma = blaslite::isa_level() != blaslite::IsaLevel::base;
#if defined(__clang__)
    if (fma) GTEST_SKIP() << "FMA-host bits are recorded for GCC's contraction";
#endif
    // serial, then (P, overlap) = (2, on), (2, off), (4, on), (4, off).
    const std::array<std::uint64_t, 5> pins =
        fma ? std::array<std::uint64_t, 5>{0xf53bd509e7a41bc1ull, 0xa91b11990fdacc42ull,
                                           0x23c36a93f54e4d43ull, 0x5d2bf8df491b1757ull,
                                           0x38dd2af1a538cc17ull}
            : std::array<std::uint64_t, 5>{0x03421c84239265dfull, 0xb3394a1b1de689a5ull,
                                           0xcbc6fd0c2fd87f90ull, 0x7f08082504037b04ull,
                                           0x65bcb5f74530b025ull};
    const auto base_mesh = std::make_shared<mesh::Mesh>(nektar::workloads::table2_mesh());
    const auto run = [&](simmpi::Comm* c, bool overlap) {
        const auto disc =
            std::make_shared<Discretization>(base_mesh, nektar::workloads::kTable2Order);
        FourierNsOptions o;
        o.dt = 2e-3;
        o.viscosity = 0.01;
        o.num_modes = 8;
        o.overlap_transpose = overlap;
        o.u_bc = nektar::workloads::inflow_u;
        FourierNS ns(disc, o, c);
        nektar::workloads::start_perturbed(ns);
        for (int s = 0; s < 4; ++s) ns.step();
        return checkpoint_fingerprint(ns);
    };
    std::array<std::uint64_t, 5> got{};
    got[0] = run(nullptr, false);
    std::size_t at = 1;
    for (int p : {2, 4})
        for (bool overlap : {true, false}) {
            std::vector<std::uint64_t> ranks(static_cast<std::size_t>(p));
            simmpi::World world(p, nektar::workloads::probe_net());
            world.run([&](simmpi::Comm& c) {
                ranks[static_cast<std::size_t>(c.rank())] = run(&c, overlap);
            });
            ckpt::Fingerprint all;
            for (std::uint64_t r : ranks) all.add(r);
            got[at++] = all.value();
        }
    for (std::size_t i = 0; i < pins.size(); ++i)
        EXPECT_EQ(got[i], pins[i]) << "run " << i << std::hex << ": 0x" << got[i];
}

TEST(FourierNS, RejectsIndivisibleModeCount) {
    simmpi::World world(3, test_net());
    EXPECT_THROW(world.run([&](simmpi::Comm& c) {
        const auto disc = shear_disc(3);
        FourierNsOptions o = shear_opts(0.05, 1e-3);
        o.num_modes = 4; // not divisible by 3 ranks
        FourierNS ns(disc, o, &c);
    }),
                 std::invalid_argument);
}

} // namespace
