#include "nektar/ns_ale.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <string>
#include <utility>
#include <vector>

#include "blaslite/multiversion.hpp"
#include "ckpt/checkpoint.hpp"
#include "mesh/generators.hpp"
#include "nektar/workloads.hpp"
#include "partition/partition.hpp"

namespace {

using nektar::AleNS2d;
using nektar::AleOptions;

netsim::NetworkModel test_net() {
    netsim::NetworkModel n;
    n.name = "test";
    n.latency_us = 10.0;
    n.bandwidth_mbps = 100.0;
    return n;
}

mesh::Mesh flap_mesh() { return mesh::flapping_body_mesh(1); }

/// Uniform free stream prescribed on *every* boundary (including the moving
/// body, physics suspended): the ALE formulation must preserve u = 1 exactly
/// as the mesh deforms — the classic geometric-conservation check.
TEST(AleNS, FreeStreamPreservationUnderMeshMotion) {
    AleOptions opts;
    opts.dt = 2e-3;
    opts.viscosity = 0.05;
    opts.body_velocity = [](double t) { return 0.4 * std::cos(8.0 * t); };
    opts.velocity_bc.dirichlet = {mesh::BoundaryTag::Inflow, mesh::BoundaryTag::Side,
                                  mesh::BoundaryTag::Body, mesh::BoundaryTag::Wall};
    opts.u_bc = [](double, double, double) { return 1.0; };
    opts.v_bc = [](double, double, double) { return 0.0; };
    AleNS2d ns(flap_mesh(), 4, opts);
    ns.set_initial([](double, double) { return 1.0; }, [](double, double) { return 0.0; });
    for (int s = 0; s < 10; ++s) ns.step();
    // The mesh must actually have moved...
    double max_w = 0.0;
    for (double w : ns.mesh_velocity_quad()) max_w = std::max(max_w, std::abs(w));
    EXPECT_GT(max_w, 0.05);
    // ...while the free stream stays put.
    const double err =
        ns.disc().l2_error(ns.u_quad(), [](double, double) { return 1.0; });
    EXPECT_LT(err, 5e-3);
    const double verr =
        ns.disc().l2_error(ns.v_quad(), [](double, double) { return 0.0; });
    EXPECT_LT(verr, 5e-3);
}

TEST(AleNS, ZeroMotionMatchesFixedMeshPhysics) {
    // With body_velocity = 0 the ALE solver is an ordinary fixed-mesh solver;
    // a Kovasznay steady state must hold just as in the serial code.
    const double re = 40.0;
    const double lam = re / 2.0 - std::sqrt(re * re / 4.0 + 4.0 * std::numbers::pi * std::numbers::pi);
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
    AleOptions opts;
    opts.dt = 2e-3;
    opts.viscosity = 1.0 / re;
    opts.u_bc = [&](double x, double y, double) { return ku(x, y); };
    opts.v_bc = [&](double x, double y, double) { return kv(x, y); };
    AleNS2d ns(m, 6, opts);
    ns.set_initial(ku, kv);
    for (int s = 0; s < 50; ++s) ns.step();
    EXPECT_LT(ns.disc().l2_error(ns.u_quad(), ku), 0.02);
    EXPECT_LT(ns.disc().l2_error(ns.v_quad(), kv), 0.02);
}

double kinetic_energy(const AleNS2d& ns) {
    std::vector<double> ke(ns.u_quad().size());
    for (std::size_t i = 0; i < ke.size(); ++i)
        ke[i] = ns.u_quad()[i] * ns.u_quad()[i] + ns.v_quad()[i] * ns.v_quad()[i];
    return ns.disc().integrate(ke);
}

class AleRanks : public ::testing::TestWithParam<int> {};

TEST_P(AleRanks, ParallelMatchesSerialEnergy) {
    const int p = GetParam();
    const auto m = flap_mesh();
    AleOptions opts;
    opts.dt = 2e-3;
    opts.viscosity = 0.05;
    opts.body_velocity = [](double t) { return 0.3 * std::sin(5.0 * t); };
    opts.cg.tolerance = 1e-12; // tight so serial/parallel iterates agree
    opts.u_bc = [](double x, double y, double) {
        const bool body = std::abs(x) <= 0.5 + 1e-6 && std::abs(y) <= 0.5 + 1e-6;
        return body ? 0.0 : 1.0;
    };
    opts.v_bc = [&opts](double x, double y, double t) {
        const bool body = std::abs(x) <= 0.5 + 1e-6 && std::abs(y) <= 0.5 + 1e-6;
        return body ? opts.body_velocity(t) : 0.0;
    };
    const int nsteps = 4;

    AleNS2d serial(m, 3, opts);
    serial.set_initial([](double, double) { return 1.0; }, [](double, double) { return 0.0; });
    for (int s = 0; s < nsteps; ++s) serial.step();
    const double e_serial = kinetic_energy(serial);

    partition::Graph g;
    m.dual_graph(g.xadj, g.adjncy);
    const auto part = partition::partition_graph(g, p);
    simmpi::World world(p, test_net());
    std::vector<double> energies(static_cast<std::size_t>(p), 0.0);
    world.run([&](simmpi::Comm& c) {
        AleNS2d ns(m, 3, opts, &c, &part);
        ns.set_initial([](double, double) { return 1.0; }, [](double, double) { return 0.0; });
        for (int s = 0; s < nsteps; ++s) ns.step();
        energies[static_cast<std::size_t>(c.rank())] = c.allreduce_sum(kinetic_energy(ns));
    });
    for (double e : energies) EXPECT_NEAR(e, e_serial, 2e-5 * std::abs(e_serial)) << "p=" << p;
}

INSTANTIATE_TEST_SUITE_P(Ranks, AleRanks, ::testing::Values(2, 4));

TEST(AleNS, HeavingBodyKeepsNoSlipOnEveryBodyVertex) {
    // Table 3's run: the body heaves in y, so after a few steps its top edge
    // sits above y = 0.5.  Every Body vertex must still get the body's
    // no-slip data, not the inflow's.
    namespace workloads = nektar::workloads;
    const AleOptions opts = workloads::table3_options();
    AleNS2d ns(workloads::table3_mesh(), workloads::kTable3Order, opts);
    workloads::start_free_stream(ns);
    for (int s = 0; s < 3; ++s) ns.step();

    const mesh::Mesh& m = ns.disc().mesh();
    const double t = ns.time();
    double top = 0.0;
    std::size_t visits = 0;
    for (const mesh::Edge& ed : m.edges()) {
        if (ed.tag != mesh::BoundaryTag::Body) continue;
        for (const int v : {ed.v0, ed.v1}) {
            const mesh::Vertex& p = m.vertex(static_cast<std::size_t>(v));
            EXPECT_EQ(opts.u_bc(p.x, p.y, t), 0.0) << "at (" << p.x << ", " << p.y << ")";
            EXPECT_EQ(opts.v_bc(p.x, p.y, t), opts.body_velocity(t))
                << "at (" << p.x << ", " << p.y << ")";
            top = std::max(top, p.y);
            ++visits;
        }
    }
    EXPECT_EQ(visits, 48u);
    EXPECT_GT(top, 0.5 + 1e-6); // the body has moved
}

/// Every comm event of a steady step is issued inside one of the paper's 7
/// stages, so each per-stage comm ledger (and the Figure 15-16 and Table 2-3
/// stage rows built from it) accounts for the whole step.  Covers both
/// comm-backed solvers; the ALE mesh-velocity solve and the stage-4/6
/// gather-scatter sums are the easy ones to leave untagged.
TEST(StageTags, SteadyStepCommLogsCarryOnlyPaperStages) {
    const auto check = [](const char* what, const simmpi::RankReport& r) {
        EXPECT_FALSE(r.log.empty()) << what;
        for (const auto& [stage, events] : r.log)
            EXPECT_TRUE(stage >= 1 && stage <= 7) << what << " CommLog stage " << stage;
        for (const auto& [stage, fs] : r.fault_log)
            EXPECT_TRUE(stage >= 1 && stage <= 7) << what << " FaultLog stage " << stage;
        for (const auto& [stage, hidden] : r.overlap_log)
            EXPECT_TRUE(stage >= 1 && stage <= 7) << what << " OverlapLog stage " << stage;
    };
    check("table3_ale(4)", nektar::workloads::table3_ale(4).rank0);
    check("table2_fourier(4)", nektar::workloads::table2_fourier(4).rank0);
}

TEST(AleNS, PcgIterationCountsReported) {
    AleOptions opts;
    opts.dt = 2e-3;
    opts.viscosity = 0.05;
    opts.u_bc = [](double x, double y, double) {
        const bool body = std::abs(x) <= 0.5 + 1e-6 && std::abs(y) <= 0.5 + 1e-6;
        return body ? 0.0 : 1.0;
    };
    AleNS2d ns(flap_mesh(), 3, opts);
    ns.set_initial([](double, double) { return 1.0; }, [](double, double) { return 0.0; });
    // The very first step starts from a uniform field whose pressure RHS is
    // zero; the second step sees the developing boundary layer.
    ns.step();
    ns.step();
    EXPECT_GT(ns.last_pressure_iterations(), 3u); // a real iterative solve
}

TEST(AleNS, StageBreakdownWeightsOnSolves) {
    // Paper Figures 15-16: stages (b) pressure and (c) Helmholtz dominate.
    AleOptions opts;
    opts.dt = 2e-3;
    opts.viscosity = 0.05;
    opts.body_velocity = [](double t) { return 0.2 * std::sin(4.0 * t); };
    opts.u_bc = [](double x, double y, double) {
        const bool body = std::abs(x) <= 0.5 + 1e-6 && std::abs(y) <= 0.5 + 1e-6;
        return body ? 0.0 : 1.0;
    };
    opts.v_bc = [&opts](double x, double y, double t) {
        const bool body = std::abs(x) <= 0.5 + 1e-6 && std::abs(y) <= 0.5 + 1e-6;
        return body ? opts.body_velocity(t) : 0.0;
    };
    AleNS2d ns(flap_mesh(), 4, opts);
    ns.set_initial([](double, double) { return 1.0; }, [](double, double) { return 0.0; });
    ns.breakdown() = {};
    for (int s = 0; s < 3; ++s) ns.step();
    const auto& bd = ns.breakdown();
    const auto total = bd.total_counts();
    const auto solves = bd.counts[5].flops + bd.counts[7].flops;
    EXPECT_GT(solves, total.flops / 2) << "PCG solves must dominate the ALE step";
}

/// Flapping-body options with nonzero Dirichlet data on every velocity
/// boundary (free stream outside, body motion on the body).
AleOptions flap_options(double viscosity) {
    AleOptions opts;
    opts.dt = 2e-3;
    opts.viscosity = viscosity;
    opts.body_velocity = [](double t) { return 0.3 * std::sin(5.0 * t); };
    opts.u_bc = [](double x, double y, double) {
        const bool body = std::abs(x) <= 0.5 + 1e-6 && std::abs(y) <= 0.5 + 1e-6;
        return body ? 0.0 : 1.0;
    };
    opts.v_bc = [motion = opts.body_velocity](double x, double y, double t) {
        const bool body = std::abs(x) <= 0.5 + 1e-6 && std::abs(y) <= 0.5 + 1e-6;
        return body ? motion(t) : 0.0;
    };
    return opts;
}

/// || a - b ||_L2 and || b ||_L2 of two global dof vectors on this rank's
/// sub-discretization, summed over ranks when `c` is non-null.
std::pair<double, double> l2_diff(const AleNS2d& ns, const std::vector<double>& a,
                                  const std::vector<double>& b, simmpi::Comm* c) {
    const auto& d = ns.disc();
    std::vector<double> diff(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) diff[i] = a[i] - b[i];
    const auto sq = [&](const std::vector<double>& g) {
        std::vector<double> modal(d.modal_size()), quad(d.quad_size());
        d.scatter(g, modal);
        d.to_quad(modal, quad);
        const double n = d.l2_norm(quad);
        return n * n;
    };
    double dd = sq(diff), bb = sq(b);
    if (c != nullptr) {
        dd = c->allreduce_sum(dd);
        bb = c->allreduce_sum(bb);
    }
    return {std::sqrt(dd), std::sqrt(bb)};
}

/// Condensed vs full-system velocity solve on a moved mesh, both at
/// tolerance 1e-12, at the lambdas of a coarse and of the production step.
void expect_condensed_matches_full(AleNS2d& ns, simmpi::Comm* c) {
    for (int s = 0; s < 3; ++s) ns.step(); // move the mesh
    std::vector<double> f(ns.disc().quad_size());
    ns.disc().eval_at_quad([](double x, double y) { return std::sin(x) * std::cos(2.0 * y); },
                           f);
    const auto g = [](double x, double y) { return 1.0 + 0.25 * x - 0.5 * y * y; };
    for (const double lambda : {600.0, 50000.0, 75000.0}) {
        const auto full = ns.velocity_helmholtz(lambda, f, g, AleNS2d::Path::FullSystem);
        const std::size_t full_iters = ns.last_iterations(nektar::AleSolve::U);
        const auto cond = ns.velocity_helmholtz(lambda, f, g, AleNS2d::Path::Condensed);
        const std::size_t cond_iters = ns.last_iterations(nektar::AleSolve::U);
        const auto [err, norm] = l2_diff(ns, cond, full, c);
        EXPECT_GT(norm, 0.1) << "lambda=" << lambda;
        EXPECT_LT(err, 1e-10 * norm) << "lambda=" << lambda;
        EXPECT_LT(cond_iters, full_iters) << "lambda=" << lambda;
    }
}

TEST(AleCondensed, SerialMatchesFullSystemSolve) {
    AleOptions opts = flap_options(0.05);
    opts.cg = {.max_iterations = 5000, .tolerance = 1e-12};
    AleNS2d ns(flap_mesh(), 4, opts);
    ns.set_initial([](double, double) { return 1.0; }, [](double, double) { return 0.0; });
    expect_condensed_matches_full(ns, nullptr);
}

class AleCondensedRanks : public ::testing::TestWithParam<int> {};

TEST_P(AleCondensedRanks, ParallelMatchesFullSystemSolve) {
    const int p = GetParam();
    const auto m = flap_mesh();
    AleOptions opts = flap_options(0.05);
    opts.cg = {.max_iterations = 5000, .tolerance = 1e-12};
    partition::Graph gr;
    m.dual_graph(gr.xadj, gr.adjncy);
    const auto part = partition::partition_graph(gr, p);
    simmpi::World world(p, test_net());
    world.run([&](simmpi::Comm& c) {
        AleNS2d ns(m, 4, opts, &c, &part);
        ns.set_initial([](double, double) { return 1.0; }, [](double, double) { return 0.0; });
        expect_condensed_matches_full(ns, &c);
    });
}

INSTANTIATE_TEST_SUITE_P(Ranks, AleCondensedRanks, ::testing::Values(2, 4));

TEST(AleCondensed, VelocitySolvesStayCheapOnTheBenchMesh) {
    // perfbench's ale_flap_p4 set-up: the full-system Jacobi PCG took about
    // 700 iterations per steady-step velocity solve here.
    const auto m = mesh::flapping_body_mesh(2);
    AleOptions opts = flap_options(0.01);
    opts.cg.tolerance = 1e-8;
    partition::Graph gr;
    m.dual_graph(gr.xadj, gr.adjncy);
    const auto part = partition::partition_graph(gr, 4);
    simmpi::World world(4, test_net());
    world.run([&](simmpi::Comm& c) {
        AleNS2d ns(m, 4, opts, &c, &part);
        ns.set_initial([](double, double) { return 1.0; }, [](double, double) { return 0.0; });
        for (int s = 0; s < 4; ++s) ns.step(); // two ramp steps, two steady
        EXPECT_GT(ns.last_iterations(nektar::AleSolve::U), 3u);
        EXPECT_LT(ns.last_iterations(nektar::AleSolve::U), 200u);
        EXPECT_LT(ns.last_iterations(nektar::AleSolve::V), 200u);
        EXPECT_GT(ns.last_iterations(nektar::AleSolve::Pressure), 3u);
        EXPECT_GT(ns.last_iterations(nektar::AleSolve::Mesh), 3u);
    });
}

TEST(AleNS, UnconvergedSolveThrowsNamingSolveAndStep) {
    AleOptions opts = flap_options(0.05);
    opts.cg.max_iterations = 3;
    AleNS2d ns(flap_mesh(), 3, opts);
    ns.set_initial([](double, double) { return 1.0; }, [](double, double) { return 0.0; });
    try {
        ns.step();
        FAIL() << "expected an unconverged-solve error";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("PCG solve of step 0"), std::string::npos) << what;
        EXPECT_NE(what.find("max-iterations"), std::string::npos) << what;
    }
}

/// One rank's bits after a run: the public fields, the four solves'
/// iterations, every stage's blaslite counts and, on a comm, the per-stage
/// log of comm events and the virtual clock (which move if a gather-scatter
/// or allreduce is added, dropped or moved to another stage).
std::uint64_t run_fingerprint(AleNS2d& ns, const simmpi::Comm* c) {
    ckpt::Fingerprint fp;
    for (const auto* field : {&ns.u_quad(), &ns.v_quad(), &ns.mesh_velocity_quad()})
        for (double x : *field) fp.add(x);
    for (auto s : {nektar::AleSolve::Mesh, nektar::AleSolve::Pressure, nektar::AleSolve::U,
                   nektar::AleSolve::V})
        fp.add(static_cast<std::uint64_t>(ns.last_iterations(s)));
    for (const blaslite::OpCounts& k : ns.breakdown().counts)
        fp.add(k.flops).add(k.bytes_read).add(k.bytes_written).add(k.calls);
    if (c == nullptr) return fp.value();
    for (const auto& [stage, events] : c->log())
        for (const auto& [key, count] : events)
            fp.add(static_cast<std::uint64_t>(stage + 1))
                .add(static_cast<std::uint64_t>(key.kind))
                .add(static_cast<std::uint64_t>(key.bytes))
                .add(static_cast<std::uint64_t>(key.overlapped))
                .add(count);
    return fp.add(c->wall_time()).value();
}

TEST(AleNS, SolvesArePinned) {
    // perfbench's ale_flap_p4 set-up for four steps (two ramp, two steady),
    // serial and on four ranks.  Any change to the four PCG solves that
    // moves a bit, an iteration, a charged operation or a collective shows.
    // The bits are the host's: the x86-64-v3/v4 clones of the blaslite
    // kernels fuse multiply-adds that the baseline build (and every
    // sanitizer build) leaves as two roundings.  Which ones fuse is the
    // compiler's choice; the FMA bits were recorded with GCC, the baseline
    // bits need none.
    struct Pins {
        std::uint64_t serial, ranks;
        std::array<std::size_t, 4> serial_iters, rank_iters; ///< mesh, pressure, u, v
    };
    const bool fma = blaslite::isa_level() != blaslite::IsaLevel::base;
#if defined(__clang__)
    if (fma) GTEST_SKIP() << "FMA-host bits are recorded for GCC's contraction";
#endif
    const Pins pins = fma ? Pins{0xd6895f8ef0182894ull, 0x062597d9e3204ceeull,
                                 {83, 176, 109, 104}, {83, 176, 109, 104}}
                          : Pins{0x8a542cab423f1911ull, 0x4311d9c247241e66ull,
                                 {83, 176, 109, 104}, {83, 173, 109, 104}};
    const auto m = mesh::flapping_body_mesh(2);
    AleOptions opts = flap_options(0.01);
    opts.cg.tolerance = 1e-8;
    const auto run = [](AleNS2d& ns) {
        ns.set_initial([](double, double) { return 1.0; },
                       [](double x, double y) { return 0.1 * std::sin(x + 2.0 * y); });
        ns.breakdown() = {};
        for (int s = 0; s < 4; ++s) ns.step();
        std::array<std::size_t, 4> iters{};
        for (std::size_t s = 0; s < 4; ++s)
            iters[s] = ns.last_iterations(static_cast<nektar::AleSolve>(s));
        return iters;
    };

    AleNS2d serial(m, 4, opts);
    EXPECT_EQ(run(serial), pins.serial_iters);
    EXPECT_EQ(run_fingerprint(serial, nullptr), pins.serial);

    partition::Graph gr;
    m.dual_graph(gr.xadj, gr.adjncy);
    const auto part = partition::partition_graph(gr, 4);
    std::vector<std::uint64_t> ranks(4);
    std::vector<std::array<std::size_t, 4>> iters(4);
    simmpi::World world(4, test_net());
    world.run([&](simmpi::Comm& c) {
        AleNS2d ns(m, 4, opts, &c, &part);
        const auto r = static_cast<std::size_t>(c.rank());
        iters[r] = run(ns);
        ranks[r] = run_fingerprint(ns, &c);
    });
    ckpt::Fingerprint all;
    for (std::size_t r = 0; r < 4; ++r) {
        EXPECT_EQ(iters[r], pins.rank_iters) << "rank " << r;
        all.add(ranks[r]);
    }
    EXPECT_EQ(all.value(), pins.ranks);
}

TEST(AleNS, SerialSolveHonoursPinFirstDof) {
    // All-Neumann Poisson: only the pinned vertex makes it nonsingular.
    AleOptions opts = flap_options(0.05);
    opts.velocity_bc = {.dirichlet = {}, .pin_first_dof = true};
    opts.cg.tolerance = 1e-12;
    AleNS2d ns(flap_mesh(), 3, opts);
    const std::vector<int> pinned = nektar::constrained_dofs(ns.disc(), opts.velocity_bc);
    ASSERT_EQ(pinned.size(), 1u);
    std::vector<double> f(ns.disc().quad_size());
    ns.disc().eval_at_quad([](double x, double y) { return std::sin(x) * std::cos(2.0 * y); }, f);
    for (auto path : {AleNS2d::Path::FullSystem, AleNS2d::Path::Condensed}) {
        const auto x = ns.velocity_helmholtz(0.0, f, {}, path);
        EXPECT_EQ(x[static_cast<std::size_t>(pinned[0])], 0.0);
        double norm = 0.0;
        for (double v : x) norm = std::max(norm, std::abs(v));
        EXPECT_GT(norm, 1e-3);
    }
}

TEST(AleNS, PinFirstDofOnSeveralRanksThrows) {
    // Each rank would pin its own element 0: an over-constrained system.
    const auto m = flap_mesh();
    AleOptions opts = flap_options(0.05);
    opts.pressure_bc = {.dirichlet = {}, .pin_first_dof = true};
    partition::Graph gr;
    m.dual_graph(gr.xadj, gr.adjncy);
    const auto part = partition::partition_graph(gr, 2);
    simmpi::World world(2, test_net());
    try {
        world.run([&](simmpi::Comm& c) {
            AleNS2d ns(m, 3, opts, &c, &part);
            ns.set_initial([](double, double) { return 1.0; }, [](double, double) { return 0.0; });
            ns.step();
        });
        FAIL() << "pin_first_dof on two ranks did not throw";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("pin_first_dof"), std::string::npos) << what;
    }
}

TEST(AleNS, ParallelRunNeedsPartition) {
    simmpi::World world(2, test_net());
    EXPECT_THROW(world.run([&](simmpi::Comm& c) {
        AleOptions opts;
        AleNS2d ns(flap_mesh(), 3, opts, &c, nullptr);
    }),
                 std::invalid_argument);
}

} // namespace
