#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <numbers>
#include <random>
#include <tuple>
#include <utility>
#include <vector>

#include "gs/gather_scatter.hpp"
#include "mesh/generators.hpp"
#include "nektar/ns_ale.hpp"
#include "nektar/ns_fourier.hpp"
#include "partition/partition.hpp"
#include "transpose_oracle.hpp"

/// Property tests for the communication/computation overlap paths: every
/// overlapped exchange must be *bit-identical* to its blocking twin — across
/// rank counts, slice counts, and fault seeds — while recovering wall time on
/// the virtual clock whenever there is computation to hide behind.
namespace {

using nektar::AleNS2d;
using nektar::AleOptions;
using nektar::Discretization;
using nektar::FourierNS;
using nektar::FourierNsOptions;
using nektar::Transpose;

netsim::NetworkModel make_net(std::uint64_t fault_seed) {
    netsim::NetworkModel n;
    n.name = "overlap";
    n.latency_us = 10.0;
    n.bandwidth_mbps = 100.0;
    if (fault_seed != 0) {
        n.fault.seed = fault_seed;
        n.fault.latency_jitter_us = 80.0;
        n.fault.loss_probability = 0.05;
        n.fault.retransmit_timeout_us = 300.0;
        n.fault.degrade_probability = 0.02;
        n.fault.degrade_factor = 3.0;
        n.fault.straggler_fraction = 0.3;
        n.fault.straggler_factor = 2.5;
    }
    return n;
}

/// Total virtual comm seconds this rank hid so far, summed over stages.
double hidden_total(const simmpi::Comm& c) {
    double t = 0.0;
    for (const auto& [stage, s] : c.overlap_log()) {
        (void)stage;
        t += s;
    }
    return t;
}

/// (rank count, slice count, fault seed; 0 = perfect network).
class TransposeOverlap
    : public ::testing::TestWithParam<std::tuple<int, std::size_t, std::uint64_t>> {
protected:
    [[nodiscard]] int nprocs() const { return std::get<0>(GetParam()); }
    [[nodiscard]] std::size_t nslices() const { return std::get<1>(GetParam()); }
    [[nodiscard]] std::uint64_t seed() const { return std::get<2>(GetParam()); }
};

constexpr nektar::TransposeKind kKinds[] = {nektar::TransposeKind::Slab,
                                            nektar::TransposeKind::Pencil};

// A roundtrip with no output fields is the pipelined forward exchange:
// compute(b, e) fires as each range of points lands.
TEST_P(TransposeOverlap, ToLinesOverlappedIsBitIdentical) {
    const int p = nprocs();
    const std::size_t nq = 23, npl = 4; // nq not divisible by p: exercises padding
    simmpi::World world(p, make_net(seed()));
    world.run([&](simmpi::Comm& c) {
        for (const auto kind : kKinds) {
            const Transpose tr(&c, nq, npl, kind);
            const auto planes = transpose_oracle::planes(tr, nq, c.rank());
            std::vector<double> overlapped(tr.lines_buffer_size(), -1.0);
            // The ready ranges must partition [0, chunk) in ascending order.
            std::size_t covered = 0;
            tr.roundtrip_overlapped(&c, {planes}, {overlapped}, {}, {}, nslices(),
                                    [&](std::size_t b, std::size_t e) {
                                        ASSERT_EQ(b, covered);
                                        ASSERT_GT(e, b);
                                        covered = e;
                                    });
            ASSERT_EQ(covered, tr.chunk());
            const auto expect = transpose_oracle::lines(tr, nq, c.rank());
            for (std::size_t i = 0; i < expect.size(); ++i)
                ASSERT_EQ(overlapped[i], expect[i]) << "p=" << p << " i=" << i;
        }
    });
}

// A roundtrip with no input fields is the pipelined reverse exchange:
// compute(b, e) produces each range of points right before it ships.
TEST_P(TransposeOverlap, ToPlanesOverlappedIsBitIdentical) {
    const int p = nprocs();
    const std::size_t nq = 23, npl = 4;
    simmpi::World world(p, make_net(seed()));
    world.run([&](simmpi::Comm& c) {
        for (const auto kind : kKinds) {
            const Transpose tr(&c, nq, npl, kind);
            const std::size_t tp = tr.total_planes();
            const auto lines = transpose_oracle::lines(tr, nq, c.rank());
            std::vector<double> staged(lines.size(), 0.0);
            std::vector<double> overlapped(tr.planes_buffer_size(), -2.0);
            tr.roundtrip_overlapped(&c, {}, {}, {staged}, {overlapped}, nslices(),
                                    [&](std::size_t b, std::size_t e) {
                                        for (std::size_t j = b * tp; j < e * tp; ++j)
                                            staged[j] = lines[j];
                                    });
            const auto expect = transpose_oracle::planes(tr, nq, c.rank());
            for (std::size_t i = 0; i < expect.size(); ++i)
                ASSERT_EQ(overlapped[i], expect[i]) << "p=" << p << " i=" << i;
        }
    });
}

TEST_P(TransposeOverlap, RoundtripOverlappedMatchesBlockingSequence) {
    const int p = nprocs();
    const std::size_t nq = 23, npl = 4;
    const std::size_t nin = 2, nout = 3; // unequal field counts, like 3-in/6-out
    simmpi::World world(p, make_net(seed()));
    world.run([&](simmpi::Comm& c) {
        for (const auto kind : kKinds) {
            const Transpose tr(&c, nq, npl, kind);
            const std::size_t tp = tr.total_planes();
            std::vector<std::vector<double>> pin(nin), lin(nin), lout(nout), pout(nout);
            std::vector<std::vector<double>> lin_ref(nin), lout_ref(nout), pout_ref(nout);
            for (std::size_t f = 0; f < nin; ++f) {
                pin[f].resize(tr.planes_buffer_size());
                for (std::size_t j = 0; j < pin[f].size(); ++j)
                    pin[f][j] = std::sin(0.1 * static_cast<double>(j) +
                                         static_cast<double>(f) + static_cast<double>(c.rank()));
                lin[f].resize(tr.lines_buffer_size());
                lin_ref[f].resize(tr.lines_buffer_size());
            }
            for (std::size_t f = 0; f < nout; ++f) {
                lout[f].assign(tr.lines_buffer_size(), 0.0);
                lout_ref[f].assign(tr.lines_buffer_size(), 0.0);
                pout[f].assign(tr.planes_buffer_size(), -1.0);
                pout_ref[f].assign(tr.planes_buffer_size(), -2.0);
            }
            // A pointwise "nonlinear" kernel mixing the input lines.
            const auto kernel = [&](std::vector<std::vector<double>>& in,
                                    std::vector<std::vector<double>>& out, std::size_t b,
                                    std::size_t e) {
                for (std::size_t i = b; i < e; ++i)
                    for (std::size_t gp = 0; gp < tp; ++gp) {
                        const double a = in[0][i * tp + gp], bb = in[1][i * tp + gp];
                        out[0][i * tp + gp] = a * bb;
                        out[1][i * tp + gp] = a + 2.0 * bb;
                        out[2][i * tp + gp] = a * a - bb;
                    }
            };

            // Blocking reference sequence.
            for (std::size_t f = 0; f < nin; ++f) tr.to_lines(&c, pin[f], lin_ref[f]);
            kernel(lin_ref, lout_ref, 0, tr.chunk());
            for (std::size_t f = 0; f < nout; ++f) tr.to_planes(&c, lout_ref[f], pout_ref[f]);

            std::vector<std::span<const double>> pin_s(pin.begin(), pin.end());
            std::vector<std::span<double>> lin_s(lin.begin(), lin.end());
            std::vector<std::span<const double>> lout_s(lout.begin(), lout.end());
            std::vector<std::span<double>> pout_s(pout.begin(), pout.end());
            tr.roundtrip_overlapped(&c, pin_s, lin_s, lout_s, pout_s, nslices(),
                                    [&](std::size_t b, std::size_t e) {
                                        kernel(lin, lout, b, e);
                                    });

            for (std::size_t f = 0; f < nout; ++f)
                for (std::size_t j = 0; j < pout[f].size(); ++j)
                    ASSERT_EQ(pout[f][j], pout_ref[f][j])
                        << "p=" << p << " f=" << f << " j=" << j;
        }
    });
}

INSTANTIATE_TEST_SUITE_P(
    RanksSlicesSeeds, TransposeOverlap,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values<std::size_t>(1, 3, 8),
                       ::testing::Values<std::uint64_t>(0, 20260807)),
    [](const ::testing::TestParamInfo<TransposeOverlap::ParamType>& info) {
        return "p" + std::to_string(std::get<0>(info.param)) + "_s" +
               std::to_string(std::get<1>(info.param)) + "_seed" +
               std::to_string(std::get<2>(info.param));
    });

TEST(TransposeOverlap, PipelineRecoversWallTimeWhenComputeCoversComm) {
    // On a perfect network, a roundtrip whose per-slice compute dwarfs the
    // per-slice transfers must finish earlier on the virtual wall clock than
    // the blocking exchange-compute-exchange sequence, and the hidden
    // seconds must show up in the overlap log.
    const int p = 4;
    const std::size_t nq = 64, npl = 8, nslices = 8;
    simmpi::World world(p, make_net(0));
    const auto reports = world.run([&](simmpi::Comm& c) {
        const Transpose tr(&c, nq, npl);
        const double per_point = 1e-4; // virtual seconds of compute per point
        std::vector<double> planes(tr.planes_buffer_size(), 1.0);
        std::vector<double> lines(tr.lines_buffer_size());
        std::vector<double> back(tr.planes_buffer_size());
        std::vector<std::span<const double>> pin{planes};
        std::vector<std::span<double>> lin{lines};
        std::vector<std::span<const double>> lout{lines};
        std::vector<std::span<double>> pout{back};

        const double w0 = c.wall_time();
        tr.to_lines(&c, planes, lines);
        c.advance_compute(static_cast<double>(tr.chunk()) * per_point);
        tr.to_planes(&c, lines, back);
        const double blocking = c.wall_time() - w0;

        const double w1 = c.wall_time();
        tr.roundtrip_overlapped(&c, pin, lin, lout, pout, nslices,
                                [&](std::size_t b, std::size_t e) {
                                    c.advance_compute(static_cast<double>(e - b) * per_point);
                                });
        const double overlapped = c.wall_time() - w1;

        EXPECT_LT(overlapped, blocking) << "rank " << c.rank();
        EXPECT_GT(hidden_total(c), 0.0);
    });
    for (const auto& rep : reports) EXPECT_FALSE(rep.overlap_log.empty());
}

TEST(GatherScatterOverlap, NonblockingExchangeIsBitIdenticalToBlocking) {
    // Random sharing patterns, with and without faults: the nonblocking
    // pairwise stage must reproduce the blocking sums bit for bit.
    for (std::uint64_t seed : {0ull, 20260807ull}) {
        for (int p : {2, 3, 5}) {
            std::mt19937 gen(41 + p);
            std::vector<std::vector<std::int64_t>> ids(static_cast<std::size_t>(p));
            for (std::int64_t gid = 0; gid < 60; ++gid) {
                std::vector<int> holders;
                for (int r = 0; r < p; ++r)
                    if (gen() % 3 == 0) holders.push_back(r);
                if (holders.empty()) holders.push_back(static_cast<int>(gid) % p);
                for (int r : holders) ids[static_cast<std::size_t>(r)].push_back(gid);
            }
            simmpi::World world(p, make_net(seed));
            world.run([&](simmpi::Comm& c) {
                const auto& mine = ids[static_cast<std::size_t>(c.rank())];
                gs::GatherScatter blocking_gs(c, mine, gs::GatherScatter::Strategy::Auto,
                                              gs::GatherScatter::Exchange::Blocking);
                gs::GatherScatter nonblocking_gs(c, mine, gs::GatherScatter::Strategy::Auto,
                                                 gs::GatherScatter::Exchange::Nonblocking);
                std::vector<double> v1(mine.size()), v2(mine.size());
                for (std::size_t i = 0; i < mine.size(); ++i)
                    v1[i] = v2[i] = std::sin(static_cast<double>(mine[i])) + 0.01 * c.rank();
                blocking_gs.sum(c, v1);
                nonblocking_gs.sum(c, v2);
                for (std::size_t i = 0; i < mine.size(); ++i)
                    ASSERT_EQ(v2[i], v1[i]) << "p=" << p << " rank=" << c.rank() << " i=" << i;
            });
        }
    }
}

std::shared_ptr<Discretization> shear_disc(std::size_t order) {
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

TEST(FourierNSOverlap, OverlappedSolverIsBitIdenticalToBlocking) {
    const double nu = 0.05, dt = 2e-3;
    const int nsteps = 6;
    const auto run_norm = [&](simmpi::Comm* comm, bool overlap) {
        const auto disc = shear_disc(5);
        FourierNsOptions o = shear_opts(nu, dt);
        o.overlap_transpose = overlap;
        FourierNS ns(disc, o, comm);
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
    for (std::uint64_t seed : {0ull, 20260807ull}) {
        for (int p : {2, 4}) {
            std::vector<double> on(static_cast<std::size_t>(p)), off(on.size());
            {
                simmpi::World world(p, make_net(seed));
                world.run([&](simmpi::Comm& c) {
                    off[static_cast<std::size_t>(c.rank())] = run_norm(&c, false);
                });
            }
            {
                simmpi::World world(p, make_net(seed));
                world.run([&](simmpi::Comm& c) {
                    on[static_cast<std::size_t>(c.rank())] = run_norm(&c, true);
                });
            }
            // Faults stretch clocks, never data: both modes must agree bit
            // for bit on every rank regardless of the seed.
            for (int r = 0; r < p; ++r)
                ASSERT_EQ(on[static_cast<std::size_t>(r)], off[static_cast<std::size_t>(r)])
                    << "p=" << p << " seed=" << seed << " rank=" << r;
        }
    }
}

TEST(FourierNSOverlap, OverlapEarnsCreditInTheTransposeStage) {
    simmpi::World world(2, make_net(0));
    const auto reports = world.run([&](simmpi::Comm& c) {
        const auto disc = shear_disc(5);
        FourierNS ns(disc, shear_opts(0.05, 1e-3), &c);
        ns.set_initial(
            [](double, double y, double z) { return std::sin(std::numbers::pi * y) * std::sin(z); },
            [](double, double, double) { return 0.0; },
            [](double, double, double) { return 0.0; });
        for (int s = 0; s < 3; ++s) ns.step();
    });
    // The pipelined nonlinear exchange hides transfer time behind the z-line
    // work; the credit lands in stage 2 (transpose/nonlinear) of every rank.
    for (const auto& rep : reports) {
        ASSERT_TRUE(rep.overlap_log.count(2)) << "no overlap credit in stage 2";
        EXPECT_GT(rep.overlap_log.at(2), 0.0);
        double total = 0.0;
        for (const auto& [stage, s] : rep.overlap_log) {
            (void)stage;
            total += s;
        }
        EXPECT_DOUBLE_EQ(total, rep.overlap_log.at(2)); // only stage 2 overlaps today
    }
}

double kinetic_energy(const AleNS2d& ns) {
    std::vector<double> ke(ns.u_quad().size());
    for (std::size_t i = 0; i < ke.size(); ++i)
        ke[i] = ns.u_quad()[i] * ns.u_quad()[i] + ns.v_quad()[i] * ns.v_quad()[i];
    return ns.disc().integrate(ke);
}

TEST(AleOverlap, NonblockingGsSolverIsBitIdenticalToBlocking) {
    const auto m = mesh::flapping_body_mesh(1);
    const int p = 4, nsteps = 3;
    partition::Graph g;
    m.dual_graph(g.xadj, g.adjncy);
    const auto part = partition::partition_graph(g, p);
    const auto run_fields = [&](bool nonblocking) {
        AleOptions opts;
        opts.dt = 2e-3;
        opts.viscosity = 0.05;
        opts.overlap_gs = nonblocking;
        opts.body_velocity = [](double t) { return 0.3 * std::sin(5.0 * t); };
        opts.u_bc = [](double x, double y, double) {
            const bool body = std::abs(x) <= 0.5 + 1e-6 && std::abs(y) <= 0.5 + 1e-6;
            return body ? 0.0 : 1.0;
        };
        opts.v_bc = [&opts](double x, double y, double t) {
            const bool body = std::abs(x) <= 0.5 + 1e-6 && std::abs(y) <= 0.5 + 1e-6;
            return body ? opts.body_velocity(t) : 0.0;
        };
        simmpi::World world(p, make_net(0));
        std::vector<std::vector<double>> u(static_cast<std::size_t>(p));
        std::vector<double> energy(static_cast<std::size_t>(p));
        world.run([&](simmpi::Comm& c) {
            AleNS2d ns(m, 3, opts, &c, &part);
            ns.set_initial([](double, double) { return 1.0; },
                           [](double, double) { return 0.0; });
            for (int s = 0; s < nsteps; ++s) ns.step();
            u[static_cast<std::size_t>(c.rank())] = ns.u_quad();
            energy[static_cast<std::size_t>(c.rank())] = c.allreduce_sum(kinetic_energy(ns));
        });
        return std::pair{u, energy};
    };
    const auto [u_blk, e_blk] = run_fields(false);
    const auto [u_nb, e_nb] = run_fields(true);
    for (int r = 0; r < p; ++r) {
        ASSERT_EQ(u_nb[static_cast<std::size_t>(r)].size(),
                  u_blk[static_cast<std::size_t>(r)].size());
        for (std::size_t i = 0; i < u_nb[static_cast<std::size_t>(r)].size(); ++i)
            ASSERT_EQ(u_nb[static_cast<std::size_t>(r)][i], u_blk[static_cast<std::size_t>(r)][i])
                << "rank " << r << " i=" << i;
        ASSERT_EQ(e_nb[static_cast<std::size_t>(r)], e_blk[static_cast<std::size_t>(r)]);
    }
}

} // namespace
