#include "nektar/transpose.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "transpose_oracle.hpp"

/// The distributed transpose, both kinds: the slab (P x 1 grid, one world
/// alltoall) and the 2-D pencil (two staged subcommunicator alltoalls).
/// Every kind must deliver the closed-form oracle's buffers at every rank
/// count, and the slab must price as the paper's single P-wide exchange.
namespace {

using nektar::Transpose;
using nektar::TransposeKind;

netsim::NetworkModel test_net() {
    netsim::NetworkModel n;
    n.name = "test";
    n.latency_us = 10.0;
    n.bandwidth_mbps = 100.0;
    return n;
}

constexpr TransposeKind kKinds[] = {TransposeKind::Slab, TransposeKind::Pencil};

TEST(PencilTranspose, SerialRoundTrip) {
    const std::size_t nq = 17, npl = 6;
    Transpose tr(nullptr, nq, npl, TransposeKind::Pencil);
    const std::vector<double> planes = transpose_oracle::planes(tr, nq, 0);
    std::vector<double> lines(tr.lines_buffer_size());
    tr.to_lines(nullptr, planes, lines);
    EXPECT_EQ(lines, transpose_oracle::lines(tr, nq, 0));
    std::vector<double> back(planes.size(), -1.0);
    tr.to_planes(nullptr, lines, back);
    EXPECT_EQ(back, planes);
}

TEST(PencilTranspose, GridShapeIsMostSquareByDefault) {
    // The one grid-shape rule (the lab's pricing model uses it too): the
    // largest divisor of P that is <= sqrt(P).
    for (std::size_t p = 1; p <= 4096; ++p) {
        const std::size_t rows = nektar::most_square_rows(p);
        ASSERT_EQ(p % rows, 0u) << "p=" << p;
        ASSERT_LE(rows * rows, p) << "p=" << p;
        for (std::size_t d = rows + 1; d * d <= p; ++d)
            ASSERT_NE(p % d, 0u) << "p=" << p << " has a squarer divisor " << d;
    }
    struct Case {
        int p;
        std::size_t rows;
    };
    for (const auto [p, rows] : {Case{4, 2}, Case{6, 2}, Case{8, 2}, Case{12, 3}, Case{16, 4},
                                 Case{2, 1}, Case{7, 1}}) {
        simmpi::World world(p, test_net());
        world.run([&, rows = rows](simmpi::Comm& c) {
            Transpose tr(&c, 23, 2, TransposeKind::Pencil);
            EXPECT_EQ(tr.grid_rows(), rows) << "p=" << tr.num_ranks();
            EXPECT_EQ(tr.grid_rows() * tr.grid_cols(), tr.num_ranks());
        });
    }
}

/// Runs `body(comm)` on `p` ranks; p = 1 is the serial case (null comm).
template <class Body>
void on_ranks(int p, Body&& body) {
    if (p == 1) {
        body(nullptr);
        return;
    }
    simmpi::World world(p, test_net());
    world.run([&](simmpi::Comm& c) { body(&c); });
}

class PencilRanks : public ::testing::TestWithParam<int> {};

/// Both kinds deliver the closed-form oracle's lines — same point and plane
/// ownership, same padding zeros — blocking and through
/// roundtrip_overlapped, at every rank count including primes (a 1 x P
/// pencil grid).  So the pencil matches the slab bit for bit.
TEST_P(PencilRanks, MatchesSlabBitForBit) {
    const int p = GetParam();
    const std::size_t nq = 23, npl = 4, nslices = 3; // nq % p != 0: exercises padding
    on_ranks(p, [&](simmpi::Comm* c) {
        const int rank = c ? c->rank() : 0;
        for (const TransposeKind kind : kKinds) {
            const Transpose tr(c, nq, npl, kind);
            const auto planes = transpose_oracle::planes(tr, nq, rank);
            const auto expect = transpose_oracle::lines(tr, nq, rank);

            std::vector<double> lines(tr.lines_buffer_size(), -1.0);
            tr.to_lines(c, planes, lines);
            EXPECT_EQ(lines, expect) << "blocking, p=" << p;
            std::vector<double> back(planes.size(), -1.0);
            tr.to_planes(c, lines, back);
            EXPECT_EQ(back, planes) << "blocking, p=" << p;

            // The roundtrip doubles every line; doubling is exact.
            std::vector<double> rlines(tr.lines_buffer_size(), -1.0);
            std::vector<double> out(tr.lines_buffer_size(), -1.0);
            std::vector<double> rback(planes.size(), -1.0);
            tr.roundtrip_overlapped(c, {planes}, {rlines}, {out}, {rback}, nslices,
                                    [&](std::size_t b, std::size_t e) {
                                        const std::size_t tp = tr.total_planes();
                                        for (std::size_t j = b * tp; j < e * tp; ++j)
                                            out[j] = 2.0 * rlines[j];
                                    });
            EXPECT_EQ(rlines, expect) << "overlapped, p=" << p;
            for (std::size_t j = 0; j < planes.size(); ++j)
                ASSERT_EQ(rback[j], 2.0 * planes[j]) << "overlapped, p=" << p << " j=" << j;
        }
    });
}

INSTANTIATE_TEST_SUITE_P(Ranks, PencilRanks, ::testing::Values(1, 2, 3, 4, 6, 7, 8, 12, 16));

/// The slab is the P x 1 grid on the world communicator: no split() and
/// one group-0 Alltoall per blocking direction — the
/// events simmpi::price re-prices across P.  The pencil splits and logs
/// subcommunicator-sized events instead.
TEST(SlabTranspose, CallsNoSplitAndLogsOnlyWorldAlltoalls) {
    const int p = 6;
    const std::size_t nq = 23, npl = 2;
    simmpi::World world(p, test_net());
    world.run([&](simmpi::Comm& c) {
        const Transpose slab(&c, nq, npl, TransposeKind::Slab);
        EXPECT_EQ(slab.grid_rows(), static_cast<std::size_t>(p));
        EXPECT_EQ(slab.grid_cols(), 1u);
        EXPECT_TRUE(c.log().empty()) << "the slab constructor communicated";

        const auto planes = transpose_oracle::planes(slab, nq, c.rank());
        std::vector<double> lines(slab.lines_buffer_size()), back(planes.size());
        const simmpi::CommEventKey world_alltoall{simmpi::CommKind::Alltoall,
                                                  npl * slab.chunk() * sizeof(double)};
        slab.to_lines(&c, planes, lines);
        ASSERT_EQ(c.log().size(), 1u);
        ASSERT_EQ(c.log().at(-1).size(), 1u);
        EXPECT_EQ(c.log().at(-1).at(world_alltoall), 1u);
        slab.to_planes(&c, lines, back);
        EXPECT_EQ(c.log().at(-1).size(), 1u);
        EXPECT_EQ(c.log().at(-1).at(world_alltoall), 2u);

        slab.roundtrip_overlapped(&c, {planes}, {lines}, {lines}, {back}, 2,
                                  [](std::size_t, std::size_t) {});
        for (const auto& [key, n] : c.log().at(-1)) {
            EXPECT_EQ(key.kind, simmpi::CommKind::Alltoall);
            EXPECT_EQ(key.group, 0u);
            EXPECT_EQ(key.groups, 1u);
        }

        const Transpose pencil(&c, nq, npl, TransposeKind::Pencil);
        bool split = false;
        for (const auto& [key, n] : c.log().at(-1)) split |= key.kind == simmpi::CommKind::Split;
        EXPECT_TRUE(split) << "the pencil derives its grid through split()";
    });
}

TEST(PencilTranspose, OverlappedModesMatchBlockingBitForBit) {
    // One-way pipelines are roundtrips with no fields the other way: with
    // no outputs the exchange is a pipelined to_lines whose compute(b, e)
    // fires as each range of points lands; with no inputs it is a pipelined
    // to_planes whose compute(b, e) produces each range right before it
    // ships.  Both must match the blocking calls.
    const int p = 6;
    const std::size_t nq = 29, npl = 4, nslices = 3;
    simmpi::World world(p, test_net());
    world.run([&](simmpi::Comm& c) {
        const Transpose tr(&c, nq, npl, TransposeKind::Pencil);
        const std::size_t tp = tr.total_planes();
        std::vector<double> planes(tr.planes_buffer_size());
        for (std::size_t i = 0; i < planes.size(); ++i)
            planes[i] = std::sin(0.37 * static_cast<double>(i) + c.rank());

        std::vector<double> blocking(tr.lines_buffer_size());
        tr.to_lines(&c, planes, blocking);

        std::vector<double> overlapped(tr.lines_buffer_size(), -1.0);
        std::size_t covered = 0;
        tr.roundtrip_overlapped(&c, {planes}, {overlapped}, {}, {}, nslices,
                                [&](std::size_t b, std::size_t e) {
                                    EXPECT_EQ(b, covered);
                                    covered = e;
                                });
        EXPECT_EQ(covered, tr.chunk());
        EXPECT_EQ(overlapped, blocking);

        std::vector<double> staged(blocking.size(), 0.0);
        std::vector<double> back(planes.size(), -1.0);
        tr.roundtrip_overlapped(&c, {}, {}, {staged}, {back}, nslices,
                                [&](std::size_t b, std::size_t e) {
                                    std::copy(blocking.begin() + static_cast<long>(b * tp),
                                              blocking.begin() + static_cast<long>(e * tp),
                                              staged.begin() + static_cast<long>(b * tp));
                                });
        EXPECT_EQ(back, planes);
    });
}

TEST(PencilTranspose, RoundtripOverlappedMatchesBlockingSequence) {
    const int p = 4;
    const std::size_t nq = 18, npl = 2, nslices = 2;
    simmpi::World world(p, test_net());
    world.run([&](simmpi::Comm& c) {
        const Transpose tr(&c, nq, npl, TransposeKind::Pencil);
        const std::size_t tp = tr.total_planes();
        std::vector<double> pin(tr.planes_buffer_size());
        for (std::size_t i = 0; i < pin.size(); ++i)
            pin[i] = 0.5 * static_cast<double>(i + 1) + 10.0 * c.rank();

        // Reference: blocking to_lines / compute / to_planes.
        std::vector<double> ref_lines(tr.lines_buffer_size());
        tr.to_lines(&c, pin, ref_lines);
        std::vector<double> ref_out_lines(ref_lines);
        for (double& v : ref_out_lines) v *= 2.0;
        std::vector<double> ref_planes(tr.planes_buffer_size(), -1.0);
        tr.to_planes(&c, ref_out_lines, ref_planes);

        std::vector<double> lines(tr.lines_buffer_size()), out_lines(tr.lines_buffer_size());
        std::vector<double> planes(tr.planes_buffer_size(), -1.0);
        tr.roundtrip_overlapped(
            &c, {std::span<const double>(pin)}, {std::span<double>(lines)},
            {std::span<const double>(out_lines)}, {std::span<double>(planes)}, nslices,
            [&](std::size_t b, std::size_t e) {
                for (std::size_t i = b; i < e; ++i)
                    for (std::size_t gp = 0; gp < tp; ++gp)
                        out_lines[i * tp + gp] = 2.0 * lines[i * tp + gp];
            });
        EXPECT_EQ(lines, ref_lines);
        EXPECT_EQ(planes, ref_planes);
    });
}

/// The motivation in one inequality: on a latency-bound 1999 network the
/// staged sqrt(P)-wide exchanges beat the P-wide slab alltoall once P is
/// large, and the netsim cost models must reproduce that crossover.
TEST(PencilTranspose, CostModelCrossesOverAtScale) {
    const netsim::NetworkModel* fast = nullptr;
    for (const auto& n : netsim::scaling_roster())
        if (n.name.find("FastEther") != std::string::npos) fast = &n;
    ASSERT_NE(fast, nullptr);

    // Table-2-like volume: per-rank slab block of (Nq/P) * (Nz/P) doubles.
    const std::size_t nq = 2048, tp = 4096;
    const auto slab_seconds = [&](int p) {
        const std::size_t block = ((nq + p - 1) / p) * (tp / static_cast<std::size_t>(p));
        return fast->alltoall_seconds(p, block * sizeof(double));
    };
    const auto pencil_seconds = [&](int p) {
        const int rows = static_cast<int>(nektar::most_square_rows(static_cast<std::size_t>(p)));
        const int cols = p / rows;
        const std::size_t chunk = (nq + p - 1) / p;
        const std::size_t npl = tp / static_cast<std::size_t>(p);
        const std::size_t s1 = static_cast<std::size_t>(rows) * npl * chunk * sizeof(double);
        const std::size_t s2 = static_cast<std::size_t>(cols) * npl * chunk * sizeof(double);
        return fast->hierarchical_alltoall_seconds(rows, cols, s1, s2);
    };
    // Small P: the slab's single exchange wins (no staged double-shipping).
    EXPECT_LT(slab_seconds(16), pencil_seconds(16));
    // Large P: the slab's P-wide latency term loses badly.
    EXPECT_GT(slab_seconds(1024), pencil_seconds(1024));
    EXPECT_GT(slab_seconds(4096), pencil_seconds(4096));
}

} // namespace
