#include <gtest/gtest.h>

#include <cstdint>

#include "lab/pricing.hpp"
#include "machine/machine_model.hpp"
#include "nektar/workloads.hpp"

// The paper's CPU/wall-clock rule (app_model::price) and the comm price under
// it (simmpi::price), on synthetic breakdowns and logs.
namespace {

using simmpi::CommKind;

const auto kShapes = app_model::solver_shapes(1u << 20, 1u << 24);

perf::StageBreakdown breakdown(std::uint64_t pressure_flops, int steps) {
    perf::StageBreakdown bd;
    bd.steps = steps;
    bd.counts[5].flops = pressure_flops;
    bd.counts[5].bytes_read = 8 * pressure_flops;
    bd.counts[5].calls = 1;
    return bd;
}

/// Predicted compute seconds per step of `bd` on `m`.
double compute_per_step(const perf::StageBreakdown& bd, const machine::MachineModel& m) {
    const auto comp = app_model::compute_stage_seconds(bd, m, kShapes);
    double c = 0.0;
    for (std::size_t s = 1; s <= perf::kNumStages; ++s) c += comp[s];
    return c / bd.steps;
}

netsim::NetworkModel with_poll(double poll) {
    netsim::NetworkModel n = netsim::by_name("RoadRunner eth.");
    n.cpu_poll_fraction = poll;
    return n;
}

TEST(Pricing, TotalIsAFunctionOfTheEventMultiset) {
    // The same events under two stage taggings: all in the nonlinear stage,
    // or each key's count split across stages 4, 6 and 7.
    simmpi::CommLog one_stage, three_stages;
    for (std::uint64_t i = 0; i < 40; ++i) {
        const simmpi::CommEventKey key{.kind = i % 3 == 0 ? CommKind::Allreduce : CommKind::Ptp,
                                       .bytes = 8 * (3 * i * i + 7 * i + 1),
                                       .overlapped = i % 4 == 1};
        const std::uint64_t count = 3 + (i * 7) % 11;
        one_stage[2][key] = count;
        three_stages[4][key] = count / 3;
        three_stages[6][key] = count / 2 - count / 3;
        three_stages[7][key] = count - count / 2;
    }
    const auto& net = netsim::by_name("RoadRunner eth.");
    const simmpi::CommPrice a = simmpi::price(one_stage, net, 8);
    const simmpi::CommPrice b = simmpi::price(three_stages, net, 8);
    EXPECT_EQ(a.total.blocking, b.total.blocking);
    EXPECT_EQ(a.total.overlapped, b.total.overlapped);
    EXPECT_EQ(a.total.total(), b.total.total());
    EXPECT_GT(a.total.overlapped, 0.0);

    const std::vector<perf::StageBreakdown> bds = {breakdown(1000000, 2)};
    const auto& m = machine::by_name("RoadRunner");
    const auto pa = app_model::price(bds, one_stage, {}, kShapes, m, &net, 8);
    const auto pb = app_model::price(bds, three_stages, {}, kShapes, m, &net, 8);
    EXPECT_EQ(pa.comm, pb.comm);
    EXPECT_EQ(pa.cpu, pb.cpu);
    EXPECT_EQ(pa.wall, pb.wall);
}

TEST(Pricing, SlowestRankSetsWallMeanRankSetsCpu) {
    const perf::StageBreakdown light = breakdown(1000000, 2);
    const perf::StageBreakdown heavy = breakdown(3000000, 2);
    const auto& m = machine::by_name("NCSA");
    const netsim::NetworkModel net = with_poll(0.25);
    simmpi::CommLog log;
    log[5][{.kind = CommKind::Allreduce, .bytes = 8}] = 40;

    const double c_light = compute_per_step(light, m);
    const double c_heavy = compute_per_step(heavy, m);
    const double comm = simmpi::price(log, net, 2).total.total() / 2;
    ASSERT_GT(c_heavy, c_light);
    ASSERT_GT(comm, 0.0);

    const auto t = app_model::price({light, heavy}, log, {}, kShapes, m, &net, 2);
    EXPECT_DOUBLE_EQ(t.compute, 0.5 * (c_light + c_heavy));
    EXPECT_DOUBLE_EQ(t.compute_max, c_heavy);
    EXPECT_DOUBLE_EQ(t.comm, comm);
    EXPECT_DOUBLE_EQ(t.cpu, 0.5 * (c_light + c_heavy) + 0.25 * comm);
    EXPECT_DOUBLE_EQ(t.wall, c_heavy + comm);
    // The slowest rank sets the wall whichever rank it is; the stage rows
    // are rank 0's.
    const auto swapped = app_model::price({heavy, light}, log, {}, kShapes, m, &net, 2);
    EXPECT_DOUBLE_EQ(swapped.cpu, t.cpu);
    EXPECT_DOUBLE_EQ(swapped.wall, t.wall);
    EXPECT_DOUBLE_EQ(t.stages[5].compute, light.predict_stage_seconds(m, 5, kShapes[5]));
    EXPECT_DOUBLE_EQ(swapped.stages[5].compute, heavy.predict_stage_seconds(m, 5, kShapes[5]));
}

TEST(Pricing, PollingNetworkRecoversNothing) {
    simmpi::CommLog log;
    log[2][{.kind = CommKind::Alltoall, .bytes = 4096, .overlapped = true}] = 6;
    log[2][{.kind = CommKind::Alltoall, .bytes = 4096}] = 2;
    // The run hid half of its overlapped comm on the network it ran on.
    const double probe_ovl =
        simmpi::price(log, nektar::workloads::probe_net(), 4).stage(2).overlapped;
    const simmpi::OverlapLog overlap = {{2, 0.5 * probe_ovl}};
    const std::vector<perf::StageBreakdown> bds = {breakdown(1000000, 2)};
    const auto& m = machine::by_name("RoadRunner");

    const netsim::NetworkModel polling = with_poll(1.0);
    const auto p = app_model::price(bds, log, overlap, kShapes, m, &polling, 4);
    EXPECT_DOUBLE_EQ(p.hidden_fraction, 0.5);
    EXPECT_EQ(p.recovered, 0.0);
    for (std::size_t s = 1; s <= perf::kNumStages; ++s) EXPECT_EQ(p.stages[s].recovered, 0.0);
    EXPECT_EQ(p.wall, p.compute_max + p.comm);
    EXPECT_EQ(p.cpu, p.compute + p.comm);

    // A stack that frees the CPU during transfers recovers (1 - poll) of
    // the hidden share.
    const netsim::NetworkModel offload = with_poll(0.25);
    const auto o = app_model::price(bds, log, overlap, kShapes, m, &offload, 4);
    const double ovl = simmpi::price(log, offload, 4).stage(2).overlapped;
    EXPECT_DOUBLE_EQ(o.recovered, 0.5 * ovl * 0.75 / 2);
    EXPECT_DOUBLE_EQ(o.wall, o.compute_max + o.comm - o.recovered);
}

} // namespace
