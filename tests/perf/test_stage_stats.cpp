#include "perf/stage_stats.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "blaslite/blas.hpp"

namespace {

using perf::StageBreakdown;
using perf::StageScope;
using perf::StageShape;

TEST(StageStats, ScopeCapturesKernelCounts) {
    StageBreakdown bd;
    std::vector<double> x(100, 1.0), y(100, 2.0);
    {
        StageScope scope(bd, 3);
        blaslite::daxpy(1.5, x, y);
    }
    EXPECT_EQ(bd.counts[3].flops, 200u);
    EXPECT_EQ(bd.counts[3].calls, 1u);
    EXPECT_GT(bd.host_seconds[3], 0.0);
    EXPECT_EQ(bd.counts[2].flops, 0u);
}

TEST(StageStats, AccumulationAcrossScopes) {
    StageBreakdown bd;
    std::vector<double> x(50, 1.0), y(50, 0.0);
    for (int i = 0; i < 4; ++i) {
        StageScope scope(bd, 1);
        blaslite::dcopy(x, y);
    }
    EXPECT_EQ(bd.counts[1].calls, 4u);
    EXPECT_EQ(bd.counts[1].bytes_read, 4u * 50 * sizeof(double));
}

TEST(StageStats, PlusEqualsMergesEverything) {
    StageBreakdown a, b;
    a.counts[2].flops = 10;
    a.steps = 1;
    b.counts[2].flops = 5;
    b.counts[7].flops = 7;
    b.steps = 2;
    a += b;
    EXPECT_EQ(a.counts[2].flops, 15u);
    EXPECT_EQ(a.counts[7].flops, 7u);
    EXPECT_EQ(a.steps, 3);
    EXPECT_EQ(a.total_counts().flops, 22u);
}

TEST(StageStats, PredictionScalesWithMachineSpeed) {
    StageBreakdown bd;
    bd.counts[5].flops = 1'000'000;
    bd.counts[5].bytes_read = 8'000'000;
    StageShape shape{.working_set_bytes = 1u << 30, .compute_efficiency = 0.6};
    const double pc = bd.predict_stage_seconds(machine::by_name("Muses"), 5, shape);
    const double t3e = bd.predict_stage_seconds(machine::by_name("T3E"), 5, shape);
    EXPECT_GT(pc, 0.0);
    EXPECT_LT(t3e, pc); // streaming T3E beats the PC when not latency-bound
}

TEST(StageStats, LatencyBoundShapeChangesTheOrdering) {
    // The Table 1 mechanism: with chained access, the T3E's advantage
    // collapses to roughly parity with the PC.
    StageBreakdown bd;
    bd.counts[7].flops = 100'000;
    bd.counts[7].bytes_read = 80'000'000;
    StageShape stream{.working_set_bytes = 1u << 30, .compute_efficiency = 0.6};
    StageShape chained = stream;
    chained.latency_bound = true;
    const auto& pc = machine::by_name("Muses");
    const auto& t3e = machine::by_name("T3E");
    const double ratio_stream = bd.predict_stage_seconds(t3e, 7, stream) /
                                bd.predict_stage_seconds(pc, 7, stream);
    const double ratio_chained = bd.predict_stage_seconds(t3e, 7, chained) /
                                 bd.predict_stage_seconds(pc, 7, chained);
    EXPECT_LT(ratio_stream, 0.5);    // T3E far ahead when streaming
    EXPECT_GT(ratio_chained, 0.9);   // near-parity when chained
}

TEST(StageStats, CallOverheadAddsUp) {
    StageBreakdown few, many;
    few.counts[2].flops = many.counts[2].flops = 1000;
    few.counts[2].calls = 1;
    many.counts[2].calls = 10'000;
    StageShape shape;
    const auto& slow_clock = machine::by_name("SP2-Thin2"); // 66 MHz
    EXPECT_GT(many.predict_stage_seconds(slow_clock, 2, shape),
              10.0 * few.predict_stage_seconds(slow_clock, 2, shape));
}

TEST(StageStats, StageNamesMatchThePaper) {
    EXPECT_NE(perf::stage_name(1).find("transform"), std::string::npos);
    EXPECT_NE(perf::stage_name(2).find("nonlinear"), std::string::npos);
    EXPECT_NE(perf::stage_name(5).find("Poisson"), std::string::npos);
    EXPECT_NE(perf::stage_name(7).find("Helmholtz"), std::string::npos);
    EXPECT_EQ(perf::stage_name(99), "unknown");
}

TEST(StageStats, ShortNamesCoverEveryStage) {
    for (std::size_t s = 1; s <= perf::kNumStages; ++s) {
        EXPECT_NE(perf::stage_short_name(s), "unknown");
        EXPECT_LE(perf::stage_short_name(s).size(), 12u); // fits table columns
    }
    EXPECT_EQ(perf::stage_short_name(0), "unknown");
    EXPECT_EQ(perf::stage_short_name(8), "unknown");
}

TEST(StageStats, GroupsPartitionTheStagesLikeFigures15And16) {
    using perf::StageGroup;
    // Setup is stages 1-4 and 6, the pressure solve 5, the viscous solve 7.
    for (std::size_t s = 1; s <= perf::kNumStages; ++s)
        EXPECT_EQ(perf::stage_group(s), s == 5   ? StageGroup::PressureSolve
                                        : s == 7 ? StageGroup::ViscousSolve
                                                 : StageGroup::Setup)
            << "stage " << s;
    EXPECT_EQ(perf::stage_group_label(StageGroup::Setup), "a");
    EXPECT_EQ(perf::stage_group_label(StageGroup::PressureSolve), "b");
    EXPECT_EQ(perf::stage_group_label(StageGroup::ViscousSolve), "c");
}

TEST(StageStats, ThreadLocalCountersAreIndependent) {
    StageBreakdown main_bd;
    std::vector<double> x(64, 1.0), y(64, 0.0);
    StageScope scope(main_bd, 4);
    std::thread t([&] {
        // Work on another thread must not leak into this scope.
        std::vector<double> a(1000, 1.0), b(1000, 0.0);
        for (int i = 0; i < 100; ++i) blaslite::daxpy(1.0, a, b);
    });
    blaslite::dcopy(x, y);
    t.join();
    // Destructor runs at end of scope; check counts via a fresh breakdown.
    StageBreakdown probe;
    {
        StageScope s2(probe, 1);
        blaslite::dcopy(x, y);
    }
    EXPECT_EQ(probe.counts[1].calls, 1u);
}

} // namespace
