#include "netsim/netmodel.hpp"

#include <gtest/gtest.h>

namespace {

using netsim::alltoall_roster;
using netsim::by_name;
using netsim::pingpong_roster;

TEST(NetModel, RostersHaveThePaperConfigurations) {
    EXPECT_EQ(pingpong_roster().size(), 12u); // Figure 7 legend
    EXPECT_GE(alltoall_roster().size(), 9u);  // Figure 8 legend (+ HITACHI)
    EXPECT_NO_THROW((void)by_name("Muses, LAM"));
    EXPECT_NO_THROW((void)by_name("RoadRunner myr."));
    EXPECT_THROW((void)by_name("Infiniband"), std::out_of_range);
}

TEST(NetModel, PtpTimeIsMonotoneInSize) {
    for (const auto& n : pingpong_roster()) {
        double prev = 0.0;
        for (std::size_t m : {1u, 64u, 4096u, 65536u, 1u << 20}) {
            const double t = n.ptp_seconds(m);
            EXPECT_GT(t, prev) << n.name << " m=" << m;
            prev = t;
        }
    }
}

TEST(NetModel, BandwidthApproachesAsymptote) {
    for (const auto& n : pingpong_roster()) {
        const double bw = n.pingpong_bandwidth_mbps(64 << 20);
        EXPECT_GT(bw, 0.6 * n.bandwidth_mbps * n.large_msg_factor) << n.name;
        EXPECT_LE(bw, n.bandwidth_mbps + 1e-9) << n.name;
    }
}

TEST(NetModel, Figure7Shape_LatencyOrdering) {
    // "The latency numbers for Muses are low enough to be competitive with
    // some of the supercomputers"; RoadRunner ethernet produces "high latency
    // ... compared to Muses and the other systems"; T3E lowest.
    const double t3e = by_name("T3E").latency_us;
    const double muses = by_name("Muses, LAM").latency_us;
    const double rr_eth = by_name("R.Run, eth.-internode").latency_us;
    const double rr_myr = by_name("R.Run, myr.-internode").latency_us;
    EXPECT_LT(t3e, muses);
    EXPECT_LT(muses, rr_eth);
    EXPECT_LT(rr_myr, muses);
    // Myrinet latency comparable to the SP2-Silver nodes.
    EXPECT_NEAR(rr_myr, by_name("SP2-Silver, internode").latency_us, 10.0);
}

TEST(NetModel, Figure7Shape_EthernetBandwidthCapped) {
    // Fast Ethernet peaks near 12.5 MB/s; the PC cluster must sit below that
    // and far below the supercomputer networks.
    for (const char* n : {"Muses, MPICH", "Muses, LAM", "R.Run, eth.-internode"}) {
        EXPECT_LT(by_name(n).bandwidth_mbps, 12.5) << n;
    }
    EXPECT_GT(by_name("T3E").pingpong_bandwidth_mbps(1 << 20),
              10.0 * by_name("Muses, LAM").pingpong_bandwidth_mbps(1 << 20));
}

TEST(NetModel, Figure8Shape_T3EAlltoallWellAboveTheRest) {
    // "Apart from the T3E, which is 3 times higher than the rest..."
    const double t3e = by_name("T3E").alltoall_bandwidth_mbps(8, 1 << 20);
    for (const auto& n : alltoall_roster()) {
        if (n.name == "T3E" || n.name == "HITACHI") continue;
        EXPECT_GT(t3e, 2.5 * n.alltoall_bandwidth_mbps(8, 1 << 20)) << n.name;
    }
}

TEST(NetModel, Figure8Shape_MyrinetBetweenThin2AndNcsa) {
    // "the myrinet network has a slightly higher bandwidth than the IBM SP2
    // Thin2 nodes and slightly lower than the NCSA Origin 2000."
    const double myr = by_name("RoadRunner myr.").alltoall_bandwidth_mbps(8, 512 * 1024);
    const double thin2 = by_name("SP2-thin2").alltoall_bandwidth_mbps(8, 512 * 1024);
    const double ncsa = by_name("NCSA").alltoall_bandwidth_mbps(8, 512 * 1024);
    EXPECT_GT(myr, thin2);
    EXPECT_LT(myr, ncsa);
}

TEST(NetModel, SharedEthernetAlltoallCollapsesWithP) {
    // The shared wire serialises all-pairs traffic: per-process average
    // bandwidth must *fall* as ranks are added.
    const auto& eth = by_name("RoadRunner eth.");
    const double p4 = eth.alltoall_bandwidth_mbps(4, 64 * 1024);
    const double p8 = eth.alltoall_bandwidth_mbps(8, 64 * 1024);
    EXPECT_LT(p8, p4);
    // A switched fabric holds its per-process bandwidth far better.
    const auto& t3e = by_name("T3E");
    const double s4 = t3e.alltoall_bandwidth_mbps(4, 64 * 1024);
    const double s8 = t3e.alltoall_bandwidth_mbps(8, 64 * 1024);
    EXPECT_GT(s8, 0.7 * s4);
}

TEST(NetModel, HitachiAlltoallFloor) {
    // Paper: minimum recorded Alltoall bandwidth of 450 MB/s on the SR8000.
    EXPECT_GT(by_name("HITACHI").alltoall_bandwidth_mbps(8, 6'400'000), 450.0);
}

TEST(NetModel, CollectiveCostsScaleWithP) {
    const auto& n = by_name("SP2-Silver internode");
    EXPECT_LT(n.alltoall_seconds(2, 4096), n.alltoall_seconds(8, 4096));
    EXPECT_LT(n.allreduce_seconds(2, 4096), n.allreduce_seconds(16, 4096));
    EXPECT_LT(n.barrier_seconds(2), n.barrier_seconds(32));
    EXPECT_EQ(n.alltoall_seconds(1, 4096), 0.0);
}

TEST(NetModel, BruckBeatsPairwiseOnlyAtSmallSizesOnHighLatencyLinks) {
    const auto& muses = by_name("Muses, LAM");
    // Small messages: fewer rounds win on a 75 us-latency link.
    EXPECT_LT(muses.alltoall_seconds_bruck(16, 8), muses.alltoall_seconds(16, 8));
    // Large messages: pairwise ships each byte once and wins.
    EXPECT_GT(muses.alltoall_seconds_bruck(16, 1 << 20),
              muses.alltoall_seconds(16, 1 << 20));
    // Low-latency fabric: pairwise wins everywhere but tiny sizes at most.
    const auto& t3e = by_name("T3E");
    EXPECT_GT(t3e.alltoall_seconds_bruck(16, 64 * 1024),
              t3e.alltoall_seconds(16, 64 * 1024));
}

TEST(NetModel, BruckMonotoneInSizeAndRanks) {
    const auto& net = by_name("RoadRunner myr.");
    EXPECT_LT(net.alltoall_seconds_bruck(8, 1024), net.alltoall_seconds_bruck(8, 65536));
    EXPECT_LT(net.alltoall_seconds_bruck(4, 1024), net.alltoall_seconds_bruck(32, 1024));
    EXPECT_EQ(net.alltoall_seconds_bruck(1, 1024), 0.0);
}

} // namespace
