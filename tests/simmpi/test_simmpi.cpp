#include "simmpi/simmpi.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

namespace {

netsim::NetworkModel test_net() {
    netsim::NetworkModel n;
    n.name = "test";
    n.latency_us = 10.0;
    n.bandwidth_mbps = 100.0;
    return n;
}

TEST(SimMpi, PingPongDeliversPayloadAndChargesTime) {
    simmpi::World world(2, test_net());
    const auto reports = world.run([](simmpi::Comm& c) {
        std::vector<double> buf = {1.0, 2.0, 3.0};
        if (c.rank() == 0) {
            c.send(1, 7, buf);
            std::vector<double> back(3);
            c.recv(1, 8, back);
            EXPECT_EQ(back[0], 2.0);
            EXPECT_EQ(back[2], 6.0);
        } else {
            std::vector<double> in(3);
            c.recv(0, 7, in);
            for (auto& v : in) v *= 2.0;
            c.send(0, 8, in);
        }
    });
    // Rank 0 waited a full round trip: wall >= 2 * one-way time.
    const double one_way = test_net().ptp_seconds(3 * sizeof(double));
    EXPECT_GE(reports[0].wall_seconds, 2.0 * one_way - 1e-12);
}

TEST(SimMpi, TagMatchingIsSelective) {
    simmpi::World world(2, test_net());
    world.run([](simmpi::Comm& c) {
        if (c.rank() == 0) {
            std::vector<double> a = {1.0}, b = {2.0};
            c.send(1, 100, a);
            c.send(1, 200, b);
        } else {
            std::vector<double> x(1);
            c.recv(0, 200, x); // out of order: must match tag 200 first
            EXPECT_EQ(x[0], 2.0);
            c.recv(0, 100, x);
            EXPECT_EQ(x[0], 1.0);
        }
    });
}

TEST(SimMpi, MatchingHoldsAcrossManyKeysAndReturningKeys) {
    // Ranks 0 and 2 each queue three messages on each of 64 tags at rank 1
    // before it receives any; rank 1 takes them tag by tag in reverse and
    // source by source, so every key drains while most others are queued.
    // Then, after an acknowledgement, new keys and drained ones come back,
    // and must still match exactly and in order.
    constexpr int kTags = 64, kSeq = 3;
    const auto value = [](int src, int tag, int seq) {
        return static_cast<double>(10000 * src + 10 * tag + seq);
    };
    simmpi::World world(3, test_net());
    world.run([&](simmpi::Comm& c) {
        std::vector<double> x(1);
        if (c.rank() != 1) {
            for (int s = 0; s < kSeq; ++s)
                for (int t = 0; t < kTags; ++t) {
                    x[0] = value(c.rank(), t, s);
                    c.send(1, t, x);
                }
            c.recv(1, 999, x);
            for (int s = 0; s < kSeq; ++s)
                for (int t : {5, 1000, 63}) {
                    x[0] = value(c.rank(), t, s);
                    c.send(1, t, x);
                }
            return;
        }
        for (int t = kTags - 1; t >= 0; --t)
            for (int src : {2, 0})
                for (int s = 0; s < kSeq; ++s) {
                    c.recv(src, t, x);
                    EXPECT_EQ(x[0], value(src, t, s)) << "src " << src << ", tag " << t;
                }
        for (int dest : {0, 2}) c.send(dest, 999, x);
        for (int t : {1000, 63, 5})
            for (int src : {0, 2})
                for (int s = 0; s < kSeq; ++s) {
                    c.recv(src, t, x);
                    EXPECT_EQ(x[0], value(src, t, s)) << "src " << src << ", tag " << t;
                }
    });
}

TEST(SimMpi, RecvSizeMismatchThrows) {
    simmpi::World world(2, test_net());
    EXPECT_THROW(world.run([](simmpi::Comm& c) {
        std::vector<double> buf(4, 0.0);
        if (c.rank() == 0) {
            c.send(1, 1, buf); // buffered send; rank 0 exits without blocking
        } else {
            std::vector<double> wrong(2); // sender shipped 4
            c.recv(0, 1, wrong);
        }
    }),
                 std::runtime_error);
}

class AlltoallP : public ::testing::TestWithParam<int> {};

TEST_P(AlltoallP, TransposesBlocks) {
    const int p = GetParam();
    simmpi::World world(p, test_net());
    world.run([p](simmpi::Comm& c) {
        const std::size_t block = 3;
        std::vector<double> send(static_cast<std::size_t>(p) * block);
        std::vector<double> recv(send.size());
        for (int j = 0; j < p; ++j)
            for (std::size_t k = 0; k < block; ++k)
                send[static_cast<std::size_t>(j) * block + k] =
                    100.0 * c.rank() + 10.0 * j + static_cast<double>(k);
        c.alltoall(send, recv, block);
        for (int j = 0; j < p; ++j)
            for (std::size_t k = 0; k < block; ++k)
                EXPECT_EQ(recv[static_cast<std::size_t>(j) * block + k],
                          100.0 * j + 10.0 * c.rank() + static_cast<double>(k));
    });
}

INSTANTIATE_TEST_SUITE_P(Ranks, AlltoallP, ::testing::Values(1, 2, 3, 4, 8));

TEST(SimMpi, AllreduceSumVectorAndScalars) {
    const int p = 5;
    simmpi::World world(p, test_net());
    world.run([p](simmpi::Comm& c) {
        std::vector<double> v = {static_cast<double>(c.rank()), 1.0};
        c.allreduce_sum(v);
        EXPECT_DOUBLE_EQ(v[0], p * (p - 1) / 2.0);
        EXPECT_DOUBLE_EQ(v[1], static_cast<double>(p));
        EXPECT_DOUBLE_EQ(c.allreduce_max(static_cast<double>(c.rank())), p - 1.0);
        EXPECT_DOUBLE_EQ(c.allreduce_min(static_cast<double>(c.rank())), 0.0);
    });
}

TEST(SimMpi, GatherAndBcast) {
    const int p = 4;
    simmpi::World world(p, test_net());
    world.run([p](simmpi::Comm& c) {
        std::vector<double> mine = {static_cast<double>(c.rank()) + 0.5};
        std::vector<double> all;
        c.gather(mine, all, 0);
        if (c.rank() == 0) {
            ASSERT_EQ(all.size(), static_cast<std::size_t>(p));
            for (int r = 0; r < p; ++r) EXPECT_DOUBLE_EQ(all[static_cast<std::size_t>(r)], r + 0.5);
        }
        std::vector<double> msg(2);
        if (c.rank() == 0) msg = {3.14, 2.71};
        c.bcast(msg, 0);
        EXPECT_DOUBLE_EQ(msg[0], 3.14);
        EXPECT_DOUBLE_EQ(msg[1], 2.71);
    });
}

TEST(SimMpi, VirtualClockMonotoneAndIdleConsistent) {
    simmpi::World world(3, test_net());
    const auto reports = world.run([](simmpi::Comm& c) {
        double prev = 0.0;
        for (int i = 0; i < 5; ++i) {
            c.advance_compute(0.001 * (c.rank() + 1));
            c.barrier();
            EXPECT_GE(c.wall_time(), prev);
            prev = c.wall_time();
        }
        EXPECT_GE(c.wall_time(), c.cpu_time() - 1e-12);
    });
    // All ranks leave the final barrier at a common wall time.
    EXPECT_NEAR(reports[0].wall_seconds, reports[1].wall_seconds, 1e-12);
    EXPECT_NEAR(reports[1].wall_seconds, reports[2].wall_seconds, 1e-12);
    // The slowest rank computed 3x the fastest; the fastest shows idle time.
    EXPECT_GT(reports[0].wall_seconds, reports[0].cpu_seconds * 0.99);
}

TEST(SimMpi, CommLogRecordsEvents) {
    simmpi::World world(2, test_net());
    const auto reports = world.run([](simmpi::Comm& c) {
        c.set_stage(2);
        std::vector<double> v(8, 1.0);
        c.alltoall(v, v, 4);
        c.set_stage(4);
        c.allreduce_sum(v);
    });
    const auto& log = reports[0].log;
    ASSERT_TRUE(log.count(2));
    ASSERT_TRUE(log.count(4));
    EXPECT_EQ(log.at(2).begin()->first.kind, simmpi::CommKind::Alltoall);
    EXPECT_EQ(log.at(2).begin()->first.bytes, 4 * sizeof(double));
    // Pricing a log is positive and scales with a slower network.
    auto fast = test_net();
    auto slow = test_net();
    slow.bandwidth_mbps = 1.0;
    slow.latency_us = 1000.0;
    const double t_fast = simmpi::price(log, fast, 2).total.total();
    const double t_slow = simmpi::price(log, slow, 2).total.total();
    EXPECT_GT(t_fast, 0.0);
    EXPECT_GT(t_slow, t_fast);
}

TEST(SimMpi, RankExceptionPropagates) {
    simmpi::World world(2, test_net());
    EXPECT_THROW(world.run([](simmpi::Comm& c) {
        if (c.rank() == 1) throw std::runtime_error("boom");
        // rank 0 does no blocking communication, so it terminates.
    }),
                 std::runtime_error);
}

TEST(SimMpi, SendRecvExchangesWithoutDeadlock) {
    const int p = 6;
    simmpi::World world(p, test_net());
    world.run([p](simmpi::Comm& c) {
        // Ring exchange: both sends are posted (buffered) before either recv,
        // so the cycle of dependencies never blocks.
        const int left = (c.rank() + p - 1) % p;
        const int right = (c.rank() + 1) % p;
        std::vector<double> mine = {static_cast<double>(c.rank())};
        std::vector<double> from_left(1), from_right(1);
        c.send(right, 5, mine);  // travels clockwise, received as "from left"
        c.send(left, 6, mine);   // travels anticlockwise
        c.recv(left, 5, from_left);
        c.recv(right, 6, from_right);
        EXPECT_DOUBLE_EQ(from_right[0], right);
        EXPECT_DOUBLE_EQ(from_left[0], left);
    });
}

} // namespace
