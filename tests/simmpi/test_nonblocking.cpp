#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "simmpi/simmpi.hpp"

/// Nonblocking point-to-point semantics: payload integrity, honest
/// virtual-clock overlap accounting (cost accrues in the background, only the
/// uncovered remainder becomes idle), NIC serialization of consecutive posts,
/// and loud failure on leaked requests.
namespace {

netsim::NetworkModel net() {
    netsim::NetworkModel n;
    n.name = "nonblocking";
    n.latency_us = 10.0;
    n.bandwidth_mbps = 100.0;
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

netsim::NetworkModel faulty_net(std::uint64_t seed) {
    netsim::NetworkModel n = net();
    n.fault.seed = seed;
    n.fault.latency_jitter_us = 80.0;
    n.fault.loss_probability = 0.05;
    n.fault.retransmit_timeout_us = 300.0;
    n.fault.degrade_probability = 0.02;
    n.fault.degrade_factor = 3.0;
    n.fault.straggler_fraction = 0.3;
    n.fault.straggler_factor = 2.5;
    return n;
}

TEST(Nonblocking, RingExchangeDeliversPayloads) {
    for (int p : {2, 3, 4, 8}) {
        simmpi::World world(p, net());
        world.run([&](simmpi::Comm& c) {
            const int next = (c.rank() + 1) % p;
            const int prev = (c.rank() + p - 1) % p;
            std::vector<double> out(33), in(33);
            for (std::size_t i = 0; i < out.size(); ++i)
                out[i] = 100.0 * c.rank() + static_cast<double>(i);
            std::vector<simmpi::Request> reqs;
            reqs.push_back(c.irecv(prev, 11, in));
            reqs.push_back(c.isend(next, 11, out));
            c.waitall(reqs);
            for (std::size_t i = 0; i < in.size(); ++i)
                ASSERT_EQ(in[i], 100.0 * prev + static_cast<double>(i));
        });
    }
}

TEST(Nonblocking, ComputeBetweenPostAndWaitIsCreditedAsOverlap) {
    simmpi::World world(2, net());
    const std::size_t n = 1000;
    const double cost = net().ptp_seconds(n * sizeof(double));
    const auto reports = world.run([&](simmpi::Comm& c) {
        std::vector<double> buf(n, static_cast<double>(c.rank()));
        if (c.rank() == 0) {
            simmpi::Request r = c.isend(1, 5, buf);
            EXPECT_TRUE(r.done());
        } else {
            c.set_stage(3);
            simmpi::Request r = c.irecv(0, 5, buf);
            // Work for longer than the whole transfer window: the wait must
            // cost no idle time and credit the full transfer to the overlap
            // log of the active stage.
            c.advance_compute(10.0 * cost);
            const double wall_before = c.wall_time();
            c.wait(r);
            EXPECT_DOUBLE_EQ(c.wall_time(), wall_before);
            EXPECT_DOUBLE_EQ(hidden_total(c), cost);
            ASSERT_TRUE(c.overlap_log().count(3));
            EXPECT_DOUBLE_EQ(c.overlap_log().at(3), cost);
        }
    });
    EXPECT_DOUBLE_EQ(reports[1].overlap_log.at(3), cost);
    EXPECT_TRUE(reports[0].overlap_log.empty());
}

TEST(Nonblocking, UncoveredTransferSurfacesAsIdleNotOverlap) {
    simmpi::World world(2, net());
    const std::size_t n = 1000;
    const double cost = net().ptp_seconds(n * sizeof(double));
    world.run([&](simmpi::Comm& c) {
        std::vector<double> buf(n, 1.0);
        if (c.rank() == 0) {
            c.isend(1, 5, buf);
        } else {
            simmpi::Request r = c.irecv(0, 5, buf);
            c.wait(r); // no compute since the post: nothing was hidden
            EXPECT_DOUBLE_EQ(c.wall_time(), cost);
            EXPECT_DOUBLE_EQ(hidden_total(c), 0.0);
        }
    });
}

TEST(Nonblocking, ConsecutivePostsSerializeOnTheSendersNic) {
    simmpi::World world(2, net());
    const std::size_t n = 1000;
    const double cost = net().ptp_seconds(n * sizeof(double));
    world.run([&](simmpi::Comm& c) {
        std::vector<double> a(n, 1.0), b(n, 2.0);
        if (c.rank() == 0) {
            c.isend(1, 1, a);
            c.isend(1, 2, b);
        } else {
            simmpi::Request r1 = c.irecv(0, 1, a);
            simmpi::Request r2 = c.irecv(0, 2, b);
            c.wait(r1);
            c.wait(r2);
            // The second transfer queued behind the first on rank 0's NIC:
            // total wall is two serialized transfers, not one.
            EXPECT_GE(c.wall_time(), 2.0 * cost);
        }
    });
}

TEST(Nonblocking, WaitOnEmptyOrMovedRequestThrows) {
    simmpi::World world(2, net());
    world.run([&](simmpi::Comm& c) {
        simmpi::Request empty;
        EXPECT_FALSE(empty.valid());
        EXPECT_THROW(c.wait(empty), std::runtime_error);
        std::vector<double> buf(1, 1.0);
        if (c.rank() == 0) {
            c.isend(1, 4, buf);
        } else {
            simmpi::Request r = c.irecv(0, 4, buf);
            simmpi::Request moved = std::move(r);
            EXPECT_FALSE(r.valid()); // NOLINT(bugprone-use-after-move): probed on purpose
            EXPECT_THROW(c.wait(r), std::runtime_error);
            c.wait(moved);
            c.wait(moved); // completed: a second wait is a no-op
        }
    });
}

TEST(Nonblocking, SizeMismatchFailsLoudly) {
    simmpi::World world(2, net());
    EXPECT_THROW(world.run([](simmpi::Comm& c) {
                     std::vector<double> buf(8, 1.0);
                     if (c.rank() == 0) {
                         c.isend(1, 2, buf);
                     } else {
                         std::vector<double> wrong(4);
                         simmpi::Request r = c.irecv(0, 2, wrong);
                         c.wait(r);
                     }
                 }),
                 std::runtime_error);
}

TEST(Nonblocking, LeakedRequestIsReportedAtRankExit) {
    simmpi::World world(2, net());
    try {
        world.run([](simmpi::Comm& c) {
            std::vector<double> buf(3, 1.0);
            if (c.rank() == 0) {
                c.isend(1, 6, buf);
            } else {
                simmpi::Request r = c.irecv(0, 6, buf);
                (void)r; // never waited on
                EXPECT_EQ(c.pending_requests(), 1);
            }
        });
        FAIL() << "expected the pending-request check to throw";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("pending"), std::string::npos);
    }
}

TEST(Nonblocking, FaultSeedsStretchClocksButNeverPayloads) {
    for (std::uint64_t seed : {1ull, 42ull, 20260807ull}) {
        simmpi::World world(4, faulty_net(seed));
        const auto reports = world.run([&](simmpi::Comm& c) {
            const int p = c.size();
            const int next = (c.rank() + 1) % p;
            const int prev = (c.rank() + p - 1) % p;
            for (int round = 0; round < 3; ++round) {
                std::vector<double> out(257), in(257);
                for (std::size_t i = 0; i < out.size(); ++i)
                    out[i] = c.rank() * 1000.0 + round * 300.0 + static_cast<double>(i);
                simmpi::Request r = c.irecv(prev, round, in);
                c.isend(next, round, out);
                c.advance_compute(1e-5);
                c.wait(r);
                for (std::size_t i = 0; i < in.size(); ++i)
                    ASSERT_EQ(in[i], prev * 1000.0 + round * 300.0 + static_cast<double>(i));
            }
        });
        for (const auto& rep : reports) {
            EXPECT_FALSE(rep.fault_log.empty());
            EXPECT_GE(rep.wall_seconds, rep.cpu_seconds - 1e-15);
        }
    }
}

TEST(Nonblocking, OverlappedEventsAreFlaggedInTheCommLogAndPricedSeparately) {
    simmpi::World world(2, net());
    const std::size_t n = 64;
    const auto reports = world.run([&](simmpi::Comm& c) {
        std::vector<double> buf(n, 1.0), in(n);
        // One blocking and one nonblocking message of the same size.
        if (c.rank() == 0) {
            c.send(1, 1, buf);
            c.isend(1, 2, buf);
        } else {
            c.recv(0, 1, in);
            simmpi::Request r = c.irecv(0, 2, in);
            c.wait(r);
        }
    });
    const simmpi::CommPrice priced = simmpi::price(reports[0].log, net(), 2);
    const double one = net().ptp_seconds(n * sizeof(double));
    EXPECT_DOUBLE_EQ(priced.total.blocking, one);
    EXPECT_DOUBLE_EQ(priced.total.overlapped, one);
    double stages = 0.0;
    for (const auto& [stage, split] : priced.stages) stages += split.total();
    EXPECT_DOUBLE_EQ(priced.total.total(), stages);
}

} // namespace
