#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "simmpi/simmpi.hpp"

/// The documented failure semantics — "a missing send deadlocks, a wrong tag
/// fails loudly" — must fail within a bounded watchdog time, not hang the
/// test harness.  These tests use a short watchdog and assert both the error
/// type and the bounded host time.
namespace {

netsim::NetworkModel net() {
    netsim::NetworkModel n;
    n.name = "watchdog";
    n.latency_us = 10.0;
    n.bandwidth_mbps = 100.0;
    return n;
}

double host_seconds(const std::function<void()>& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

TEST(Watchdog, MissingSendFailsWithinBoundedTime) {
    simmpi::World world(2, net());
    world.set_watchdog_seconds(0.2);
    const double t = host_seconds([&] {
        EXPECT_THROW(world.run([](simmpi::Comm& c) {
                         if (c.rank() == 1) {
                             std::vector<double> buf(1);
                             c.recv(0, 9, buf); // rank 0 never sends
                         }
                     }),
                     simmpi::DeadlockError);
    });
    EXPECT_LT(t, 5.0);
}

TEST(Watchdog, WrongTagFailsLoudlyInsteadOfHanging) {
    simmpi::World world(2, net());
    world.set_watchdog_seconds(0.2);
    EXPECT_THROW(world.run([](simmpi::Comm& c) {
                     std::vector<double> buf(1, 1.0);
                     if (c.rank() == 0) {
                         c.send(1, 100, buf);
                     } else {
                         c.recv(0, 200, buf); // tag mismatch: never matches
                     }
                 }),
                 simmpi::DeadlockError);
}

TEST(Watchdog, AbsentCollectivePartnerTripsRendezvousWatchdog) {
    simmpi::World world(3, net());
    world.set_watchdog_seconds(0.2);
    const double t = host_seconds([&] {
        EXPECT_THROW(world.run([](simmpi::Comm& c) {
                         if (c.rank() != 2) c.barrier(); // rank 2 never arrives
                     }),
                     simmpi::DeadlockError);
    });
    EXPECT_LT(t, 5.0);
}

TEST(Watchdog, RankExceptionReleasesBlockedPeers) {
    // A rank that throws must wake peers blocked in recv/collectives: the
    // original error propagates promptly instead of waiting out the watchdog
    // (or, before the abort machinery existed, hanging forever).
    simmpi::World world(4, net());
    world.set_watchdog_seconds(10.0);
    const double t = host_seconds([&] {
        try {
            world.run([](simmpi::Comm& c) {
                if (c.rank() == 0) throw std::runtime_error("boom");
                std::vector<double> buf(1);
                if (c.rank() == 1) c.recv(0, 1, buf); // blocked in the mailbox
                if (c.rank() > 1) c.barrier();        // blocked in the rendezvous
            });
            FAIL() << "expected an exception";
        } catch (const simmpi::DeadlockError&) {
            FAIL() << "the original error must win, not the watchdog";
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "boom");
        }
    });
    EXPECT_LT(t, 5.0); // far below the 10 s watchdog: peers were woken, not timed out
}

TEST(Watchdog, WaitOnANeverCompletedRequestTripsTheWatchdog) {
    simmpi::World world(2, net());
    world.set_watchdog_seconds(0.2);
    const double t = host_seconds([&] {
        EXPECT_THROW(world.run([](simmpi::Comm& c) {
                         if (c.rank() == 1) {
                             std::vector<double> buf(4);
                             simmpi::Request r = c.irecv(0, 7, buf);
                             c.wait(r); // rank 0 never isends
                         }
                     }),
                     simmpi::DeadlockError);
    });
    EXPECT_LT(t, 5.0);
}

TEST(Watchdog, WorldIsReusableAfterADeadlock) {
    simmpi::World world(2, net());
    world.set_watchdog_seconds(0.2);
    EXPECT_THROW(world.run([](simmpi::Comm& c) {
                     std::vector<double> buf(1);
                     if (c.rank() == 1) c.recv(0, 3, buf);
                 }),
                 simmpi::DeadlockError);
    // The same world must run healthy traffic afterwards.
    const auto reports = world.run([](simmpi::Comm& c) {
        std::vector<double> buf(1, static_cast<double>(c.rank()));
        c.allreduce_sum(buf);
        EXPECT_DOUBLE_EQ(buf[0], 1.0);
        c.barrier();
    });
    EXPECT_EQ(reports.size(), 2u);
    EXPECT_GT(reports[0].wall_seconds, 0.0);
}

TEST(Watchdog, DefaultWatchdogIsGenerousButFinite) {
    simmpi::World world(2, net());
    EXPECT_GT(world.watchdog_seconds(), 1.0);
    EXPECT_LT(world.watchdog_seconds(), 600.0);
}

} // namespace
