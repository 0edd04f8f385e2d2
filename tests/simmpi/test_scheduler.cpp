#include "simmpi/simmpi.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/thread_pool.hpp"

/// The fiber scheduler every simmpi rank runs on: virtual clocks and logs
/// pinned to recorded digests, determinism at hundreds and thousands of
/// ranks, exact quiescence deadlock detection, the abort path that unwinds
/// parked ranks, and the oversubscription diagnostics.
namespace {

netsim::NetworkModel test_net() {
    netsim::NetworkModel n;
    n.name = "test";
    n.latency_us = 10.0;
    n.bandwidth_mbps = 100.0;
    return n;
}

/// A comm-heavy rank program touching every parking path: ring ptp (mailbox
/// park), collectives (rendezvous park), nonblocking completion, and a split
/// so subcommunicator rendezvous runs under the scheduler too.
void mixed_program(simmpi::Comm& c) {
    const int p = c.size();
    const int r = c.rank();
    std::vector<double> token = {static_cast<double>(r), 0.0};
    std::vector<double> in(2);
    for (int round = 0; round < 3; ++round) {
        c.advance_compute(1e-6 * static_cast<double>(r % 5));
        if (r % 2 == 0) {
            c.send((r + 1) % p, round, token);
            c.recv((r + p - 1) % p, round, in);
        } else {
            c.recv((r + p - 1) % p, round, in);
            c.send((r + 1) % p, round, token);
        }
        token[1] += in[0];
    }
    double sum = c.allreduce_sum(token[1]);
    simmpi::Comm half = c.split(r < p / 2 ? 0 : 1, r);
    sum += half.allreduce_max(static_cast<double>(r));
    std::vector<double> send(static_cast<std::size_t>(half.size()), sum);
    std::vector<double> recv(send.size());
    half.alltoall(send, recv, 1);
    c.barrier();
    c.advance_compute(1e-9 * std::accumulate(recv.begin(), recv.end(), 0.0));
}

std::vector<simmpi::RankReport> run_mixed(int p) {
    simmpi::World world(p, test_net());
    return world.run(mixed_program);
}

/// FNV-1a over little-endian bytes.
struct Fnv {
    std::uint64_t h = 0xcbf29ce484222325ull;
    void bytes(std::uint64_t v, int n) {
        for (int i = 0; i < n; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 1099511628211ull;
        }
    }
    void real(double v) {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        bytes(bits, 8);
    }
    void stage(int s) { bytes(static_cast<std::uint64_t>(static_cast<std::int64_t>(s)), 8); }
};

/// The bit patterns of every rank's clocks: one word capturing the full
/// virtual timing of a run.
std::uint64_t run_digest(const std::vector<simmpi::RankReport>& reports) {
    Fnv f;
    for (const auto& r : reports) {
        f.real(r.cpu_seconds);
        f.real(r.wall_seconds);
    }
    return f.h;
}

/// run_digest plus every rank's CommLog and OverlapLog, field by field.
std::uint64_t report_digest(const std::vector<simmpi::RankReport>& reports) {
    Fnv f;
    for (const auto& r : reports) {
        f.real(r.cpu_seconds);
        f.real(r.wall_seconds);
        for (const auto& [stage, events] : r.log) {
            f.stage(stage);
            for (const auto& [key, count] : events) {
                f.bytes(static_cast<std::uint64_t>(key.kind), 1);
                f.bytes(key.bytes, 8);
                f.bytes(key.overlapped ? 1u : 0u, 1);
                f.bytes(key.group, 4);
                f.bytes(key.groups, 4);
                f.bytes(count, 8);
            }
        }
        for (const auto& [stage, seconds] : r.overlap_log) {
            f.stage(stage);
            f.real(seconds);
        }
    }
    return f.h;
}

TEST(TaskScheduler, MixedProgramMatchesPinnedDigests) {
    // Recorded when simmpi still had a one-OS-thread-per-rank engine next to
    // the fiber scheduler; both engines produced exactly these values, so
    // the scheduler's virtual clocks and logs are pinned to that reference.
    struct Pin {
        int p;
        std::uint64_t clocks;
        std::uint64_t full;
    };
    for (const Pin& pin : {Pin{2, 0x6aa3b132159a24fdull, 0x02b1d07617874b6dull},
                           Pin{4, 0xa982062c64cce39dull, 0x7c481e4cf5cf3b6dull},
                           Pin{6, 0xa9779d0e4db01a41ull, 0x35b8d31029990c41ull},
                           Pin{16, 0xc1c7ed8b38a3db65ull, 0x1231ddb3129d4b25ull}}) {
        const auto reports = run_mixed(pin.p);
        ASSERT_EQ(reports.size(), static_cast<std::size_t>(pin.p));
        EXPECT_EQ(run_digest(reports), pin.clocks) << "p=" << pin.p;
        EXPECT_EQ(report_digest(reports), pin.full) << "p=" << pin.p;
    }
}

TEST(TaskScheduler, TwoHundredFiftySixRanksAreDeterministic) {
    // A rank count one OS thread per rank would strain on most hosts; the
    // scheduler must both complete it and reproduce it bit-for-bit.
    const auto a = run_mixed(256);
    const auto b = run_mixed(256);
    ASSERT_EQ(a.size(), 256u);
    EXPECT_EQ(run_digest(a), run_digest(b));
    for (int r = 0; r < 256; ++r)
        EXPECT_EQ(a[static_cast<std::size_t>(r)].log, b[static_cast<std::size_t>(r)].log);
}

/// Sets the global pool's size for one scope.
struct PoolThreads {
    explicit PoolThreads(unsigned n) : before(parallel::num_threads()) {
        parallel::set_num_threads(n);
    }
    ~PoolThreads() { parallel::set_num_threads(before); }
    unsigned before;
};

/// Spins the calling rank's worker (yielding) until `done()`, or 30 s of
/// host time as a backstop.
template <class Pred>
void spin_until(Pred done) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!done() && std::chrono::steady_clock::now() < deadline) std::this_thread::yield();
}

TEST(TaskScheduler, TaskTStartsOnWorkerTModW) {
    // Eight ranks over four workers: two per thread, ranks r and r + 4
    // together, whatever the threads' timing.  Ranks 0-3 hold their worker
    // (no park) until all four have started, so no worker can be idle with
    // another's task still unstarted.
    const PoolThreads pool(4);
    constexpr int kRanks = 8;
    std::atomic<int> started{0};
    std::vector<std::thread::id> first(kRanks), last(kRanks);
    simmpi::World world(kRanks, test_net());
    world.run([&](simmpi::Comm& c) {
        const auto r = static_cast<std::size_t>(c.rank());
        first[r] = std::this_thread::get_id();
        started.fetch_add(1);
        if (c.rank() < 4) spin_until([&] { return started.load() >= 4; });
        mixed_program(c);
        last[r] = std::this_thread::get_id();
    });
    EXPECT_EQ(first[0], std::this_thread::get_id()); // the caller is worker 0
    EXPECT_EQ(std::set<std::thread::id>(first.begin(), first.begin() + 4).size(), 4u);
    for (int r = 0; r < kRanks; ++r) {
        const auto i = static_cast<std::size_t>(r);
        EXPECT_EQ(first[i], first[i % 4]) << "rank " << r;
        EXPECT_EQ(last[i], first[i]) << "rank " << r; // continuation affinity
    }
}

TEST(TaskScheduler, RanksThatParkAtOnceStillStartOnTheirOwnThreads) {
    // Six ranks park in split() right after the pool is rebuilt, while most
    // of its threads have not yet picked up their worker loop.  Each late
    // thread must still start its own rank: a worker that finds nothing to
    // run waits for it rather than adopting it.
    const PoolThreads pool(6);
    constexpr int kRanks = 6;
    std::vector<std::thread::id> first(kRanks), last(kRanks);
    simmpi::World world(kRanks, test_net());
    world.run([&](simmpi::Comm& c) {
        const auto r = static_cast<std::size_t>(c.rank());
        first[r] = std::this_thread::get_id();
        simmpi::Comm half = c.split(c.rank() % 2, c.rank());
        half.barrier();
        last[r] = std::this_thread::get_id();
    });
    EXPECT_EQ(first[0], std::this_thread::get_id()); // the caller is worker 0
    EXPECT_EQ(std::set<std::thread::id>(first.begin(), first.end()).size(), 6u);
    for (std::size_t r = 0; r < kRanks; ++r) EXPECT_EQ(last[r], first[r]) << "rank " << r;
}

TEST(TaskScheduler, CompletesWhenThePoolRunsTheWorkersInline) {
    // A run started inside a parallel_for body gets its worker loops run
    // one after another on the calling thread: worker 0 must start the
    // other workers' tasks itself, and the clocks must not change.
    const auto reference = run_mixed(8);
    const PoolThreads pool(4);
    std::vector<simmpi::RankReport> inline_run;
    parallel::pool().parallel_for(2, [&](std::size_t b, std::size_t) {
        if (b == 0) inline_run = run_mixed(8);
    });
    ASSERT_EQ(inline_run.size(), reference.size());
    EXPECT_EQ(run_digest(inline_run), run_digest(reference));
    for (std::size_t r = 0; r < reference.size(); ++r)
        EXPECT_EQ(inline_run[r].log, reference[r].log) << "rank " << r;
}

TEST(TaskScheduler, QuiescenceDetectsMissingSendExactly) {
    // Rank 1 waits for a message nobody sends.  This is caught by the
    // scheduler's exact quiescence check (no runnable task, one parked), not
    // a timeout, so it fires immediately.
    simmpi::World world(2, test_net());
    EXPECT_THROW(world.run([](simmpi::Comm& c) {
        if (c.rank() == 1) {
            std::vector<double> buf(1);
            c.recv(0, 42, buf);
        }
    }),
                 simmpi::DeadlockError);
}

TEST(TaskScheduler, WrongTagFailsLoudlyInsteadOfHanging) {
    simmpi::World world(2, test_net());
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

TEST(TaskScheduler, QuiescenceDetectsANeverCompletedWait) {
    simmpi::World world(2, test_net());
    EXPECT_THROW(world.run([](simmpi::Comm& c) {
        if (c.rank() == 1) {
            std::vector<double> buf(4);
            simmpi::Request r = c.irecv(0, 7, buf);
            c.wait(r); // rank 0 never isends
        }
    }),
                 simmpi::DeadlockError);
}

TEST(TaskScheduler, QuiescenceDetectsAbandonedCollective) {
    simmpi::World world(3, test_net());
    EXPECT_THROW(world.run([](simmpi::Comm& c) {
        if (c.rank() != 0) c.barrier(); // rank 0 never enters
    }),
                 simmpi::DeadlockError);
}

TEST(TaskScheduler, WorldIsReusableAfterADetectedDeadlock) {
    simmpi::World world(2, test_net());
    EXPECT_THROW(world.run([](simmpi::Comm& c) {
        if (c.rank() == 0) {
            std::vector<double> buf(1);
            c.recv(1, 7, buf);
        }
    }),
                 simmpi::DeadlockError);
    const auto reports = world.run([](simmpi::Comm& c) {
        std::vector<double> v = {1.0};
        v[0] = c.allreduce_sum(v[0]);
        EXPECT_EQ(v[0], 2.0);
    });
    EXPECT_EQ(reports.size(), 2u);
}

TEST(TaskScheduler, RankExceptionReleasesBlockedPeers) {
    // A rank that throws must wake peers blocked in recv/collectives: the
    // original error propagates instead of the run hanging.
    simmpi::World world(4, test_net());
    try {
        world.run([](simmpi::Comm& c) {
            if (c.rank() == 0) throw std::runtime_error("boom");
            std::vector<double> buf(1);
            if (c.rank() == 1) c.recv(0, 1, buf); // blocked in the mailbox
            if (c.rank() > 1) c.barrier();        // blocked in the rendezvous
        });
        FAIL() << "expected an exception";
    } catch (const simmpi::DeadlockError&) {
        FAIL() << "the original error must win, not a detected deadlock";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "boom");
    }
}

TEST(TaskScheduler, AbortUnwindsRanksParkedInWaitAndInASubcommunicator) {
    // Six ranks, one worker each.  Rank 0 throws once the others are about
    // to park: rank 1 in wait() on a receive nobody sends, ranks 2-5 in the
    // barrier of their split() subcommunicator (rank 0's and rank 1's
    // halves never complete it).  The abort must wake and unwind them all;
    // run() must rethrow the original error, not a DeadlockError, and the
    // same World must run again, twice over, then healthily.
    const PoolThreads pool(6);
    simmpi::World world(6, test_net());
    for (int attempt = 0; attempt < 2; ++attempt) {
        std::atomic<int> started{0};
        std::atomic<int> parking{0};
        try {
            world.run([&](simmpi::Comm& c) {
                // Hold every worker until all six ranks run, so no worker
                // adopts another's unstarted rank and rank 0 cannot starve
                // the others of a thread while it spins.
                started.fetch_add(1);
                spin_until([&] { return started.load() == 6; });
                simmpi::Comm half = c.split(c.rank() % 2, c.rank());
                if (c.rank() == 0) {
                    spin_until([&] { return parking.load() == 5; });
                    std::this_thread::sleep_for(std::chrono::milliseconds(20));
                    throw std::runtime_error("boom");
                }
                if (c.rank() == 1) {
                    std::vector<double> buf(1);
                    simmpi::Request r = c.irecv(0, 5, buf);
                    parking.fetch_add(1);
                    c.wait(r);
                } else {
                    parking.fetch_add(1);
                    half.barrier();
                }
            });
            FAIL() << "attempt " << attempt << ": expected an exception";
        } catch (const simmpi::DeadlockError&) {
            FAIL() << "attempt " << attempt << ": the original error must win";
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "boom") << "attempt " << attempt;
        }
    }
    const auto reports = world.run([](simmpi::Comm& c) {
        simmpi::Comm half = c.split(c.rank() % 2, c.rank());
        EXPECT_EQ(half.allreduce_sum(1.0), 3.0);
        c.barrier();
    });
    EXPECT_EQ(reports.size(), 6u);
}

TEST(Oversubscription, TasksOverTheConfiguredLimitIsDiagnosed) {
    simmpi::World world(64, test_net());
    world.set_max_tasks(16);
    try {
        world.run([](simmpi::Comm&) {});
        FAIL() << "expected OversubscriptionError";
    } catch (const simmpi::OversubscriptionError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("16"), std::string::npos) << what;
        EXPECT_NE(what.find("set_max_tasks"), std::string::npos) << what;
    }
}

TEST(Oversubscription, RaisingTheLimitUnblocksTheSameWorld) {
    simmpi::World world(64, test_net());
    world.set_max_tasks(16);
    EXPECT_THROW(world.run([](simmpi::Comm&) {}), simmpi::OversubscriptionError);
    world.set_max_tasks(64);
    EXPECT_EQ(world.run([](simmpi::Comm&) {}).size(), 64u);
}

TEST(TaskScheduler, ThousandsOfMostlyIdleRanksComplete) {
    // 4096 fiber ranks with a light program: the MAP_NORESERVE stacks keep
    // this cheap, and every rank's collective must still rendezvous.
    simmpi::World world(4096, test_net());
    const auto reports = world.run([](simmpi::Comm& c) {
        const double sum = c.allreduce_sum(1.0);
        EXPECT_EQ(sum, 4096.0);
    });
    EXPECT_EQ(reports.size(), 4096u);
}

} // namespace
