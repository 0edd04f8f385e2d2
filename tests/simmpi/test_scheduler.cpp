#include "simmpi/simmpi.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "parallel/thread_pool.hpp"

/// The Engine::Tasks fiber scheduler: bit-identity against the classic
/// one-thread-per-rank engine, determinism at rank counts no thread engine
/// could host, exact quiescence deadlock detection, and the oversubscription
/// diagnostics.
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

std::vector<simmpi::RankReport> run_mixed(int p, simmpi::Engine engine) {
    simmpi::World world(p, test_net(), engine);
    return world.run(mixed_program);
}

TEST(TaskScheduler, TasksIsTheDefaultEngine) {
    simmpi::World world(4, test_net());
    EXPECT_EQ(world.engine(), simmpi::Engine::Tasks);
}

TEST(TaskScheduler, TasksMatchesThreadsBitForBit) {
    for (const int p : {2, 4, 6, 16}) {
        const auto tasks = run_mixed(p, simmpi::Engine::Tasks);
        const auto threads = run_mixed(p, simmpi::Engine::Threads);
        ASSERT_EQ(tasks.size(), threads.size());
        for (int r = 0; r < p; ++r) {
            const auto& a = tasks[static_cast<std::size_t>(r)];
            const auto& b = threads[static_cast<std::size_t>(r)];
            EXPECT_EQ(a.cpu_seconds, b.cpu_seconds) << "p=" << p << " rank " << r;
            EXPECT_EQ(a.wall_seconds, b.wall_seconds) << "p=" << p << " rank " << r;
            EXPECT_EQ(a.log, b.log) << "p=" << p << " rank " << r;
            EXPECT_EQ(a.overlap_log, b.overlap_log) << "p=" << p << " rank " << r;
        }
    }
}

/// FNV-1a over the bit patterns of every rank's clocks: one word capturing
/// the full virtual timing of a run.
std::uint64_t run_digest(const std::vector<simmpi::RankReport>& reports) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&](double v) {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        for (int i = 0; i < 8; ++i) {
            h ^= (bits >> (8 * i)) & 0xffu;
            h *= 1099511628211ull;
        }
    };
    for (const auto& r : reports) {
        mix(r.cpu_seconds);
        mix(r.wall_seconds);
    }
    return h;
}

TEST(TaskScheduler, TwoHundredFiftySixRanksAreDeterministic) {
    // A rank count the thread engine refuses outright on most hosts; the
    // task engine must both complete it and reproduce it bit-for-bit.
    const auto a = run_mixed(256, simmpi::Engine::Tasks);
    const auto b = run_mixed(256, simmpi::Engine::Tasks);
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

TEST(TaskScheduler, TaskTStartsOnWorkerTModW) {
    // Eight ranks over four workers: two per thread, ranks r and r + 4
    // together, whatever the threads' timing.  Ranks 0-3 hold their worker
    // (no park) until all four have started, so no worker can be idle with
    // another's task still unstarted.
    const PoolThreads pool(4);
    constexpr int kRanks = 8;
    std::atomic<int> started{0};
    std::vector<std::thread::id> first(kRanks), last(kRanks);
    simmpi::World world(kRanks, test_net(), simmpi::Engine::Tasks);
    world.run([&](simmpi::Comm& c) {
        const auto r = static_cast<std::size_t>(c.rank());
        first[r] = std::this_thread::get_id();
        started.fetch_add(1);
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (c.rank() < 4 && started.load() < 4 && std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
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

TEST(TaskScheduler, CompletesWhenThePoolRunsTheWorkersInline) {
    // A run started inside a parallel_for body gets its worker loops run
    // one after another on the calling thread: worker 0 must start the
    // other workers' tasks itself, and the clocks must not change.
    const auto reference = run_mixed(8, simmpi::Engine::Tasks);
    const PoolThreads pool(4);
    std::vector<simmpi::RankReport> inline_run;
    parallel::pool().parallel_for(2, [&](std::size_t b, std::size_t) {
        if (b == 0) inline_run = run_mixed(8, simmpi::Engine::Tasks);
    });
    ASSERT_EQ(inline_run.size(), reference.size());
    EXPECT_EQ(run_digest(inline_run), run_digest(reference));
    for (std::size_t r = 0; r < reference.size(); ++r)
        EXPECT_EQ(inline_run[r].log, reference[r].log) << "rank " << r;
}

TEST(TaskScheduler, QuiescenceDetectsMissingSendExactly) {
    // Rank 1 waits for a message nobody sends.  Under Engine::Tasks this is
    // caught by the scheduler's exact quiescence check (no runnable task,
    // one parked), not a timeout, so it fires immediately.
    simmpi::World world(2, test_net(), simmpi::Engine::Tasks);
    EXPECT_THROW(world.run([](simmpi::Comm& c) {
        if (c.rank() == 1) {
            std::vector<double> buf(1);
            c.recv(0, 42, buf);
        }
    }),
                 simmpi::DeadlockError);
}

TEST(TaskScheduler, QuiescenceDetectsAbandonedCollective) {
    simmpi::World world(3, test_net(), simmpi::Engine::Tasks);
    EXPECT_THROW(world.run([](simmpi::Comm& c) {
        if (c.rank() != 0) c.barrier(); // rank 0 never enters
    }),
                 simmpi::DeadlockError);
}

TEST(TaskScheduler, WorldIsReusableAfterADetectedDeadlock) {
    simmpi::World world(2, test_net(), simmpi::Engine::Tasks);
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

TEST(Oversubscription, TasksOverTheConfiguredLimitIsDiagnosed) {
    simmpi::World world(64, test_net(), simmpi::Engine::Tasks);
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
    simmpi::World world(64, test_net(), simmpi::Engine::Tasks);
    world.set_max_tasks(16);
    EXPECT_THROW(world.run([](simmpi::Comm&) {}), simmpi::OversubscriptionError);
    world.set_max_tasks(64);
    EXPECT_EQ(world.run([](simmpi::Comm&) {}).size(), 64u);
}

TEST(Oversubscription, ThreadEngineRefusesThousandsOfRanks) {
    // The thread engine's ceiling is a hard constant: past it the guidance
    // is to use Engine::Tasks, and the error must say so before any OS
    // thread is spawned.
    simmpi::World world(4096, test_net(), simmpi::Engine::Threads);
    try {
        world.run([](simmpi::Comm&) {});
        FAIL() << "expected OversubscriptionError";
    } catch (const simmpi::OversubscriptionError& e) {
        EXPECT_NE(std::string(e.what()).find("Tasks"), std::string::npos) << e.what();
    }
}

TEST(TaskScheduler, ThousandsOfMostlyIdleRanksComplete) {
    // 4096 fiber ranks with a light program: the MAP_NORESERVE stacks keep
    // this cheap, and every rank's collective must still rendezvous.
    simmpi::World world(4096, test_net(), simmpi::Engine::Tasks);
    const auto reports = world.run([](simmpi::Comm& c) {
        const double sum = c.allreduce_sum(1.0);
        EXPECT_EQ(sum, 4096.0);
    });
    EXPECT_EQ(reports.size(), 4096u);
}

} // namespace
