#include "simmpi/simmpi.hpp"

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <vector>

#include "ckpt/checkpoint.hpp"

/// Comm::split(color, key): partition semantics, subcommunicator collectives
/// against serial references, determinism under fault seeds, and the refusal
/// to checkpoint a subcommunicator (only the world comm carries state).
namespace {

netsim::NetworkModel test_net(std::uint64_t fault_seed = 0) {
    netsim::NetworkModel n;
    n.name = "test";
    n.latency_us = 10.0;
    n.bandwidth_mbps = 100.0;
    if (fault_seed != 0) {
        n.fault.seed = fault_seed;
        n.fault.latency_jitter_us = 25.0;
        n.fault.degrade_probability = 0.2;
        n.fault.degrade_factor = 3.0;
    }
    return n;
}

TEST(CommSplit, PartitionsByColorAndOrdersByKey) {
    const int p = 12;
    simmpi::World world(p, test_net());
    world.run([p](simmpi::Comm& c) {
        const int color = c.rank() % 3;
        // Negative keys: order inside each subcomm is *descending* world rank.
        simmpi::Comm sub = c.split(color, -c.rank());
        ASSERT_FALSE(sub.is_null());
        EXPECT_EQ(sub.size(), p / 3);
        EXPECT_EQ(sub.world_rank(), c.rank());
        // World rank color + 3 * j maps to subcomm rank (p/3 - 1 - j).
        const int j = c.rank() / 3;
        EXPECT_EQ(sub.rank(), p / 3 - 1 - j);
        // Membership check via allreduce: the members of color k are the
        // world ranks congruent to k mod 3.
        double expect = 0.0;
        for (int w = color; w < p; w += 3) expect += static_cast<double>(w);
        EXPECT_EQ(sub.allreduce_sum(static_cast<double>(c.rank())), expect);
    });
}

TEST(CommSplit, EqualKeysBreakTiesByParentRank) {
    simmpi::World world(6, test_net());
    world.run([](simmpi::Comm& c) {
        simmpi::Comm sub = c.split(0, /*key=*/0);
        EXPECT_EQ(sub.rank(), c.rank()); // stable order: parent rank order
        EXPECT_EQ(sub.size(), 6);
    });
}

TEST(CommSplit, NegativeColorYieldsNullComm) {
    simmpi::World world(5, test_net());
    world.run([](simmpi::Comm& c) {
        simmpi::Comm sub = c.split(c.rank() == 0 ? -1 : 0, 0);
        if (c.rank() == 0) {
            EXPECT_TRUE(sub.is_null());
            EXPECT_EQ(sub.rank(), -1);
            EXPECT_EQ(sub.size(), 0);
            EXPECT_THROW((void)sub.allreduce_sum(1.0), std::logic_error);
        } else {
            ASSERT_FALSE(sub.is_null());
            EXPECT_EQ(sub.size(), 4);
            EXPECT_EQ(sub.allreduce_sum(1.0), 4.0);
        }
    });
}

TEST(CommSplit, SubcommCollectivesMatchSerialReferences) {
    const int p = 8;
    simmpi::World world(p, test_net());
    world.run([p](simmpi::Comm& c) {
        const int color = c.rank() / 4; // two quads
        simmpi::Comm sub = c.split(color, c.rank());
        ASSERT_EQ(sub.size(), 4);

        // alltoall: value encodes (sender world rank, destination).
        std::vector<double> send(4), recv(4);
        for (int d = 0; d < 4; ++d)
            send[static_cast<std::size_t>(d)] = 100.0 * c.rank() + d;
        sub.alltoall(send, recv, 1);
        for (int s = 0; s < 4; ++s) {
            const int sender_world = color * 4 + s;
            EXPECT_EQ(recv[static_cast<std::size_t>(s)], 100.0 * sender_world + sub.rank());
        }

        // bcast from each subcomm root in turn.
        std::vector<double> word = {sub.rank() == 0 ? 7.0 + color : -1.0};
        sub.bcast(word, 0);
        EXPECT_EQ(word[0], 7.0 + color);

        // gather to the subcomm's last rank.
        std::vector<double> gathered;
        sub.gather(std::vector<double>{static_cast<double>(c.rank())}, gathered, 3);
        if (sub.rank() == 3) {
            ASSERT_EQ(gathered.size(), 4u);
            for (int s = 0; s < 4; ++s)
                EXPECT_EQ(gathered[static_cast<std::size_t>(s)], color * 4 + s);
        }

        // Min/max reductions stay within the group.
        EXPECT_EQ(sub.allreduce_min(static_cast<double>(c.rank())), 4.0 * color);
        EXPECT_EQ(sub.allreduce_max(static_cast<double>(c.rank())), 4.0 * color + 3.0);
    });
}

TEST(CommSplit, PointToPointStaysInsideTheSubcomm) {
    // Same (src rank, tag) exists in both subcomms; the context keeps the
    // messages apart.
    simmpi::World world(4, test_net());
    world.run([](simmpi::Comm& c) {
        simmpi::Comm sub = c.split(c.rank() % 2, c.rank());
        std::vector<double> v = {static_cast<double>(c.rank())};
        std::vector<double> in(1);
        if (sub.rank() == 0) {
            sub.send(1, 5, v);
        } else {
            sub.recv(0, 5, in);
            EXPECT_EQ(in[0], static_cast<double>(c.rank() % 2)); // world 0 or 1
        }
    });
}

TEST(CommSplit, SplitOfASplitNests) {
    const int p = 8;
    simmpi::World world(p, test_net());
    world.run([](simmpi::Comm& c) {
        simmpi::Comm half = c.split(c.rank() / 4, c.rank());
        simmpi::Comm pair = half.split(half.rank() / 2, half.rank());
        EXPECT_EQ(pair.size(), 2);
        const double partner_sum = pair.allreduce_sum(static_cast<double>(c.rank()));
        // Pairs are (0,1),(2,3),... in world ranks.
        EXPECT_EQ(partner_sum, static_cast<double>(2 * (c.rank() / 2) * 2 + 1));
    });
}

TEST(CommSplit, EventsRecordGroupSizeAndSiblings) {
    const int p = 6;
    simmpi::World world(p, test_net());
    const auto reports = world.run([](simmpi::Comm& c) {
        simmpi::Comm sub = c.split(c.rank() % 3, c.rank()); // 3 siblings of 2
        (void)sub.allreduce_sum(1.0);
    });
    bool found = false;
    for (const auto& [key, count] : reports[0].log.at(-1)) {
        if (key.kind == simmpi::CommKind::Allreduce) {
            EXPECT_EQ(key.group, 2u);
            EXPECT_EQ(key.groups, 3u);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

/// Two runs with the same fault seed must produce byte-identical virtual
/// clocks even when every comm event runs on split-derived subcomms (the
/// fault stream is keyed by world rank and per-rank event index, which the
/// subcomm views share).
TEST(CommSplit, DeterministicUnderFaultSeeds) {
    const auto run = [](std::uint64_t seed) {
        simmpi::World world(8, test_net(seed));
        return world.run([](simmpi::Comm& c) {
            simmpi::Comm row = c.split(c.rank() / 2, c.rank());
            simmpi::Comm col = c.split(c.rank() % 2, c.rank());
            for (int i = 0; i < 3; ++i) {
                (void)row.allreduce_sum(1.0);
                std::vector<double> s(static_cast<std::size_t>(col.size()), 1.0);
                std::vector<double> r(s.size());
                col.alltoall(s, r, 1);
            }
        });
    };
    const auto a = run(31415), b = run(31415), c = run(27182);
    for (int r = 0; r < 8; ++r) {
        EXPECT_EQ(a[static_cast<std::size_t>(r)].wall_seconds,
                  b[static_cast<std::size_t>(r)].wall_seconds);
        EXPECT_EQ(a[static_cast<std::size_t>(r)].fault_log.size(),
                  b[static_cast<std::size_t>(r)].fault_log.size());
    }
    // A different seed must actually perturb something.
    bool differs = false;
    for (int r = 0; r < 8; ++r)
        differs |= a[static_cast<std::size_t>(r)].wall_seconds !=
                   c[static_cast<std::size_t>(r)].wall_seconds;
    EXPECT_TRUE(differs);
}

TEST(CommSplit, SaveStateOnASubcommIsRefused) {
    simmpi::World world(2, test_net());
    world.run([](simmpi::Comm& c) {
        simmpi::Comm sub = c.split(0, c.rank());
        ckpt::SectionWriter w("comm");
        EXPECT_THROW(sub.save_state(w), std::logic_error);
    });
}

} // namespace
