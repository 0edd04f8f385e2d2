#include "netsim/netmodel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace netsim {

namespace {
constexpr double kUs = 1e-6;

/// Sibling communicators sharing one collision domain serialise on the
/// wire; every other topology carries them independently.
double concurrency_factor(Topology topology, int concurrent) noexcept {
    return topology == Topology::SharedBus ? static_cast<double>(std::max(concurrent, 1)) : 1.0;
}
} // namespace

double NetworkModel::ptp_seconds(std::size_t m_bytes) const noexcept {
    double bw = bandwidth_mbps;
    if (m_bytes >= large_msg_bytes) bw *= large_msg_factor;
    double t = latency_us * kUs + static_cast<double>(m_bytes) / (bw * 1e6);
    if (m_bytes >= eager_bytes) t += rendezvous_us * kUs;
    return t;
}

double NetworkModel::pingpong_bandwidth_mbps(std::size_t m_bytes) const noexcept {
    return static_cast<double>(m_bytes) / ptp_seconds(m_bytes) / 1e6;
}

double NetworkModel::alltoall_seconds(int nprocs, std::size_t m_bytes,
                                      int concurrent) const noexcept {
    const int p = std::max(nprocs, 1);
    if (p == 1) return 0.0;
    const double conc = concurrency_factor(topology, concurrent);
    const double one = ptp_seconds(m_bytes);
    switch (topology) {
        case Topology::SharedBus: {
            // Every one of the P(P-1) messages crosses the same wire; only
            // the handshakes overlap.
            double bw = bandwidth_mbps;
            if (m_bytes >= large_msg_bytes) bw *= large_msg_factor;
            const double wire = static_cast<double>(p) * (p - 1) *
                                static_cast<double>(m_bytes) / (bw * 1e6);
            return ((p - 1) * latency_us * kUs + wire) * conc;
        }
        case Topology::PointToPoint:
            // Dedicated pairwise links: the P-1 exchange rounds each run at
            // full link speed.
            return (p - 1) * one;
        case Topology::SharedMemory:
        case Topology::Switched:
            // Concurrent pairwise exchange, derated for all-pairs contention.
            return (p - 1) * (latency_us * kUs +
                              (one - latency_us * kUs) / std::max(alltoall_factor, 1e-9));
    }
    return (p - 1) * one;
}

double NetworkModel::alltoall_seconds_bruck(int nprocs, std::size_t m_bytes) const noexcept {
    const int p = std::max(nprocs, 1);
    if (p == 1) return 0.0;
    const double rounds = std::ceil(std::log2(static_cast<double>(p)));
    const std::size_t per_round = static_cast<std::size_t>(p) / 2 * m_bytes;
    double t = 0.0;
    for (int r = 0; r < static_cast<int>(rounds); ++r) {
        double bw = bandwidth_mbps;
        if (per_round >= large_msg_bytes) bw *= large_msg_factor;
        double one = latency_us * kUs + static_cast<double>(per_round) / (bw * 1e6);
        if (per_round >= eager_bytes) one += rendezvous_us * kUs;
        if (topology == Topology::SharedBus) one *= static_cast<double>(p) / 2.0;
        t += one;
    }
    return t;
}

double NetworkModel::alltoall_bandwidth_mbps(int nprocs, std::size_t m_bytes) const noexcept {
    const int p = std::max(nprocs, 2);
    const double t = alltoall_seconds(p, m_bytes);
    return static_cast<double>(p - 1) * static_cast<double>(m_bytes) / t / 1e6;
}

double NetworkModel::alltoall_share_seconds(int nprocs, std::size_t block_bytes,
                                            std::size_t part_bytes,
                                            int concurrent) const noexcept {
    const int p = std::max(nprocs, 1);
    if (p == 1 || block_bytes == 0) return 0.0;
    const double whole = alltoall_seconds(p, block_bytes, concurrent);
    return whole * static_cast<double>(part_bytes) /
           (static_cast<double>(block_bytes) * static_cast<double>(p - 1));
}

double NetworkModel::allreduce_seconds(int nprocs, std::size_t m_bytes,
                                       int concurrent) const noexcept {
    const int p = std::max(nprocs, 1);
    if (p == 1) return 0.0;
    const double rounds = std::ceil(std::log2(static_cast<double>(p)));
    return rounds * ptp_seconds(m_bytes) * concurrency_factor(topology, concurrent);
}

double NetworkModel::gather_seconds(int nprocs, std::size_t m_bytes,
                                    int concurrent) const noexcept {
    const int p = std::max(nprocs, 1);
    if (p == 1) return 0.0;
    // Binomial tree: round k ships 2^k ranks' worth of payload.
    double t = 0.0;
    std::size_t chunk = m_bytes;
    int covered = 1;
    while (covered < p) {
        t += ptp_seconds(chunk);
        chunk *= 2;
        covered *= 2;
    }
    return t * concurrency_factor(topology, concurrent);
}

double NetworkModel::barrier_seconds(int nprocs, int concurrent) const noexcept {
    const int p = std::max(nprocs, 1);
    if (p == 1) return 0.0;
    const double rounds = std::ceil(std::log2(static_cast<double>(p)));
    return 2.0 * rounds * latency_us * kUs * concurrency_factor(topology, concurrent);
}

double NetworkModel::hierarchical_alltoall_seconds(int rows, int cols,
                                                   std::size_t stage1_bytes,
                                                   std::size_t stage2_bytes) const noexcept {
    // Stage 1: `rows` concurrent row communicators of size `cols`;
    // stage 2: `cols` concurrent column communicators of size `rows`.
    return alltoall_seconds(cols, stage1_bytes, rows) +
           alltoall_seconds(rows, stage2_bytes, cols);
}

const std::vector<NetworkModel>& pingpong_roster() {
    // Latency/bandwidth pairs reproduce the regimes of Figure 7: ethernet
    // high-latency/low-bandwidth, Myrinet supercomputer-class latency but
    // modest bandwidth (sagging for very large messages), T3E on top.
    static const std::vector<NetworkModel> nets = {
        {"AP3000", 70.0, 65.0, 30.0, 16 * 1024, Topology::Switched, 1.0, 1 << 20, 0.50},
        {"SP2-Thin2", 45.0, 33.0, 25.0, 16 * 1024, Topology::Switched, 1.0, 1 << 20, 1.00},
        {"SP2-Silver, internode", 29.0, 85.0, 20.0, 16 * 1024, Topology::Switched, 1.0,
         1 << 20, 0.45},
        {"SP2-Silver, intranode", 22.0, 65.0, 10.0, 32 * 1024, Topology::SharedMemory, 1.0,
         1 << 20, 0.60},
        {"Muses, MPICH", 120.0, 10.8, 60.0, 16 * 1024, Topology::PointToPoint, 1.0, 1 << 20,
         1.0, 0.55},
        {"Muses, LAM", 75.0, 11.2, 40.0, 16 * 1024, Topology::PointToPoint, 1.0, 1 << 20,
         1.0, 0.55},
        {"Onyx 2", 14.0, 140.0, 6.0, 64 * 1024, Topology::SharedMemory, 1.0, 1 << 20, 0.55},
        {"R.Run, eth.-intranode", 65.0, 35.0, 35.0, 16 * 1024, Topology::SharedMemory, 1.0,
         1 << 20, 0.70, 0.70},
        {"R.Run, eth.-internode", 180.0, 9.0, 90.0, 16 * 1024, Topology::SharedBus, 1.0,
         1 << 20, 1.0, 0.55},
        {"R.Run, myr.-intranode", 22.0, 45.0, 12.0, 32 * 1024, Topology::SharedMemory, 0.85,
         1 << 20, 0.85},
        {"R.Run, myr.-internode", 26.0, 38.0, 14.0, 32 * 1024, Topology::Switched, 0.80,
         1 << 20, 1.00},
        {"T3E", 11.0, 175.0, 5.0, 64 * 1024, Topology::Switched, 1.0, 1 << 22, 0.85},
    };
    return nets;
}

const std::vector<NetworkModel>& alltoall_roster() {
    // Figure 8's nine configurations, in its legend order.  The HITACHI
    // SR8000 is not plotted in the paper's figure but its text reports a
    // 450 MB/s floor; we keep it available via by_name().
    static const std::vector<NetworkModel> nets = [] {
        std::vector<NetworkModel> v;
        const auto& pp = pingpong_roster();
        const auto pick = [&](const std::string& n) {
            return *std::find_if(pp.begin(), pp.end(),
                                 [&](const NetworkModel& m) { return m.name == n; });
        };
        auto ap = pick("AP3000");
        ap.name = "AP3000";
        v.push_back(ap);
        auto t3e = pick("T3E");
        v.push_back(t3e);
        auto rre = pick("R.Run, eth.-internode");
        rre.name = "RoadRunner eth.";
        v.push_back(rre);
        auto rrm = pick("R.Run, myr.-internode");
        rrm.name = "RoadRunner myr.";
        v.push_back(rrm);
        auto spsi = pick("SP2-Silver, internode");
        spsi.name = "SP2-Silver internode";
        v.push_back(spsi);
        auto spsa = pick("SP2-Silver, intranode");
        spsa.name = "SP2-Silver intranode";
        v.push_back(spsa);
        auto thin = pick("SP2-Thin2");
        thin.name = "SP2-thin2";
        v.push_back(thin);
        v.push_back({"NCSA", 13.0, 130.0, 6.0, 64 * 1024, Topology::SharedMemory, 1.0,
                     1 << 20, 0.40});
        auto muses = pick("Muses, LAM");
        muses.name = "Muses";
        v.push_back(muses);
        v.push_back({"HITACHI", 8.0, 1000.0, 4.0, 64 * 1024, Topology::Switched, 1.0,
                     1 << 22, 0.50});
        return v;
    }();
    return nets;
}

const std::vector<NetworkModel>& scaling_roster() {
    // The paper-era NIC characteristics behind an idealised full-bisection
    // switch: per-link numbers from Figure 7 (RoadRunner Fast Ethernet, the
    // Myrinet 2000 generation), Topology::Switched so the P=64..4096 sweep
    // measures the decomposition rather than a 1999 switch radix.  Fast
    // Ethernet keeps the blocking-TCP cpu_poll_fraction; Myrinet/GM polls.
    static const std::vector<NetworkModel> nets = {
        {"FastEther switched", 180.0, 11.2, 90.0, 16 * 1024, Topology::Switched, 1.0, 1 << 20,
         1.0, 0.55},
        {"Myrinet2000 switched", 18.0, 140.0, 10.0, 32 * 1024, Topology::Switched, 0.9, 1 << 20,
         0.95, 1.0},
    };
    return nets;
}

const NetworkModel& by_name(const std::string& name) {
    for (const auto* roster : {&pingpong_roster(), &alltoall_roster(), &scaling_roster()}) {
        const auto it = std::find_if(roster->begin(), roster->end(),
                                     [&](const NetworkModel& m) { return m.name == name; });
        if (it != roster->end()) return *it;
    }
    throw std::out_of_range("unknown network: " + name);
}

} // namespace netsim
