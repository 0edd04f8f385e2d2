#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "netsim/faultmodel.hpp"

/// \file netmodel.hpp
/// Analytic interconnect models for the paper's communication study.
///
/// The paper measures twelve network configurations with NetPIPE ping-pong
/// (Figure 7) and nine with an MPI_Alltoall loop (Figure 8).  We reproduce
/// them with piecewise latency/bandwidth models: a one-way message of m
/// bytes costs
///
///     t(m) = latency + m / bandwidth            (eager regime)
///     t(m) = latency + rendezvous + m / bandwidth   (m >= eager threshold)
///
/// and collectives compose these according to the topology: switched fabrics
/// run the (P-1)-round pairwise exchange concurrently, a shared Fast
/// Ethernet segment serialises every byte on one wire, and the Muses quad
/// point-to-point cards give each pair a dedicated link.
namespace netsim {

/// How concurrent transfers share the physical medium.
enum class Topology {
    Switched,      ///< full-bisection switch (vendor networks, Myrinet)
    SharedBus,     ///< single collision domain (RoadRunner Fast Ethernet)
    PointToPoint,  ///< dedicated pairwise links (Muses quad NICs)
    SharedMemory,  ///< intranode copies through memory
};

/// One network configuration (machine + interconnect + MPI stack).
struct NetworkModel {
    std::string name;
    double latency_us = 0.0;        ///< zero-byte one-way latency
    double bandwidth_mbps = 0.0;    ///< asymptotic one-way bandwidth
    double rendezvous_us = 0.0;     ///< extra handshake above the threshold
    std::size_t eager_bytes = 16 * 1024; ///< eager->rendezvous protocol switch
    Topology topology = Topology::Switched;
    /// Large-message derating (e.g. Myrinet/GM one-way bandwidth sags for
    /// multi-megabyte messages in the paper's Figure 7).
    double large_msg_factor = 1.0;
    std::size_t large_msg_bytes = 1 << 20;
    /// Fabric contention derating applied to the pairwise Alltoall schedule
    /// (vendor switches lose more of their ping-pong bandwidth to the
    /// all-pairs traffic pattern than a torus does).
    double alltoall_factor = 1.0;
    /// Fraction of communication wall time that also burns CPU.  Polling MPI
    /// stacks (Myrinet/GM, vendor switches, shared memory) spin at ~1.0; the
    /// kernel TCP path of MPICH/LAM on ethernet blocks in the kernel, which
    /// is what separates CPU from wall clock in the paper's Table 2.
    double cpu_poll_fraction = 1.0;
    /// Seeded fault injection (jitter, loss/retransmit, degradation,
    /// stragglers).  Default-constructed = perfect network; the analytic
    /// costs below are always the *unfaulted* means — faults are charged
    /// per-message by the simmpi runtime, which knows (rank, message index).
    FaultModel fault{};

    /// One-way point-to-point time for m bytes, in seconds.
    [[nodiscard]] double ptp_seconds(std::size_t m_bytes) const noexcept;

    /// Effective ping-pong bandwidth in MB/s for m bytes (NetPIPE metric).
    [[nodiscard]] double pingpong_bandwidth_mbps(std::size_t m_bytes) const noexcept;

    /// Time for MPI_Alltoall with P ranks each sending m bytes to every other
    /// rank, in seconds (pairwise-exchange schedule, topology-aware).
    /// `concurrent` is the number of sibling communicators (from one
    /// Comm::split) running the collective at the same time: a shared
    /// collision domain serialises them on the wire; switched and
    /// point-to-point fabrics carry them independently.
    [[nodiscard]] double alltoall_seconds(int nprocs, std::size_t m_bytes,
                                          int concurrent = 1) const noexcept;

    /// Bruck's log-round Alltoall: ceil(log2 P) rounds shipping P/2 blocks
    /// each.  Fewer handshakes (wins at small messages on high-latency
    /// links) at the price of shipping every byte log P / 2 times.
    [[nodiscard]] double alltoall_seconds_bruck(int nprocs,
                                                std::size_t m_bytes) const noexcept;

    /// The paper's Figure 8 metric: per-process average bandwidth, i.e. the
    /// (P-1)*m bytes each rank ships divided by the collective's duration.
    [[nodiscard]] double alltoall_bandwidth_mbps(int nprocs, std::size_t m_bytes) const noexcept;

    /// Cost share of one peer message of `part_bytes` inside a P-rank
    /// alltoall whose per-rank block is `block_bytes`.  The nonblocking
    /// chunked exchange charges each of its (P-1) x slices messages this
    /// share, so its background total equals alltoall_seconds(P, block):
    /// pipelining changes when the cost can be hidden, not how much the
    /// network works.
    [[nodiscard]] double alltoall_share_seconds(int nprocs, std::size_t block_bytes,
                                                std::size_t part_bytes,
                                                int concurrent = 1) const noexcept;

    /// Time for a recursive-doubling allreduce of m bytes across P ranks.
    [[nodiscard]] double allreduce_seconds(int nprocs, std::size_t m_bytes,
                                           int concurrent = 1) const noexcept;

    /// Time for a binomial-tree gather of m bytes per rank to the root.
    [[nodiscard]] double gather_seconds(int nprocs, std::size_t m_bytes,
                                        int concurrent = 1) const noexcept;

    /// Barrier (tree up + tree down of empty messages).
    [[nodiscard]] double barrier_seconds(int nprocs, int concurrent = 1) const noexcept;

    /// Cost of the 2-D pencil transpose's staged exchange on a rows x cols
    /// process grid: every row communicator (there are `rows` of them, size
    /// `cols`, running concurrently) exchanges `stage1_bytes` per peer, then
    /// every column communicator (`cols` of size `rows`) exchanges
    /// `stage2_bytes` per peer.  The 1-D slab equivalent is
    /// alltoall_seconds(rows*cols, block): the pencil trades one P-wide
    /// exchange (latency term ~P) for two sqrt(P)-wide ones (~2 sqrt(P)) —
    /// the crossover behind strong scaling past the paper's P=16.
    [[nodiscard]] double hierarchical_alltoall_seconds(int rows, int cols,
                                                       std::size_t stage1_bytes,
                                                       std::size_t stage2_bytes) const noexcept;
};

/// The twelve ping-pong configurations of Figure 7, in legend order:
/// AP3000, SP2-Thin2, SP2-Silver inter/intranode, Muses MPICH, Muses LAM,
/// Onyx2, RoadRunner eth intra/internode, RoadRunner myrinet intra/internode,
/// T3E.
[[nodiscard]] const std::vector<NetworkModel>& pingpong_roster();

/// The nine Alltoall configurations of Figure 8: AP3000, T3E, RoadRunner
/// eth., RoadRunner myr., SP2-Silver inter/intranode, SP2-Thin2, NCSA, Muses.
[[nodiscard]] const std::vector<NetworkModel>& alltoall_roster();

/// Hypothetical large-cluster fabrics for the strong-scaling study beyond
/// the paper's P=16: the paper-era NICs (Fast Ethernet, Myrinet 2000) behind
/// an idealised full-bisection switch, so the P=64..4096 sweep isolates the
/// decomposition's scaling from the 1999 switch sizes.
[[nodiscard]] const std::vector<NetworkModel>& scaling_roster();

/// Finds a model by name in any roster; throws std::out_of_range.
[[nodiscard]] const NetworkModel& by_name(const std::string& name);

} // namespace netsim
