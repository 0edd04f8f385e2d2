#pragma once

#include <cstdint>

/// \file faultmodel.hpp
/// Seeded, deterministic fault injection for the interconnect models.
///
/// The paper's central question — can a commodity PC cluster with Fast
/// Ethernet sustain DNS against vendor machines — hinges on the *reliability*
/// of cheap interconnects, not just their mean latency/bandwidth: TCP
/// retransmit timeouts, collision-induced jitter on a shared segment, and
/// per-node stragglers all widen the CPU-vs-wall-clock gap the paper uses as
/// its network-inefficiency metric (§4.2).  This model perturbs individual
/// message costs with four mechanisms:
///
///   * latency jitter    — uniform extra latency in [0, latency_jitter_us],
///   * packet loss       — each transmission is lost with loss_probability;
///                         a loss costs a detection timeout plus a full
///                         retransmission of the message,
///   * link degradation  — with degrade_probability a message hits a
///                         transiently degraded link (duplex mismatch,
///                         collision storm) and its cost is multiplied by
///                         degrade_factor,
///   * stragglers        — a straggler_fraction of ranks (chosen by seed)
///                         pay straggler_factor on every communication.
///
/// Every draw is a pure function of (seed, rank, message index) via a
/// counter-mode splitmix64 hash: no global RNG state, so runs are
/// bit-reproducible regardless of host thread scheduling, and two ranks
/// never share a stream.  A model with all probabilities, jitter and factors
/// at their zero/identity defaults perturbs nothing — the arithmetic
/// reproduces the unfaulted costs bit-for-bit, which the determinism tests
/// assert.
namespace netsim {

struct FaultPerturbation {
    double extra_seconds = 0.0; ///< added on top of the unfaulted cost
    int retransmits = 0;        ///< lost transmissions charged to this message
};

struct FaultModel {
    std::uint64_t seed = 0;

    double latency_jitter_us = 0.0;     ///< max per-message extra latency
    double loss_probability = 0.0;      ///< per-transmission loss probability
    double retransmit_timeout_us = 0.0; ///< loss-detection timeout per retransmit
    int max_retransmits = 16;           ///< cap on consecutive losses of one message

    double degrade_probability = 0.0;   ///< per-message degraded-window probability
    double degrade_factor = 1.0;        ///< cost multiplier in a degraded window (>= 1)

    double straggler_fraction = 0.0;    ///< fraction of ranks that run slow
    double straggler_factor = 1.0;      ///< comm-cost multiplier for stragglers (>= 1)

    /// Kill event: rank `kill_rank` dies (its Comm throws
    /// simmpi::RankKilledError) the moment its per-rank comm-event counter
    /// reaches `kill_after_events`.  Anchoring the death to the fault-stream
    /// position — not host time — makes node failure a bit-deterministic
    /// event: the same seed and event index kill at the same virtual instant
    /// on every run, which is what lets the recovery tests compare a
    /// kill-then-recover run byte-for-byte against a failure-free one.
    /// `kill_rank < 0` (the default) disables the event.
    int kill_rank = -1;
    std::uint64_t kill_after_events = 0;

    /// Whether `rank`'s comm event number `msg_index` is where it dies.
    [[nodiscard]] bool should_kill(int rank, std::uint64_t msg_index) const noexcept {
        return kill_rank == rank && msg_index >= kill_after_events;
    }

    /// True if any mechanism can perturb a cost.  A disabled model is
    /// guaranteed to leave every message cost bit-identical to no model.
    [[nodiscard]] bool enabled() const noexcept;

    /// Deterministic uniform draw in [0, 1) for (seed, rank, msg_index, salt).
    [[nodiscard]] double uniform(int rank, std::uint64_t msg_index,
                                 std::uint64_t salt) const noexcept;

    /// Whether `rank` is one of the seeded stragglers.
    [[nodiscard]] bool is_straggler(int rank) const noexcept;

    /// Communication-cost multiplier for `rank` (straggler_factor or 1.0).
    [[nodiscard]] double rank_slowdown(int rank) const noexcept;

    /// Perturbation for one message/collective whose unfaulted cost is
    /// `base_seconds`, issued by `rank` as its `msg_index`-th comm event.
    /// The returned extra does NOT include the rank slowdown; callers apply
    ///     cost = (base + extra) * rank_slowdown(rank)
    /// so straggling also stretches the faulted part.
    [[nodiscard]] FaultPerturbation perturb(int rank, std::uint64_t msg_index,
                                            double base_seconds) const noexcept;

    /// Mean extra seconds per message of cost `base_seconds` (expectation of
    /// perturb() over the message index), for analytic pricing where no
    /// per-message stream exists (e.g. the cluster advisor).
    [[nodiscard]] double expected_extra_seconds(double base_seconds) const noexcept;

    /// Expected wall-cost inflation factor (faulted / unfaulted) for a
    /// message of cost `base_seconds`, averaged over ranks: 1.0 = perfect
    /// network, 1.25 = a quarter of the communication time is fault overhead.
    [[nodiscard]] double expected_inflation(double base_seconds) const noexcept;
};

} // namespace netsim
