#pragma once

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "machine/accelerator_model.hpp"
#include "machine/machine_model.hpp"
#include "netsim/netmodel.hpp"
#include "perf/stage_stats.hpp"
#include "simmpi/simmpi.hpp"

/// \file pricing.hpp
/// Pricing of an instrumented solver run on the paper's machines.
/// (Formerly bench/app_model.hpp; now part of the lab library so the
/// scenario evaluator's "measured" fidelity and the table/figure benches
/// price probe runs through the same helpers.)
///
/// The solvers execute for real on this host and record, per stage, the
/// flops/bytes their kernels moved plus every communication event.  These
/// helpers map that operation stream onto a (machine, network) pair:
///   cpu  = predicted compute + comm * cpu_poll_fraction
///   wall = predicted compute + comm            (+ idle from imbalance)
/// reproducing the paper's CPU-vs-wall-clock methodology (§4.2).
namespace app_model {

/// A machine/interconnect pairing used in the application tables.
struct Platform {
    std::string label;          ///< row/column label, as in the paper's tables
    std::string machine;        ///< machine::by_name key
    std::string network;        ///< netsim::by_name key ("" = serial)
};

/// Stage shapes for the spectral/hp solvers: stages 1-4 and 6 are
/// quadrature-space vector algebra over the whole field; stages 5 and 7
/// stream the banded factors (direct path) or elemental matrices (PCG path).
[[nodiscard]] inline std::array<perf::StageShape, perf::kNumStages + 1> solver_shapes(
    std::size_t field_bytes, std::size_t solver_bytes) {
    std::array<perf::StageShape, perf::kNumStages + 1> shapes;
    for (std::size_t s = 1; s <= perf::kNumStages; ++s) {
        shapes[s].working_set_bytes = field_bytes;
        shapes[s].compute_efficiency = 0.45;
    }
    shapes[5].working_set_bytes = solver_bytes;
    shapes[7].working_set_bytes = solver_bytes;
    shapes[5].compute_efficiency = 0.6; // dgemv-like back-substitution
    shapes[7].compute_efficiency = 0.6;
    shapes[5].latency_bound = true;     // dependent loads along the band
    shapes[7].latency_bound = true;
    return shapes;
}

/// Per-stage predicted seconds for one platform (computation only).
[[nodiscard]] inline std::array<double, perf::kNumStages + 1> compute_stage_seconds(
    const perf::StageBreakdown& bd, const machine::MachineModel& m,
    const std::array<perf::StageShape, perf::kNumStages + 1>& shapes) {
    std::array<double, perf::kNumStages + 1> out{};
    for (std::size_t s = 1; s <= perf::kNumStages; ++s)
        out[s] = bd.predict_stage_seconds(m, s, shapes[s]);
    return out;
}

/// Per-stage communication seconds priced from a rank's comm log.
[[nodiscard]] inline std::array<double, perf::kNumStages + 1> comm_stage_seconds(
    const simmpi::CommLog& log, const netsim::NetworkModel& net, int nprocs) {
    std::array<double, perf::kNumStages + 1> out{};
    for (std::size_t s = 1; s <= perf::kNumStages; ++s)
        out[s] = simmpi::price_stage(log, static_cast<int>(s), net, nprocs);
    // Events outside an explicit stage (setup, diagnostics) are ignored: the
    // paper times the steady time-stepping loop.
    return out;
}

/// Per-stage communication splits (blocking vs overlapped events).
[[nodiscard]] inline std::array<simmpi::SplitSeconds, perf::kNumStages + 1> comm_stage_splits(
    const simmpi::CommLog& log, const netsim::NetworkModel& net, int nprocs) {
    std::array<simmpi::SplitSeconds, perf::kNumStages + 1> out{};
    for (std::size_t s = 1; s <= perf::kNumStages; ++s)
        out[s] = simmpi::price_stage_split(log, static_cast<int>(s), net, nprocs);
    return out;
}

/// Comm seconds a rank's nonblocking exchanges hid under computation, per
/// stage, from its overlap log (slot 0 collects events outside a stage).
[[nodiscard]] inline std::array<double, perf::kNumStages + 1> hidden_stage_seconds(
    const simmpi::OverlapLog& log) {
    std::array<double, perf::kNumStages + 1> out{};
    for (const auto& [stage, hidden] : log) out[perf::stage_slot(stage)] += hidden;
    return out;
}

/// Fraction of the overlapped-comm price the probe run actually hid behind
/// computation: hidden seconds from the rank's overlap log over the price of
/// the same events on the probe network, clamped to [0, 1].  This ratio is a
/// property of the *schedule* (how much compute sat between post and wait),
/// so it transfers to the target networks.
[[nodiscard]] inline double overlap_efficiency(double hidden_seconds,
                                               double overlapped_price_probe) {
    if (overlapped_price_probe <= 0.0) return 0.0;
    return std::clamp(hidden_seconds / overlapped_price_probe, 0.0, 1.0);
}

/// Wall seconds a target network recovers from the overlapped events: the
/// hidden fraction of their price, scaled by the CPU-free share of comm time
/// — a polling stack (cpu_poll_fraction = 1) burns the CPU during transfers
/// and cannot overlap, kernel-offloaded stacks recover (1 - poll) of it.
[[nodiscard]] inline double recovered_seconds(double rho, double overlapped_price,
                                              double cpu_poll_fraction) {
    return rho * overlapped_price * (1.0 - cpu_poll_fraction);
}

/// GPU-era projection of one rank's instrumented step onto an accelerator
/// (machine/accelerator_model.hpp).  Three numbers per device, all seconds
/// per time step:
///   device   — every stage priced on the device roofline, fields in HBM
///   resident — device + two host<->device field crossings per step (the
///              IO/boundary slice a resident port still ships)
///   staged   — device + two crossings per *stage* (the naive per-kernel
///              offload; the host link becomes 1999's Fast Ethernet)
struct AccelProjection {
    double device = 0.0;
    double resident = 0.0;
    double staged = 0.0;
};

[[nodiscard]] inline AccelProjection project_accelerated(
    const perf::StageBreakdown& bd, const machine::AcceleratorModel& acc,
    const std::array<perf::StageShape, perf::kNumStages + 1>& shapes,
    std::size_t field_bytes) {
    const auto comp = compute_stage_seconds(bd, acc.device, shapes);
    AccelProjection t;
    for (std::size_t s = 1; s <= perf::kNumStages; ++s) t.device += comp[s];
    const double steps = bd.steps > 0 ? static_cast<double>(bd.steps) : 1.0;
    t.device /= steps;
    const double xfer = acc.transfer_seconds(field_bytes);
    t.resident = t.device + 2.0 * xfer;
    t.staged = t.device + 2.0 * static_cast<double>(perf::kNumStages) * xfer;
    return t;
}

struct CpuWall {
    double cpu = 0.0;
    double wall = 0.0;
};

/// Totals for one platform; `steps` normalises to per-time-step numbers.
[[nodiscard]] inline CpuWall price_run(
    const perf::StageBreakdown& bd, const simmpi::CommLog& log, const Platform& plat,
    int nprocs, const std::array<perf::StageShape, perf::kNumStages + 1>& shapes) {
    const auto& m = machine::by_name(plat.machine);
    const auto comp = compute_stage_seconds(bd, m, shapes);
    CpuWall t;
    double comm = 0.0, poll = 1.0;
    if (!plat.network.empty()) {
        const auto& net = netsim::by_name(plat.network);
        poll = net.cpu_poll_fraction;
        const auto cs = comm_stage_seconds(log, net, nprocs);
        for (std::size_t s = 1; s <= perf::kNumStages; ++s) comm += cs[s];
    }
    for (std::size_t s = 1; s <= perf::kNumStages; ++s) t.cpu += comp[s];
    t.wall = t.cpu + comm;
    t.cpu += comm * poll;
    const double steps = bd.steps > 0 ? static_cast<double>(bd.steps) : 1.0;
    t.cpu /= steps;
    t.wall /= steps;
    return t;
}

} // namespace app_model
