#pragma once

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "machine/accelerator_model.hpp"
#include "machine/machine_model.hpp"
#include "nektar/workloads.hpp"
#include "netsim/faultmodel.hpp"
#include "netsim/netmodel.hpp"
#include "perf/stage_stats.hpp"
#include "simmpi/simmpi.hpp"

/// \file pricing.hpp
/// Pricing of an instrumented solver run on the paper's machines.
///
/// The solvers execute for real on this host and record, per stage, the
/// flops/bytes their kernels moved plus every communication event.  price()
/// maps that operation stream onto a (machine, network) pair with the
/// paper's CPU-vs-wall-clock rule (§4.2); every table, figure and lab answer
/// is priced through it.  The file is header-only so the perfbench driver
/// prices its runs without linking the lab library.
namespace app_model {

/// A machine/interconnect pairing used in the application tables.
struct Platform {
    std::string label;          ///< row/column label, as in the paper's tables
    std::string machine;        ///< machine::by_name key
    std::string network;        ///< netsim::by_name key ("" = serial)
};

/// One perf::StageShape per stage slot (1..7).
using StageShapes = std::array<perf::StageShape, perf::kNumStages + 1>;

/// Stage shapes for the spectral/hp solvers: stages 1-4 and 6 are
/// quadrature-space vector algebra over the whole field; stages 5 and 7
/// stream the banded factors (direct path) or elemental matrices (PCG path).
[[nodiscard]] inline StageShapes solver_shapes(std::size_t field_bytes,
                                               std::size_t solver_bytes) {
    StageShapes shapes;
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
    const perf::StageBreakdown& bd, const machine::MachineModel& m, const StageShapes& shapes) {
    std::array<double, perf::kNumStages + 1> out{};
    for (std::size_t s = 1; s <= perf::kNumStages; ++s)
        out[s] = bd.predict_stage_seconds(m, s, shapes[s]);
    return out;
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
    const StageShapes& shapes, std::size_t field_bytes) {
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

/// One stage of a priced run, summed over the measured window (the run's
/// `steps` steady steps).
struct StagePrice {
    double compute = 0.0;          ///< rank 0's predicted compute
    simmpi::SplitSeconds comm;     ///< blocking and overlapped comm, unfaulted
    double recovered = 0.0;        ///< overlapped comm the run hid, credited
    double cpu = 0.0;              ///< compute + comm x inflation x poll
    double wall = 0.0;             ///< compute + comm x inflation - recovered
};

/// A run priced on one platform: stage rows over the window, totals per
/// time step.
struct RunPrice {
    std::array<StagePrice, perf::kNumStages + 1> stages; ///< slots 1..7
    double compute = 0.0;         ///< mean rank's compute per step
    double compute_max = 0.0;     ///< slowest rank's compute per step
    double comm = 0.0;            ///< comm per step, unfaulted
    double inflation = 1.0;       ///< fault inflation applied to comm
    double recovered = 0.0;       ///< wall seconds overlap recovers per step
    double cpu = 0.0;             ///< compute + comm x inflation x poll
    double wall = 0.0;            ///< compute_max + comm x inflation - recovered
    double hidden_fraction = 0.0; ///< share of the overlapped comm the run hid
};

/// The paper's CPU/wall-clock rule (§4.2), written once.  Compute comes from
/// each rank's operation counts on `m`; communication from rank 0's comm log
/// on `net` (none when serial), where only the seven stages count: events
/// outside them (setup, diagnostics, a driver's own barriers) are not part
/// of a time step.  Per time step:
///   cpu  = mean-rank compute + comm x inflation x poll
///   wall = slowest-rank compute + comm x inflation - recovered
/// so wall - cpu is the idle time the network causes.  A stage recovers
///   recovered_s = (hidden_s / overlapped_s on probe_net()) x overlapped_s x (1 - poll)
/// The ratio is how much of the stage's nonblocking comm the run's schedule
/// covered with compute, read from rank 0's overlap log on the network the
/// run executed on; it is a property of the schedule, so it transfers to the
/// target network.  A polling stack (poll = 1) burns the CPU during transfers
/// and recovers nothing.  `fault` inflates comm by its expected cost.
[[nodiscard]] inline RunPrice price(const std::vector<perf::StageBreakdown>& rank_bds,
                                    const simmpi::CommLog& log,
                                    const simmpi::OverlapLog& overlap,
                                    const StageShapes& shapes,
                                    const machine::MachineModel& m,
                                    const netsim::NetworkModel* net, int nprocs,
                                    const netsim::FaultModel* fault = nullptr) {
    RunPrice t;
    const auto per_step = [&](const perf::StageBreakdown& bd) {
        const auto comp = compute_stage_seconds(bd, m, shapes);
        double c = 0.0;
        for (std::size_t s = 1; s <= perf::kNumStages; ++s) c += comp[s];
        return c / (bd.steps > 0 ? bd.steps : 1);
    };
    // The mean is taken as rank 0's compute plus the mean offset from it, so
    // ranks that all price the same compute give exactly that compute.
    const double c0 = per_step(rank_bds.front());
    double offset = 0.0;
    for (const auto& bd : rank_bds) {
        const double c = per_step(bd);
        offset += c - c0;
        t.compute_max = std::max(t.compute_max, c);
    }
    t.compute = c0 + offset / static_cast<double>(rank_bds.size());
    const auto comp0 = compute_stage_seconds(rank_bds.front(), m, shapes);
    const double steps = rank_bds.front().steps > 0 ? rank_bds.front().steps : 1;

    simmpi::CommPrice comm, probe;
    double poll = 1.0;
    std::array<double, perf::kNumStages + 1> hidden{};
    if (net != nullptr) {
        simmpi::CommLog in_steps = log;
        std::erase_if(in_steps, [](const auto& e) { return perf::stage_slot(e.first) == 0; });
        comm = simmpi::price(in_steps, *net, nprocs);
        poll = net->cpu_poll_fraction;
        if (!overlap.empty())
            probe = simmpi::price(in_steps, nektar::workloads::probe_net(), nprocs);
        for (const auto& [stage, h] : overlap) hidden[perf::stage_slot(stage)] += h;
    }
    t.comm = comm.total.total() / steps;
    if (fault != nullptr) t.inflation = fault->expected_inflation(t.comm);

    double recovered = 0.0, hidden_total = 0.0;
    for (std::size_t s = 1; s <= perf::kNumStages; ++s) {
        StagePrice& row = t.stages[s];
        row.compute = comp0[s];
        row.comm = comm.stage(static_cast<int>(s));
        const double probe_ovl = probe.stage(static_cast<int>(s)).overlapped;
        const double rho = probe_ovl > 0.0 ? std::clamp(hidden[s] / probe_ovl, 0.0, 1.0) : 0.0;
        row.recovered = rho * row.comm.overlapped * (1.0 - poll);
        const double c = row.comm.total() * t.inflation;
        row.cpu = row.compute + c * poll;
        row.wall = row.compute + c - row.recovered;
        recovered += row.recovered;
        hidden_total += hidden[s];
    }
    if (probe.total.overlapped > 0.0)
        t.hidden_fraction = std::clamp(hidden_total / probe.total.overlapped, 0.0, 1.0);
    t.recovered = recovered / steps;
    t.cpu = t.compute + t.comm * t.inflation * poll;
    t.wall = t.compute_max + t.comm * t.inflation - t.recovered;
    return t;
}

/// A workload run (nektar/workloads.hpp) priced on one platform.
[[nodiscard]] inline RunPrice price(const nektar::workloads::Run& run, const Platform& plat,
                                    const netsim::FaultModel* fault = nullptr) {
    return price(run.rank_bds, run.rank0.log, run.rank0.overlap_log,
                 solver_shapes(run.field_bytes, run.solver_bytes), machine::by_name(plat.machine),
                 plat.network.empty() ? nullptr : &netsim::by_name(plat.network),
                 static_cast<int>(run.rank_bds.size()), fault);
}

/// One rank's breakdown and comm log with no overlap log.
[[nodiscard]] inline RunPrice price_run(
    const perf::StageBreakdown& bd, const simmpi::CommLog& log, const Platform& plat,
    int nprocs, const StageShapes& shapes) {
    return price({bd}, log, {}, shapes, machine::by_name(plat.machine),
                 plat.network.empty() ? nullptr : &netsim::by_name(plat.network), nprocs);
}

} // namespace app_model
