/// Ablation: how much network *unreliability* — not just mean
/// latency/bandwidth — costs the NekTar-F time step.  The paper's Fast
/// Ethernet wall-clock divergence (Table 2) is driven by retransmits and
/// stragglers on the shared wire; this sweep quantifies that mechanism by
/// running the real Fourier solver on the simulated cluster while the
/// seeded fault layer injects packet loss and per-rank slowdowns, then
/// reports per-stage wall-time inflation versus the fault-free baseline.
///
/// The sweep lands in the RunReport (one case per run, with per-stage
/// "stageN.*" keys) so downstream tooling can plot inflation-vs-loss-rate
/// curves per network; stdout gets a human-readable summary table.
///
/// A second sweep prices outright node *death*: a seeded kill event fells
/// one rank mid-run and the checkpoint/rollback harness (DESIGN.md §5.6)
/// replays from the last globally complete checkpoint.  The sweep varies
/// the checkpoint cadence and reports the virtual seconds thrown away,
/// plus a byte-identity check of the recovered state against the
/// failure-free run.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "lab/pricing.hpp"
#include "bench_util.hpp"
#include "ckpt/recovery.hpp"
#include "mesh/generators.hpp"
#include "nektar/workloads.hpp"

namespace {

struct FaultRun {
    perf::StageBreakdown bd; ///< rank 0's steady-step breakdown
    simmpi::CommLog log;     ///< rank 0's comm events over the same steps
    simmpi::FaultLog faults; ///< every rank's fault log over the same steps, summed
    double max_wall = 0.0;   ///< slowest rank's virtual wall clock
    double mean_cpu = 0.0;
};

FaultRun run_fourier(int nprocs, const netsim::NetworkModel& net) {
    mesh::BluffBodyParams p;
    p.n_upstream = 3;
    p.n_wake = 4;
    p.n_body = 2;
    p.n_side = 2;
    const auto base_mesh = std::make_shared<mesh::Mesh>(mesh::bluff_body_mesh(p));

    FaultRun data;
    const int steady = 2;
    simmpi::World world(nprocs, net);
    const auto reports = world.run([&](simmpi::Comm& c) {
        const auto disc = std::make_shared<nektar::Discretization>(base_mesh, 4);
        nektar::FourierNsOptions opts;
        opts.dt = 2e-3;
        opts.viscosity = 0.01;
        opts.num_modes = static_cast<std::size_t>(c.size()); // 2 planes per proc
        opts.u_bc = nektar::workloads::inflow_u;
        nektar::FourierNS ns(disc, opts, &c);
        nektar::workloads::start_perturbed(ns);
        ns.step(); // bootstrap (first-order start) excluded
        ns.breakdown() = {};
        c.clear_logs();
        for (int s = 0; s < steady; ++s) ns.step();
        if (c.rank() == 0) data.bd = ns.breakdown();
    });
    data.log = reports[0].log;
    for (const auto& rep : reports) {
        data.max_wall = std::max(data.max_wall, rep.wall_seconds);
        data.mean_cpu += rep.cpu_seconds / nprocs;
        for (const auto& [stage, fs] : rep.fault_log) data.faults[stage] += fs;
    }
    return data;
}

netsim::NetworkModel with_faults(const netsim::NetworkModel& base, unsigned long seed,
                                 double loss, double straggler_factor) {
    netsim::NetworkModel n = base;
    n.fault.seed = seed;
    n.fault.loss_probability = loss;
    // Loss detection on a kernel TCP stack costs a timeout ~an order of
    // magnitude above the base latency before the resend goes out.
    n.fault.retransmit_timeout_us = 10.0 * base.latency_us;
    n.fault.straggler_fraction = straggler_factor > 1.0 ? 0.25 : 0.0;
    n.fault.straggler_factor = straggler_factor;
    return n;
}

perf::Case make_case(const std::string& net_name, double loss, double straggler,
                     const FaultRun& r, const FaultRun& baseline,
                     const netsim::NetworkModel& net, int nprocs) {
    simmpi::FaultStageStats total;
    for (const auto& [stage, fs] : r.faults) total += fs;
    perf::Case c;
    c.labels["network"] = net_name;
    c.values["loss_rate"] = loss;
    c.values["straggler_factor"] = straggler;
    c.values["wall_seconds"] = r.max_wall;
    c.values["baseline_wall_seconds"] = baseline.max_wall;
    c.values["wall_inflation"] = r.max_wall / baseline.max_wall;
    c.values["cpu_seconds"] = r.mean_cpu;
    c.values["idle_seconds"] = r.max_wall - r.mean_cpu;
    c.values["retransmits"] = static_cast<double>(total.retransmits);
    c.values["fault_seconds"] = total.extra_seconds;
    const simmpi::CommPrice priced = simmpi::price(r.log, net, nprocs);
    for (int s = 1; s <= static_cast<int>(perf::kNumStages); ++s) {
        const auto it = r.faults.find(s);
        const simmpi::FaultStageStats fs = it != r.faults.end() ? it->second
                                                                : simmpi::FaultStageStats{};
        const double comm = priced.stage(s).total() / r.bd.steps;
        const double fault = fs.extra_seconds / r.bd.steps;
        const std::string prefix = "stage" + std::to_string(s) + ".";
        c.values[prefix + "comm_seconds"] = comm;
        c.values[prefix + "fault_seconds"] = fault;
        c.values[prefix + "retransmits"] = static_cast<double>(fs.retransmits);
        c.values[prefix + "wall_inflation"] = comm > 0.0 ? (comm + fault) / comm : 1.0;
    }
    return c;
}

struct RecoveryRun {
    ckpt::RecoveryStats stats;
    std::vector<std::vector<std::uint8_t>> final_ckpt; ///< per rank
    /// Per-rank comm-event counter after each completed step (failure-free
    /// probe use: indexes the kill placement).
    std::vector<std::vector<std::uint64_t>> events_after_step;
    double max_wall = 0.0; ///< slowest rank's wall clock, successful attempt only
};

/// Runs `nsteps` of NekTar-F on the same bluff-body problem as run_fourier,
/// checkpointing every `cadence` steps into a Store and recovering from any
/// seeded kill the network model carries.
RecoveryRun run_recoverable(int nprocs, const netsim::NetworkModel& net, int cadence,
                            int nsteps) {
    mesh::BluffBodyParams p;
    p.n_upstream = 3;
    p.n_wake = 4;
    p.n_body = 2;
    p.n_side = 2;
    const auto disc = std::make_shared<nektar::Discretization>(
        std::make_shared<mesh::Mesh>(mesh::bluff_body_mesh(p)), 4);

    nektar::FourierNsOptions opts;
    opts.dt = 2e-3;
    opts.viscosity = 0.01;
    opts.num_modes = static_cast<std::size_t>(nprocs); // 2 planes per proc
    opts.checkpoint_every = cadence;
    opts.u_bc = nektar::workloads::inflow_u;

    simmpi::World world(nprocs, net);
    ckpt::Store store;
    RecoveryRun out;
    out.final_ckpt.assign(static_cast<std::size_t>(nprocs), {});
    out.events_after_step.assign(static_cast<std::size_t>(nprocs), {});
    out.stats = ckpt::run_with_recovery(world, store, [&](simmpi::Comm& c, int from) {
        const auto r = static_cast<std::size_t>(c.rank());
        nektar::FourierNS ns(disc, opts, &c);
        ns.set_checkpoint_sink([&](const ckpt::Checkpoint& ck) {
            store.put(c.rank(), ns.steps_taken(), c.wall_time(), ck);
        });
        if (from >= 0)
            ns.restore(store.load(c.rank(), from));
        else
            nektar::workloads::start_perturbed(ns);
        out.events_after_step[r].clear();
        while (ns.steps_taken() < nsteps) {
            ns.step();
            out.events_after_step[r].push_back(c.comm_events());
        }
        out.final_ckpt[r] = ns.checkpoint().serialize();
    });
    for (const auto& rep : out.stats.reports)
        out.max_wall = std::max(out.max_wall, rep.wall_seconds);
    return out;
}

} // namespace

int main(int argc, char** argv) {
    const benchutil::Cli cli = benchutil::Cli::parse("ablation_fault_tolerance", argc, argv);
    const int nprocs = cli.request.ranks > 0 ? cli.request.ranks : 8;
    if (nprocs < 2) {
        std::fprintf(stderr, "%s: --ranks must be >= 2 (got %d)\n", argv[0], nprocs);
        return 2;
    }
    // The paper's year as the default seed; any fixed seed keeps runs
    // reproducible.
    const unsigned long seed = cli.request.seed != 0 ? cli.request.seed : 1999;
    const std::vector<std::string> networks = {"RoadRunner eth.", "RoadRunner myr.", "T3E"};
    const std::vector<double> loss_rates = {0.0, 0.001, 0.01, 0.05};
    const std::vector<double> straggler_factors = {2.0, 4.0};

    std::printf("Fault-tolerance ablation: NekTar-F wall-time inflation under packet\n"
                "loss and stragglers (P = %d, seed = %lu)\n\n", nprocs, seed);
    benchutil::Table table({"network", "loss", "straggler", "inflation", "retrans"}, 16);
    table.print_header();

    perf::RunReport rep = perf::report("ablation_fault_tolerance");
    rep.meta["nprocs"] = std::to_string(nprocs);
    rep.meta["fault_seed"] = std::to_string(seed);

    const auto run_point = [&](const std::string& name, const netsim::NetworkModel& base,
                               const FaultRun& baseline, const FaultRun& r, double loss,
                               double sf) {
        const perf::Case c = make_case(name, loss, sf, r, baseline, base, nprocs);
        table.print_row({name, benchutil::fmt(loss, "%g"), benchutil::fmt(sf, "%g"),
                         benchutil::fmt(c.values.at("wall_inflation"), "%.3f"),
                         benchutil::fmt(c.values.at("retransmits"), "%.0f")});
        rep.cases.push_back(c);
    };

    for (const auto& name : networks) {
        if (!cli.net_selected(name)) continue;
        const netsim::NetworkModel& base = netsim::by_name(name);
        // Fault-free baseline for this network.
        const FaultRun baseline = run_fourier(nprocs, with_faults(base, seed, 0.0, 1.0));
        // Loss-rate sweep at no straggling.
        for (const double loss : loss_rates) {
            const FaultRun r =
                loss == 0.0 ? baseline
                            : run_fourier(nprocs, with_faults(base, seed, loss, 1.0));
            run_point(name, base, baseline, r, loss, 1.0);
        }
        // Straggler-severity sweep at a fixed modest loss rate.
        for (const double sf : straggler_factors) {
            const FaultRun r = run_fourier(nprocs, with_faults(base, seed, 0.01, sf));
            run_point(name, base, baseline, r, 0.01, sf);
        }
    }

    // Kill/recovery sweep: the last rank dies inside the *final* step, so
    // each cadence rolls back to a different checkpoint (cadence 1 loses
    // one step, cadence 4 loses three).  The cadence trades checkpoint
    // frequency against the virtual seconds a kill throws away, and the
    // recovered state must stay byte-identical to the failure-free run.
    const netsim::NetworkModel recovery_base =
        with_faults(netsim::by_name("RoadRunner myr."), seed, 0.01, 1.0);
    const std::vector<int> cadences = cli.request.smoke ? std::vector<int>{2}
                                                : std::vector<int>{1, 2, 4};
    const int nsteps = 8;
    const int kill_rank = nprocs - 1;
    const RecoveryRun probe = run_recoverable(nprocs, recovery_base, /*cadence=*/1, nsteps);
    // First comm event of the final step, off the failure-free probe.
    const std::uint64_t kill_events =
        probe.events_after_step[static_cast<std::size_t>(kill_rank)]
                               [static_cast<std::size_t>(nsteps - 2)] + 1;

    std::printf("\nKill/recovery sweep: rank %d dies in step %d, rollback + replay from\n"
                "the last complete checkpoint (P = %d)\n\n",
                kill_rank, nsteps, nprocs);
    benchutil::Table rtable({"cadence", "restart", "attempts", "lost_sec", "identical"}, 12);
    rtable.print_header();
    for (const int cadence : cadences) {
        netsim::NetworkModel net = recovery_base;
        net.fault.kill_rank = kill_rank;
        net.fault.kill_after_events = kill_events;
        const RecoveryRun r = run_recoverable(nprocs, net, cadence, nsteps);
        const bool identical = r.final_ckpt == probe.final_ckpt;
        rtable.print_row({std::to_string(cadence), std::to_string(r.stats.restart_step),
                          std::to_string(r.stats.attempts),
                          benchutil::fmt(r.stats.lost_virtual_seconds, "%.3e"),
                          identical ? "yes" : "NO"});
        perf::Case c;
        c.labels["network"] = recovery_base.name;
        c.labels["sweep"] = "kill_recovery";
        c.values["checkpoint_cadence"] = static_cast<double>(cadence);
        c.values["kills"] = static_cast<double>(r.stats.kills);
        c.values["attempts"] = static_cast<double>(r.stats.attempts);
        c.values["restart_step"] = static_cast<double>(r.stats.restart_step);
        c.values["lost_virtual_seconds"] = r.stats.lost_virtual_seconds;
        c.values["wall_seconds"] = r.max_wall;
        c.values["failure_free_wall_seconds"] = probe.max_wall;
        c.values["recovered_identical"] = identical ? 1.0 : 0.0;
        rep.cases.push_back(c);
        r.stats.stamp(rep);
        if (!identical) {
            std::fprintf(stderr, "%s: recovered state diverged from the failure-free run "
                                 "(cadence %d)\n", argv[0], cadence);
            return 1;
        }
    }
    cli.finish(std::move(rep));
    return 0;
}
