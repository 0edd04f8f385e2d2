/// Figures 13-14: NekTar-F stage percentages (CPU and wall-clock) within a
/// time step on 4 processors, for NCSA, IBM SP2 "Silver", RoadRunner
/// ethernet and RoadRunner myrinet.  Shape to reproduce: "the main
/// computational cost occurs at the non-linear step 2 ... MPI_Alltoall ...
/// creates a bottleneck in communications, which is apparent in the PC
/// clusters, where step 2 takes as much as 60% of the time" (ethernet), and
/// nearly identical CPU/wall pies on the polling networks.
#include <cstdio>

#include "lab/pricing.hpp"
#include "bench_util.hpp"
#include "nektar/workloads.hpp"

int main(int argc, char** argv) {
    namespace workloads = nektar::workloads;
    const benchutil::Cli cli = benchutil::Cli::parse("fig13_14_f_stages", argc, argv);
    const int nprocs = cli.request.ranks > 0 ? cli.request.ranks : 4;
    // The solver defaults to the pipelined transpose; rank 0's overlap log
    // holds the comm seconds it hid (priced on the probe network).
    const workloads::Run run =
        workloads::table2_fourier(nprocs, /*overlap_transpose=*/true, cli.trace);
    const auto shapes = app_model::solver_shapes(run.field_bytes, run.solver_bytes);

    const std::vector<app_model::Platform> plats = {
        {"NCSA", "NCSA", "NCSA"},
        {"IBM SP2 Silver", "SP2-Silver", "SP2-Silver internode"},
        {"RoadRunner eth.", "RoadRunner", "RoadRunner eth."},
        {"RoadRunner myr.", "RoadRunner", "RoadRunner myr."},
    };
    std::printf("Figures 13-14: NekTar-F stage percentages, %d-processor run.\n", nprocs);
    std::printf("Paper stage-2 shares: NCSA 41%%, SP2-Silver 53%%, RR-eth 69/71%%, "
                "RR-myr 55%%.\n\n");
    // Per-stage hidden fraction on the probe network: how much of each
    // stage's overlapped comm the schedule actually covered with compute.
    const auto probe_splits =
        app_model::comm_stage_splits(run.rank0.log, workloads::probe_net(), nprocs);
    const auto hidden = app_model::hidden_stage_seconds(run.rank0.overlap_log);
    std::array<double, perf::kNumStages + 1> rho{};
    for (std::size_t s = 1; s <= perf::kNumStages; ++s)
        rho[s] = app_model::overlap_efficiency(hidden[s], probe_splits[s].overlapped);

    perf::RunReport rep = perf::report("fig13_14_f_stages", &run.bd, &run.rank0);
    rep.meta["nprocs"] = std::to_string(nprocs);
    for (const auto& pl : plats) {
        if (!cli.machine_selected(pl.machine) || !cli.net_selected(pl.network)) continue;
        const auto& m = machine::by_name(pl.machine);
        const auto& net = netsim::by_name(pl.network);
        const auto comp = app_model::compute_stage_seconds(run.bd, m, shapes);
        const auto splits = app_model::comm_stage_splits(run.rank0.log, net, nprocs);
        double cpu_total = 0.0, wall_total = 0.0, recov_total = 0.0;
        std::array<double, perf::kNumStages + 1> cpu{}, wall{}, ovl{}, recov{};
        for (std::size_t s = 1; s <= perf::kNumStages; ++s) {
            // Compute and comm both cover the run's bd.steps steady steps.
            ovl[s] = splits[s].overlapped;
            recov[s] = app_model::recovered_seconds(rho[s], ovl[s], net.cpu_poll_fraction);
            cpu[s] = comp[s] + splits[s].total() * net.cpu_poll_fraction;
            wall[s] = comp[s] + splits[s].total() - recov[s];
            cpu_total += cpu[s];
            wall_total += wall[s];
            recov_total += recov[s];
        }
        std::printf("%s\n", pl.label.c_str());
        benchutil::Table table({"stage", "CPU %", "wall %", "ovl comm %", "recov ms"}, 14);
        table.print_header();
        for (std::size_t s = 1; s <= perf::kNumStages; ++s) {
            table.print_row({std::to_string(s) + " " + perf::stage_short_name(s),
                             benchutil::fmt(100.0 * cpu[s] / cpu_total, "%.0f"),
                             benchutil::fmt(100.0 * wall[s] / wall_total, "%.0f"),
                             benchutil::fmt(100.0 * ovl[s] / wall_total, "%.0f"),
                             benchutil::fmt(1e3 * recov[s] / run.bd.steps, "%.1f")});
            perf::Case kase;
            kase.labels["platform"] = pl.label;
            kase.labels["stage_name"] = perf::stage_short_name(s);
            kase.values["stage"] = static_cast<double>(s);
            kase.values["cpu_percent"] = 100.0 * cpu[s] / cpu_total;
            kase.values["wall_percent"] = 100.0 * wall[s] / wall_total;
            kase.values["overlapped_comm_percent"] = 100.0 * ovl[s] / wall_total;
            kase.values["recovered_ms_per_step"] = 1e3 * recov[s] / run.bd.steps;
            rep.cases.push_back(std::move(kase));
        }
        std::printf("wall time recovered by overlap: %.1f ms/step\n\n",
                    1e3 * recov_total / run.bd.steps);
    }
    cli.finish(std::move(rep));
    return 0;
}
