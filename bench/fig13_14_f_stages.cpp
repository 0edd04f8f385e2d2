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

    const std::vector<app_model::Platform> plats = {
        {"NCSA", "NCSA", "NCSA"},
        {"IBM SP2 Silver", "SP2-Silver", "SP2-Silver internode"},
        {"RoadRunner eth.", "RoadRunner", "RoadRunner eth."},
        {"RoadRunner myr.", "RoadRunner", "RoadRunner myr."},
    };
    std::printf("Figures 13-14: NekTar-F stage percentages, %d-processor run.\n", nprocs);
    std::printf("Paper stage-2 shares: NCSA 41%%, SP2-Silver 53%%, RR-eth 69/71%%, "
                "RR-myr 55%%.\n\n");
    perf::RunReport rep = perf::report("fig13_14_f_stages", &run.bd, &run.rank0);
    rep.meta["nprocs"] = std::to_string(nprocs);
    for (const auto& pl : plats) {
        if (!cli.machine_selected(pl.machine) || !cli.net_selected(pl.network)) continue;
        // Stage rows cover the run's bd.steps steady steps.
        const auto t = app_model::price(run, pl);
        double cpu_total = 0.0, wall_total = 0.0;
        for (std::size_t s = 1; s <= perf::kNumStages; ++s) {
            cpu_total += t.stages[s].cpu;
            wall_total += t.stages[s].wall;
        }
        std::printf("%s\n", pl.label.c_str());
        benchutil::Table table({"stage", "CPU %", "wall %", "ovl comm %", "recov ms"}, 14);
        table.print_header();
        for (std::size_t s = 1; s <= perf::kNumStages; ++s) {
            const auto& st = t.stages[s];
            const double cpu = 100.0 * st.cpu / cpu_total;
            const double wall = 100.0 * st.wall / wall_total;
            const double ovl = 100.0 * st.comm.overlapped / wall_total;
            const double recov = 1e3 * st.recovered / run.bd.steps;
            table.print_row({std::to_string(s) + " " + perf::stage_short_name(s),
                             benchutil::fmt(cpu, "%.0f"), benchutil::fmt(wall, "%.0f"),
                             benchutil::fmt(ovl, "%.0f"), benchutil::fmt(recov, "%.1f")});
            perf::Case kase;
            kase.labels["platform"] = pl.label;
            kase.labels["stage_name"] = perf::stage_short_name(s);
            kase.values["stage"] = static_cast<double>(s);
            kase.values["cpu_percent"] = cpu;
            kase.values["wall_percent"] = wall;
            kase.values["overlapped_comm_percent"] = ovl;
            kase.values["recovered_ms_per_step"] = recov;
            rep.cases.push_back(std::move(kase));
        }
        std::printf("wall time recovered by overlap: %.1f ms/step\n\n", 1e3 * t.recovered);
    }
    cli.finish(std::move(rep));
    return 0;
}
