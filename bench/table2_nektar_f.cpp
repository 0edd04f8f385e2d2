/// Table 2: parallel NekTar-F CPU/wall-clock seconds per time step of the
/// turbulent bluff-body simulation, for P = 2..128 processors on seven
/// systems.  Weak scaling exactly as in the paper: the number of Fourier
/// planes grows with P so that every processor always holds 2 planes (one
/// complex mode); per-step timings should therefore stay flat on a perfect
/// network.  Shapes to reproduce: ethernet saturates above ~4-8 processors
/// (wall-clock diverging from CPU), Myrinet stays competitive to ~64, and
/// the vendor networks stay flat.
#include <cstdio>

#include "lab/pricing.hpp"
#include "bench_util.hpp"
#include "nektar/workloads.hpp"

namespace {

namespace workloads = nektar::workloads;

const std::vector<app_model::Platform>& platforms() {
    static const std::vector<app_model::Platform> p = {
        {"AP3000", "AP3000", "AP3000"},
        {"NCSA", "NCSA", "NCSA"},
        {"SP2 Silver", "SP2-Silver", "SP2-Silver internode"},
        {"SP2 Thin2", "SP2-Thin2", "SP2-thin2"},
        {"RoadRunner eth.", "RoadRunner", "RoadRunner eth."},
        {"RoadRunner myr.", "RoadRunner", "RoadRunner myr."},
        {"Muses", "Muses", "Muses"},
    };
    return p;
}

} // namespace

int main(int argc, char** argv) {
    const benchutil::Cli cli = benchutil::Cli::parse("table2_nektar_f", argc, argv);
    std::printf("Table 2: NekTar-F bluff-body run, CPU/wall-clock seconds per step.\n");
    std::printf("Weak scaling: 2 Fourier planes per processor (paper: 461k dof/proc\n");
    std::printf("class workload; here a reduced mesh, same algorithm and comm pattern).\n\n");

    // Paper's P=4 row for orientation.
    std::printf("Paper, P=4: AP3000 4.52/4.59  NCSA 4.96/4.99  Silver 5.94/5.96  "
                "Thin2 5.91/5.98\n            RR-eth 6.99/8.27  RR-myr 4.15/4.15  "
                "Muses 5.59/6.2\n\n");

    std::vector<app_model::Platform> selected;
    for (const auto& pl : platforms())
        if (cli.machine_selected(pl.machine) && cli.net_selected(pl.network))
            selected.push_back(pl);
    if (selected.empty()) {
        std::fprintf(stderr, "table2_nektar_f: no platform matches the given "
                             "--machine/--net filters\n");
        return 2;
    }

    std::vector<std::string> headers = {"P"};
    for (const auto& pl : selected) headers.push_back(pl.label);
    benchutil::Table table(headers, 17);
    table.print_header();

    perf::RunReport rep = perf::report("table2_nektar_f");
    workloads::Run last;
    bool traced = false; // --trace records the first (smallest-P) run only
    for (int nprocs : cli.rank_sweep({2, 4, 8, 16, 32, 64})) {
        const bool trace_this = cli.trace && !traced;
        const workloads::Run data =
            workloads::table2_fourier(nprocs, /*overlap_transpose=*/false, trace_this);
        // Stop recording after the dedicated traced run so the Perfetto file
        // holds exactly one clean sweep (the comm-layer spans are gated only
        // by the global tracer, not per-run).
        if (trace_this) obs::tracer().disable();
        traced = true;
        last = data;
        std::vector<std::string> row = {std::to_string(nprocs)};
        for (const auto& pl : selected) {
            // Muses is a 4-PC cluster; the paper has n/a beyond P=4.
            if (pl.label == "Muses" && nprocs > 4) {
                row.push_back("n/a");
                continue;
            }
            const auto t = app_model::price(data, pl);
            row.push_back(benchutil::fmt(t.cpu, "%.2f") + "/" + benchutil::fmt(t.wall, "%.2f"));
            perf::Case kase;
            kase.labels["platform"] = pl.label;
            kase.values["nprocs"] = static_cast<double>(nprocs);
            kase.values["cpu_seconds_per_step"] = t.cpu;
            kase.values["wall_seconds_per_step"] = t.wall;
            kase.values["comm_seconds_per_step"] = t.comm;
            rep.cases.push_back(std::move(kase));
        }
        table.print_row(row);
    }
    std::printf("\n(values are predicted 1999-machine seconds for the reduced workload;\n"
                "compare trends across P and platforms with the paper's Table 2)\n");

    // GPU-era projection: the same instrumented per-rank step, priced on
    // accelerator-class rooflines (device HBM as memory, a priced PCIe-class
    // host link).  The staged column is the 1999 lesson replayed: a solver
    // that crosses the link every kernel loses to the link, not the device.
    std::printf("\nGPU-era projection (per-rank seconds/step on accelerator rooflines;\n"
                "device = fields resident in HBM, resident = +2 field crossings/step,\n"
                "staged = +2 crossings per stage over the host link)\n\n");
    benchutil::project_on_accelerators(last, rep);

    // Overlap ablation: the pipelined transpose (isend/irecv slices of the
    // alltoall overlapped against the z-line FFT work) against the blocking
    // exchange.  Only networks whose MPI stack frees the CPU during
    // transfers (poll < 1) can recover wall time (app_model::price).
    std::printf("\nCommunication/computation overlap in the nonlinear transposes\n");
    std::printf("(blocking vs overlapped CPU/wall s per step; 'recov' = wall seconds\n"
                "recovered per step = hidden fraction x comm price x (1 - poll))\n\n");
    for (int nprocs : {4, 16}) {
        const workloads::Run blk =
            workloads::table2_fourier(nprocs, /*overlap_transpose=*/false);
        const workloads::Run ovl = workloads::table2_fourier(nprocs);
        std::vector<app_model::Platform> plats;
        for (const auto& pl : selected)
            if (pl.label != "Muses" || nprocs <= 4) plats.push_back(pl);
        benchutil::print_overlap_ablation(nprocs, blk, ovl, plats, "overlap_transpose", rep);
    }
    // Stage rows come from the last Table-2 sweep run; the cases collected
    // above carry the per-platform numbers.
    perf::RunReport out = perf::report("table2_nektar_f", &last.bd, &last.rank0);
    out.cases = std::move(rep.cases);
    cli.finish(std::move(out));
    return 0;
}
