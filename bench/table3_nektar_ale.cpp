/// Table 3: parallel NekTar-ALE flapping-wing run, CPU/wall-clock seconds
/// per time step for P = 16..128 on five systems.  Strong scaling: the dof
/// count is fixed (paper: 4,062,720 dof, 15,870 elements, order 4) so
/// timings fall with P.  Shape to reproduce: myrinet fastest at 16, slightly
/// slower than the SP2-Silver at 64; AP3000 and SP2-Thin2 trail badly.
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
        {"RoadRunner myr.", "RoadRunner", "RoadRunner myr."},
    };
    return p;
}

} // namespace

int main(int argc, char** argv) {
    const benchutil::Cli cli = benchutil::Cli::parse("table3_nektar_ale", argc, argv);
    std::printf("Table 3: NekTar-ALE flapping-body run, CPU/wall seconds per step.\n");
    std::printf("Strong scaling on a fixed mesh; PCG + gather-scatter communications\n");
    std::printf("(no MPI_Alltoall), exactly the paper's §4.2.2 configuration.\n\n");
    std::printf("Paper, P=16: AP3000 43.2/43.7  NCSA 25.7/25.8  Silver 29.6/29.7  "
                "Thin2 65.5/69.2  RR-myr 25.4/25.4\n\n");

    std::printf("Mesh: %s, order %zu\n\n", workloads::table3_mesh().summary().c_str(),
                workloads::kTable3Order);

    std::vector<app_model::Platform> selected;
    for (const auto& pl : platforms())
        if (cli.machine_selected(pl.machine) && cli.net_selected(pl.network))
            selected.push_back(pl);
    if (selected.empty()) {
        std::fprintf(stderr, "table3_nektar_ale: no platform matches the given "
                             "--machine/--net filters\n");
        return 2;
    }

    std::vector<std::string> headers = {"P"};
    for (const auto& pl : selected) headers.push_back(pl.label);
    benchutil::Table table(headers, 16);
    table.print_header();

    perf::RunReport rep = perf::report("table3_nektar_ale");
    workloads::Run last;
    bool traced = false; // --trace records the first (smallest-P) run only
    for (int nprocs : cli.rank_sweep({4, 8, 16, 32})) {
        const bool trace_this = cli.trace && !traced;
        const workloads::Run run =
            workloads::table3_ale(nprocs, /*overlap_gs=*/false, trace_this);
        // One clean traced sweep: the comm-layer spans are gated only by the
        // global tracer, so stop recording after the dedicated run.
        if (trace_this) obs::tracer().disable();
        traced = true;
        last = run;
        std::vector<std::string> row = {std::to_string(nprocs)};
        for (const auto& pl : selected) {
            const auto t = app_model::price(run, pl);
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
    std::printf("\n(reduced mesh; compare the scaling trend and platform ordering with\n"
                "the paper's Table 3, where timings drop with P at fixed dof count)\n");

    // GPU-era projection of the last sweep's rank-0 step (see table2 for the
    // column semantics); the ALE step's PCG-heavy stages are latency-bound,
    // exactly where the device roofline gains the least.
    std::printf("\nGPU-era projection (rank-0 seconds/step on accelerator rooflines;\n"
                "device / +2 field crossings per step / +2 crossings per stage)\n\n");
    benchutil::project_on_accelerators(last, rep);

    // Overlap ablation: the gather-scatter pairwise stage over posted
    // irecvs (per-neighbour packing overlapped with transfers in flight)
    // against the blocking sendrecv loop.  Ethernet included here because a
    // kernel-TCP stack (poll < 1) is exactly where overlap pays off.
    std::printf("\nNonblocking gather-scatter exchange vs blocking sendrecv\n");
    std::printf("(CPU/wall s per step; 'recov' = wall seconds recovered per step)\n\n");
    const std::vector<app_model::Platform> ablation_plats = {
        {"NCSA", "NCSA", "NCSA"},
        {"RoadRunner eth.", "RoadRunner", "RoadRunner eth."},
        {"RoadRunner myr.", "RoadRunner", "RoadRunner myr."},
    };
    for (int nprocs : {8, 16}) {
        const workloads::Run blk = workloads::table3_ale(nprocs, /*overlap_gs=*/false);
        const workloads::Run ovl = workloads::table3_ale(nprocs);
        benchutil::print_overlap_ablation(nprocs, blk, ovl, ablation_plats, "overlap_gs", rep);
    }
    // Stage rows come from rank 0 of the last Table-3 sweep run.
    perf::RunReport out = perf::report("table3_nektar_ale", &last.bd, &last.rank0);
    out.cases = std::move(rep.cases);
    cli.finish(std::move(out));
    return 0;
}
