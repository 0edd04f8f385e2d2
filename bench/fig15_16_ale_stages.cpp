/// Figures 15-16: NekTar-ALE stage percentages within a time step for the
/// flapping-wing run at 16 and 64 processors, grouped as the paper does:
///   a = steps 1-4 and 6 (transforms, nonlinear + mesh update, RHS setups)
///   b = step 5 (pressure PCG)
///   c = step 7 (viscous + mesh-velocity Helmholtz PCG)
/// Shape to reproduce: a ~6-9%, b ~40-42%, c ~50-55%, and CPU/wall pies
/// nearly identical (the GS library's pairwise/tree exchanges are cheap next
/// to the solves).
#include <array>
#include <cstdio>
#include <string>

#include "lab/pricing.hpp"
#include "bench_util.hpp"
#include "nektar/workloads.hpp"

int main(int argc, char** argv) {
    namespace workloads = nektar::workloads;
    const benchutil::Cli cli = benchutil::Cli::parse("fig15_16_ale_stages", argc, argv);

    std::printf("Figures 15-16: NekTar-ALE stage percentages (a / b / c).\n");
    std::printf("Paper: 16 procs NCSA 9/41/50, RR-myr 6/42/53;  64 procs NCSA 8/40/52, "
                "RR-myr 3/42/55.\n\n");

    perf::RunReport rep = perf::report("fig15_16_ale_stages");
    workloads::Run last;
    bool traced = false; // --trace records the first (smallest-P) run only
    for (int nprocs : cli.rank_sweep({4, 16})) {
        // The solver defaults to the nonblocking GS exchange; rank 0's
        // overlap log holds the comm seconds it hid (priced on the probe
        // network).
        const workloads::Run run =
            workloads::table3_ale(nprocs, /*overlap_gs=*/true, cli.trace && !traced);
        if (cli.trace && !traced) obs::tracer().disable(); // one traced run only
        traced = true;
        for (const auto& pl : std::vector<app_model::Platform>{
                 {"NCSA", "NCSA", "NCSA"},
                 {"RoadRunner myr.", "RoadRunner", "RoadRunner myr."}}) {
            if (!cli.machine_selected(pl.machine) || !cli.net_selected(pl.network))
                continue;
            // Stage wall: comp + comm - recovered, where the nonblocking GS
            // exchanges earn back the hidden fraction of their overlapped
            // price on networks that free the CPU during transfers.
            const auto t = app_model::price(run, pl);
            // Bucket by the shared perf taxonomy instead of hardcoding the
            // stage sets (a = setup, b = pressure solve, c = viscous solve).
            std::array<double, 3> cpu{}, wall{};
            for (std::size_t s = 1; s <= perf::kNumStages; ++s) {
                const auto g = static_cast<std::size_t>(perf::stage_group(s));
                cpu[g] += t.stages[s].cpu;
                wall[g] += t.stages[s].wall;
            }
            const double tc = cpu[0] + cpu[1] + cpu[2];
            const double tw = wall[0] + wall[1] + wall[2];
            perf::Case kase;
            kase.labels["platform"] = pl.label;
            kase.values["nprocs"] = static_cast<double>(nprocs);
            for (std::size_t g = 0; g < 3; ++g) {
                const std::string group[] = {"setup", "pressure", "viscous"};
                cpu[g] = 100.0 * cpu[g] / tc;
                wall[g] = 100.0 * wall[g] / tw;
                kase.values["cpu_percent." + group[g]] = cpu[g];
                kase.values["wall_percent." + group[g]] = wall[g];
            }
            std::printf("P = %d, %s:  CPU  a %.0f%%  b %.0f%%  c %.0f%%   |   "
                        "wall  a %.0f%%  b %.0f%%  c %.0f%%   |   "
                        "overlap recovers %.1f ms/step\n",
                        nprocs, pl.label.c_str(), cpu[0], cpu[1], cpu[2], wall[0], wall[1],
                        wall[2], 1e3 * t.recovered);
            kase.values["recovered_ms_per_step"] = 1e3 * t.recovered;
            rep.cases.push_back(std::move(kase));
        }
        std::printf("\n");
        last = run;
    }
    // Stage rows come from rank 0 of the last sweep run.
    perf::RunReport out = perf::report("fig15_16_ale_stages", &last.bd, &last.rank0);
    out.cases = std::move(rep.cases);
    cli.finish(std::move(out));
    return 0;
}
