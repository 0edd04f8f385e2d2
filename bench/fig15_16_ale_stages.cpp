/// Figures 15-16: NekTar-ALE stage percentages within a time step for the
/// flapping-wing run at 16 and 64 processors, grouped as the paper does:
///   a = steps 1-4 and 6 (transforms, nonlinear + mesh update, RHS setups)
///   b = step 5 (pressure PCG)
///   c = step 7 (viscous + mesh-velocity Helmholtz PCG)
/// Shape to reproduce: a ~6-9%, b ~40-42%, c ~50-55%, and CPU/wall pies
/// nearly identical (the GS library's pairwise/tree exchanges are cheap next
/// to the solves).
#include <cstdio>

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
        const auto shapes = app_model::solver_shapes(run.field_bytes, run.solver_bytes);
        const auto probe_splits =
            app_model::comm_stage_splits(run.rank0.log, workloads::probe_net(), nprocs);
        const auto hidden = app_model::hidden_stage_seconds(run.rank0.overlap_log);

        for (const auto& pl : std::vector<app_model::Platform>{
                 {"NCSA", "NCSA", "NCSA"},
                 {"RoadRunner myr.", "RoadRunner", "RoadRunner myr."}}) {
            if (!cli.machine_selected(pl.machine) || !cli.net_selected(pl.network))
                continue;
            const auto& mm = machine::by_name(pl.machine);
            const auto& net = netsim::by_name(pl.network);
            const auto comp = app_model::compute_stage_seconds(run.bd, mm, shapes);
            const auto splits = app_model::comm_stage_splits(run.rank0.log, net, nprocs);
            // Per-stage wall: comp + comm - recovered, where the nonblocking
            // GS exchanges earn back the hidden fraction of their overlapped
            // price on networks that free the CPU during transfers.
            std::array<double, perf::kNumStages + 1> wall_s{}, cpu_s{}, recov_s{};
            double recov_total = 0.0;
            for (std::size_t s = 1; s <= perf::kNumStages; ++s) {
                const double rho =
                    app_model::overlap_efficiency(hidden[s], probe_splits[s].overlapped);
                recov_s[s] = app_model::recovered_seconds(rho, splits[s].overlapped,
                                                          net.cpu_poll_fraction);
                cpu_s[s] = comp[s] + splits[s].total() * net.cpu_poll_fraction;
                wall_s[s] = comp[s] + splits[s].total() - recov_s[s];
                recov_total += recov_s[s];
            }
            // Bucket by the shared perf taxonomy instead of hardcoding the
            // stage sets (a = setup, b = pressure solve, c = viscous solve).
            double a_cpu = 0.0, b_cpu = 0.0, c_cpu = 0.0;
            double a_wall = 0.0, b_wall = 0.0, c_wall = 0.0;
            for (std::size_t s : perf::stages_in_group(perf::StageGroup::Setup)) {
                a_cpu += cpu_s[s];
                a_wall += wall_s[s];
            }
            for (std::size_t s : perf::stages_in_group(perf::StageGroup::PressureSolve)) {
                b_cpu += cpu_s[s];
                b_wall += wall_s[s];
            }
            for (std::size_t s : perf::stages_in_group(perf::StageGroup::ViscousSolve)) {
                c_cpu += cpu_s[s];
                c_wall += wall_s[s];
            }
            const double tc = a_cpu + b_cpu + c_cpu;
            const double tw = a_wall + b_wall + c_wall;
            std::printf("P = %d, %s:  CPU  a %.0f%%  b %.0f%%  c %.0f%%   |   "
                        "wall  a %.0f%%  b %.0f%%  c %.0f%%   |   "
                        "overlap recovers %.1f ms/step\n",
                        nprocs, pl.label.c_str(), 100.0 * a_cpu / tc, 100.0 * b_cpu / tc,
                        100.0 * c_cpu / tc, 100.0 * a_wall / tw, 100.0 * b_wall / tw,
                        100.0 * c_wall / tw, 1e3 * recov_total / run.bd.steps);
            perf::Case kase;
            kase.labels["platform"] = pl.label;
            kase.values["nprocs"] = static_cast<double>(nprocs);
            kase.values["cpu_percent.setup"] = 100.0 * a_cpu / tc;
            kase.values["cpu_percent.pressure"] = 100.0 * b_cpu / tc;
            kase.values["cpu_percent.viscous"] = 100.0 * c_cpu / tc;
            kase.values["wall_percent.setup"] = 100.0 * a_wall / tw;
            kase.values["wall_percent.pressure"] = 100.0 * b_wall / tw;
            kase.values["wall_percent.viscous"] = 100.0 * c_wall / tw;
            kase.values["recovered_ms_per_step"] = 1e3 * recov_total / run.bd.steps;
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
