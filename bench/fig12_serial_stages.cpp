/// Figure 12: percentage of each of the 7 stages within a serial bluff-body
/// time step, for the SGI Onyx2 and the Pentium II.  The paper finds "matrix
/// inversions account for 60% of the total CPU time, with the setup of the
/// right hand side ... another 20%" and <1-2% difference between machines.
#include <cstdio>

#include "lab/pricing.hpp"
#include "bench_util.hpp"
#include "nektar/workloads.hpp"

int main(int argc, char** argv) {
    const benchutil::Cli cli = benchutil::Cli::parse("fig12_serial_stages", argc, argv);
    const nektar::workloads::Run run = nektar::workloads::table1_serial(cli.trace);

    std::printf("Figure 12: CPU time percentage of each stage within a time step\n\n");
    perf::RunReport rep = perf::report("fig12_serial_stages", &run.bd);
    // Paper's pie values for reference.
    const double paper_onyx[8] = {0, 4, 11, 3, 9, 30, 12, 31};
    const double paper_pii[8] = {0, 3, 10, 5, 8, 31, 11, 32};
    for (const char* machine : {"Onyx2", "Muses"}) {
        if (!cli.machine_selected(machine)) continue;
        const auto t = app_model::price(run, {"", machine, ""});
        double total = 0.0;
        for (std::size_t s = 1; s <= perf::kNumStages; ++s) total += t.stages[s].compute;
        std::printf("%s (paper: %s)\n", machine,
                    std::string(machine) == "Onyx2" ? "SGI Onyx 2" : "Pentium PII, 450Mhz");
        benchutil::Table table({"stage", "description", "ours %", "paper %"}, 30);
        table.print_header();
        for (std::size_t s = 1; s <= perf::kNumStages; ++s) {
            const double* ref = std::string(machine) == "Onyx2" ? paper_onyx : paper_pii;
            table.print_row({std::to_string(s), perf::stage_name(s),
                             benchutil::fmt(100.0 * t.stages[s].compute / total, "%.0f"),
                             benchutil::fmt(ref[s], "%.0f")});
            perf::Case kase;
            kase.labels["machine"] = machine;
            kase.labels["stage_name"] = perf::stage_name(s);
            kase.values["stage"] = static_cast<double>(s);
            kase.values["cpu_percent"] = 100.0 * t.stages[s].compute / total;
            kase.values["paper_percent"] = ref[s];
            rep.cases.push_back(std::move(kase));
        }
        std::printf("\n");
    }
    cli.finish(std::move(rep));
    return 0;
}
