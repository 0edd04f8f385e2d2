/// Table 1: CPU time per time step of the serial bluff-body simulation on
/// seven machines.  The paper's run: 902 elements, polynomial order 8,
/// 230,000 dof.  The solver executes here on a reduced version of the same
/// mesh; its instrumented operation stream is priced on each machine model.
/// Shape to reproduce: "only the P2SC nodes are faster than the PC, with the
/// T3E being just as fast."
#include <cstdio>
#include <map>

#include "lab/pricing.hpp"
#include "bench_util.hpp"
#include "nektar/workloads.hpp"

int main(int argc, char** argv) {
    namespace workloads = nektar::workloads;
    const benchutil::Cli cli = benchutil::Cli::parse("table1_serial", argc, argv);
    // Reduced bluff-body workload (the paper's full 230k-dof problem at the
    // same physics); the relative machine ordering is scale-independent.
    const workloads::Run run = workloads::table1_serial(cli.trace);

    std::printf("Table 1: serial bluff-body simulation, CPU seconds / time step\n");
    std::printf("(run here: %s, order %zu, %zu dof; paper: 902 elements, order 8, 230k dof)\n\n",
                workloads::table1_mesh().summary().c_str(), workloads::kTable1Order, run.dof);

    // Paper's reported values for the shape comparison.
    const std::map<std::string, double> paper = {
        {"AP3000", 1.22}, {"Onyx2", 1.03},     {"Muses", 0.81}, {"SP2-Thin2", 1.44},
        {"SP2-Silver", 1.3}, {"T3E", 0.82},    {"P2SC", 0.71}};
    const std::vector<std::pair<std::string, std::string>> rows = {
        {"Fujitsu AP3000", "AP3000"},       {"Onyx 2", "Onyx2"},
        {"Pentium II, 450Mhz", "Muses"},    {"SP2 \"Thin2\" nodes", "SP2-Thin2"},
        {"SP2 \"Silver\" nodes", "SP2-Silver"}, {"T3E", "T3E"},
        {"P2SC", "P2SC"}};

    benchutil::Table table({"Machine", "s/step", "vs PC", "paper s/step", "paper vs PC"}, 22);
    table.print_header();
    perf::RunReport rep = perf::report("table1_serial", &run.bd);
    const auto pc = app_model::price(run, {"", "Muses", ""});
    for (const auto& [label, key] : rows) {
        if (!cli.machine_selected(key)) continue;
        const auto t = app_model::price(run, {"", key, ""});
        table.print_row({label, benchutil::fmt(t.cpu, "%.3f"),
                         benchutil::fmt(t.cpu / pc.cpu, "%.2f"),
                         benchutil::fmt(paper.at(key), "%.2f"),
                         benchutil::fmt(paper.at(key) / 0.81, "%.2f")});
        perf::Case kase;
        kase.labels["machine"] = key;
        kase.values["cpu_seconds_per_step"] = t.cpu;
        kase.values["vs_pc"] = t.cpu / pc.cpu;
        kase.values["paper_seconds_per_step"] = paper.at(key);
        kase.values["paper_vs_pc"] = paper.at(key) / 0.81;
        rep.cases.push_back(std::move(kase));
    }
    std::printf("\nHost-measured time on this machine: %.3f s/step\n",
                run.bd.total_host_seconds() / run.bd.steps);
    cli.finish(std::move(rep));
    return 0;
}
