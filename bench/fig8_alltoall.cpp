/// Figure 8: MPI_Alltoall average per-process bandwidth for 4 and 8
/// processors across the nine network configurations, measured the paper's
/// way: a globally synchronised loop of 100 Alltoall calls.  The analytic
/// sweep gives the full size ladder; a simmpi run (real data movement, timed
/// on the virtual clock) cross-checks selected sizes.
#include <cstdio>

#include "bench_util.hpp"
#include "netsim/netmodel.hpp"
#include "simmpi/simmpi.hpp"

namespace {

void analytic_table(int nprocs) {
    std::printf("Figure 8 (%d processors): MPI_Alltoall average bandwidth (MB/sec)\n\n",
                nprocs);
    const auto& nets = netsim::alltoall_roster();
    std::vector<std::string> headers = {"msg bytes"};
    for (const auto& n : nets) headers.push_back(n.name);
    benchutil::Table table(headers, 21);
    table.print_header();
    for (std::size_t m = 8; m <= (8u << 20); m *= 8) {
        std::vector<std::string> row = {std::to_string(m)};
        for (const auto& n : nets)
            row.push_back(benchutil::fmt(n.alltoall_bandwidth_mbps(nprocs, m), "%.2f"));
        table.print_row(row);
    }
    std::printf("\n");
}

/// The paper's measurement loop over the simulated runtime.
double measured_alltoall_bandwidth(const netsim::NetworkModel& net, int nprocs,
                                   std::size_t msg_bytes) {
    const std::size_t block = msg_bytes / sizeof(double);
    simmpi::World world(nprocs, net);
    const int reps = 100;
    const auto reports = world.run([&](simmpi::Comm& c) {
        std::vector<double> send(static_cast<std::size_t>(c.size()) * block, 1.0);
        std::vector<double> recv(send.size());
        c.barrier(); // global synchronisation, as in the paper
        for (int r = 0; r < reps; ++r) c.alltoall(send, recv, block);
    });
    double max_wall = 0.0;
    for (const auto& r : reports) max_wall = std::max(max_wall, r.wall_seconds);
    return static_cast<double>(nprocs - 1) * static_cast<double>(msg_bytes) *
           static_cast<double>(reps) / max_wall / 1e6;
}

void simmpi_crosscheck(int nprocs) {
    std::printf("Cross-check at %d procs: 100-rep simmpi Alltoall loop vs model (64 KB)\n\n",
                nprocs);
    benchutil::Table table({"network", "model MB/s", "simmpi MB/s"}, 22);
    table.print_header();
    for (const auto& net : netsim::alltoall_roster()) {
        const std::size_t bytes = 64 * 1024;
        table.print_row({net.name,
                         benchutil::fmt(net.alltoall_bandwidth_mbps(nprocs, bytes), "%.2f"),
                         benchutil::fmt(measured_alltoall_bandwidth(net, nprocs, bytes),
                                        "%.2f")});
    }
    std::printf("\n");
}

} // namespace

int main() {
    analytic_table(4);
    analytic_table(8);
    simmpi_crosscheck(4);
    simmpi_crosscheck(8);
    std::printf("HITACHI SR8000 (paper text): minimum recorded Alltoall bandwidth "
                "%.0f MB/s at 6,400,000 bytes (ours: %.0f MB/s)\n",
                450.0,
                netsim::by_name("HITACHI").alltoall_bandwidth_mbps(8, 6'400'000));
    return 0;
}
