/// Figure 7: NetPIPE-style ping-pong one-way latency (left plot: 0-600 bytes)
/// and one-way bandwidth (right plot: up to ~1 GB) for the twelve network
/// configurations of the paper.  A simmpi cross-check runs a real two-rank
/// ping-pong over each model and verifies the virtual clock agrees.
#include <cstdio>

#include "bench_util.hpp"
#include "netsim/netmodel.hpp"
#include "simmpi/simmpi.hpp"

namespace {

void latency_table() {
    std::printf("Figure 7 (left): ping-pong one-way latency (microseconds)\n\n");
    const auto& nets = netsim::pingpong_roster();
    std::vector<std::string> headers = {"bytes"};
    for (const auto& n : nets) headers.push_back(n.name);
    benchutil::Table table(headers, 22);
    table.print_header();
    for (std::size_t m = 0; m <= 600; m += 100) {
        std::vector<std::string> row = {std::to_string(m)};
        for (const auto& n : nets) row.push_back(benchutil::fmt(n.ptp_seconds(m) * 1e6));
        table.print_row(row);
    }
    std::printf("\n");
}

void bandwidth_table() {
    std::printf("Figure 7 (right): ping-pong one-way bandwidth (MB/sec)\n\n");
    const auto& nets = netsim::pingpong_roster();
    std::vector<std::string> headers = {"bytes"};
    for (const auto& n : nets) headers.push_back(n.name);
    benchutil::Table table(headers, 22);
    table.print_header();
    for (std::size_t m = 64; m <= (1u << 27); m *= 8) {
        std::vector<std::string> row = {std::to_string(m)};
        for (const auto& n : nets)
            row.push_back(benchutil::fmt(n.pingpong_bandwidth_mbps(m), "%.2f"));
        table.print_row(row);
    }
    std::printf("\n");
}

/// Runs an actual two-rank ping-pong through the simulated MPI runtime and
/// compares the virtual-clock result against the analytic curve.
void simmpi_crosscheck() {
    std::printf("Cross-check: real simmpi ping-pong (virtual clock) vs model at 64 KB\n\n");
    benchutil::Table table({"network", "model us", "simmpi us"}, 24);
    table.print_header();
    for (const auto& net : netsim::pingpong_roster()) {
        const std::size_t bytes = 64 * 1024;
        const std::size_t n = bytes / sizeof(double);
        simmpi::World world(2, net);
        const int reps = 10;
        const auto reports = world.run([&](simmpi::Comm& c) {
            std::vector<double> buf(n, 1.0);
            for (int r = 0; r < reps; ++r) {
                if (c.rank() == 0) {
                    c.send(1, r, buf);
                    c.recv(1, 1000 + r, buf);
                } else {
                    c.recv(0, r, buf);
                    c.send(0, 1000 + r, buf);
                }
            }
        });
        const double one_way_us = reports[0].wall_seconds / (2.0 * reps) * 1e6;
        table.print_row({net.name, benchutil::fmt(net.ptp_seconds(bytes) * 1e6, "%.2f"),
                         benchutil::fmt(one_way_us, "%.2f")});
    }
    std::printf("\n");
}

} // namespace

int main() {
    latency_table();
    bandwidth_table();
    simmpi_crosscheck();
    return 0;
}
