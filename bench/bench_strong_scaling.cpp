/// Strong scaling beyond the paper: Table 2 stops at P=16 because 1999's
/// clusters did; this bench extends the same NekTar-F transpose workload to
/// P = 64..4096 on the hypothetical large-cluster fabrics of
/// netsim::scaling_roster() and reproduces the 1-D slab vs 2-D pencil
/// crossover from the post-paper literature: the slab's single P-wide
/// alltoall pays a latency term ~P while the pencil's two staged sqrt(P)-wide
/// exchanges pay ~2 sqrt(P), so past a latency-dependent rank count the
/// pencil wins even though it ships the data twice.
///
/// Strong scaling: the global problem (NQ quadrature points x TP Fourier
/// planes) is fixed and P grows, so every rank count actually runs, each rank
/// a simmpi fiber task — subcommunicator events pin their group size, so a
/// pencil log cannot be re-priced across P the way world logs can.  Each run
/// is then re-priced on every machine x network model.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "machine/accelerator_model.hpp"
#include "machine/machine_model.hpp"
#include "nektar/transpose.hpp"

namespace {

netsim::NetworkModel probe_net() {
    netsim::NetworkModel probe; // any model; timings are re-priced later
    probe.name = "probe";
    probe.latency_us = 10.0;
    probe.bandwidth_mbps = 100.0;
    return probe;
}

/// One strong-scaling case: the comm log of rank 0 plus the digest of every
/// rank's line-layout data (for the slab/pencil bit-identity check).
struct RunData {
    simmpi::CommLog log;        ///< rank 0, cumulative over `steps`
    int steps = 0;
    std::size_t rows = 0, cols = 0;
    std::uint64_t digest = 0;   ///< FNV over all ranks' lines + planes bits
};

/// FNV-1a over a span of doubles' bit patterns.
std::uint64_t fnv(std::uint64_t h, const std::vector<double>& v) {
    for (const double d : v) {
        std::uint64_t bits;
        std::memcpy(&bits, &d, sizeof(bits));
        for (int i = 0; i < 8; ++i) {
            h ^= (bits >> (8 * i)) & 0xffu;
            h *= 1099511628211ull;
        }
    }
    return h;
}

/// Runs `steps` forward/backward transpose round trips of the fixed
/// NQ x TP field at rank count `nprocs` under the fiber scheduler.
RunData run_transpose(int nprocs, bool pencil, std::size_t nq, std::size_t tp, int steps) {
    RunData data;
    data.steps = steps;
    const std::size_t nplanes = tp / static_cast<std::size_t>(nprocs);
    simmpi::World world(nprocs, probe_net());
    world.set_max_tasks(nprocs);
    std::vector<std::uint64_t> digests(static_cast<std::size_t>(nprocs), 0);
    const auto reports = world.run([&](simmpi::Comm& c) {
        const nektar::Transpose tr(
            &c, nq, nplanes, pencil ? nektar::TransposeKind::Pencil : nektar::TransposeKind::Slab);
        if (c.rank() == 0) {
            data.rows = tr.grid_rows();
            data.cols = tr.grid_cols();
        }
        // Deterministic field: a function of the *global* (plane, point)
        // index, so slab and pencil runs start from identical values.
        std::vector<double> planes(tr.planes_buffer_size());
        std::vector<double> lines(tr.lines_buffer_size());
        const std::size_t base = static_cast<std::size_t>(c.rank()) * nplanes;
        for (std::size_t lp = 0; lp < nplanes; ++lp)
            for (std::size_t i = 0; i < nq; ++i)
                planes[lp * nq + i] =
                    std::sin(0.001 * static_cast<double>((base + lp) * nq + i));
        std::uint64_t h = 0xcbf29ce484222325ull;
        for (int s = 0; s < steps; ++s) {
            tr.to_lines(&c, planes, lines);
            h = fnv(h, lines);
            tr.to_planes(&c, lines, planes);
        }
        h = fnv(h, planes);
        digests[static_cast<std::size_t>(c.rank())] = h;
    });
    data.log = reports[0].log;
    data.digest = 0xcbf29ce484222325ull;
    for (const std::uint64_t h : digests) {
        data.digest ^= h;
        data.digest *= 1099511628211ull;
    }
    return data;
}

/// Per-step z-line FFT charge for the nonlinear term: 9 real transforms of
/// length TP per point line (the paper's 3 velocity components each way plus
/// the products), at ~5 n log2 n flops per transform -> (45 log2 TP + 6) TP
/// flops per line.  Identical for slab and pencil — the decomposition only
/// moves the comm cost.
double compute_seconds_per_step(const machine::MachineModel& m, std::size_t nq,
                                std::size_t tp, int nprocs) {
    const std::size_t chunk =
        (nq + static_cast<std::size_t>(nprocs) - 1) / static_cast<std::size_t>(nprocs);
    const double lines = static_cast<double>(std::min(chunk, nq));
    const double n = static_cast<double>(tp);
    machine::KernelShape k;
    k.flops = lines * (45.0 * std::log2(n) + 6.0) * n;
    k.bytes = lines * n * sizeof(double) * 4.0;
    k.working_set = static_cast<std::size_t>(lines) * tp * sizeof(double);
    k.compute_efficiency = 0.5; // FFT butterflies, not dgemm
    return machine::predict_seconds(m, k);
}

struct Platform {
    std::string label;
    std::string machine;
    std::string network;
};

const std::vector<Platform>& platforms() {
    static const std::vector<Platform> p = {
        {"RR/FastEther-sw", "RoadRunner", "FastEther switched"},
        {"RR/Myrinet2000", "RoadRunner", "Myrinet2000 switched"},
        {"NCSA/FastEther-sw", "NCSA", "FastEther switched"},
        {"NCSA/Myrinet2000", "NCSA", "Myrinet2000 switched"},
    };
    return p;
}

} // namespace

int main(int argc, char** argv) {
    const benchutil::Cli cli = benchutil::Cli::parse("bench_strong_scaling", argc, argv);
    // Smoke keeps the same shape (TP divisible by every P, NQ < TP) at a
    // fraction of the footprint; CI runs it on every merge.
    const std::size_t nq = cli.request.smoke ? 256 : 2048;
    const std::size_t tp = cli.request.smoke ? 512 : 4096;
    const int steps = cli.request.smoke ? 1 : 2;
    const std::vector<int> default_sweep =
        cli.request.smoke ? std::vector<int>{64, 256} : std::vector<int>{64, 256, 1024, 4096};

    std::printf("Strong scaling beyond Table 2: fixed %zu points x %zu planes, P = 64..4096.\n",
                nq, tp);
    std::printf("slab = one P-wide alltoall (the paper's 4.2.1); pencil = two staged\n"
                "sqrt(P)-wide alltoalls over row/column subcommunicators.\n\n");

    std::vector<Platform> selected;
    for (const auto& pl : platforms())
        if (cli.machine_selected(pl.machine) && cli.net_selected(pl.network))
            selected.push_back(pl);
    if (selected.empty()) {
        std::fprintf(stderr, "bench_strong_scaling: no platform matches the given "
                             "--machine/--net filters\n");
        return 2;
    }

    // Bit-identity gate: at P=16 (Table 2's ceiling, where both paths apply)
    // the slab and pencil transposes must move exactly the same bits.
    {
        const RunData slab = run_transpose(16, /*pencil=*/false, nq, tp, steps);
        const RunData pen = run_transpose(16, /*pencil=*/true, nq, tp, steps);
        if (slab.digest != pen.digest) {
            std::fprintf(stderr,
                         "bench_strong_scaling: slab/pencil digests differ at P=16 "
                         "(%016llx vs %016llx)\n",
                         static_cast<unsigned long long>(slab.digest),
                         static_cast<unsigned long long>(pen.digest));
            return 1;
        }
        std::printf("P=16 bit-identity: slab and pencil line/plane digests agree "
                    "(%016llx)\n\n",
                    static_cast<unsigned long long>(slab.digest));
    }

    std::vector<std::string> headers = {"P", "grid"};
    for (const auto& pl : selected) headers.push_back(pl.label);
    benchutil::Table table(headers, 19);
    table.print_header();

    perf::RunReport rep = perf::report("bench_strong_scaling");
    bool crossover_ok = true;
    for (const int nprocs : cli.rank_sweep(default_sweep)) {
        const RunData slab = run_transpose(nprocs, /*pencil=*/false, nq, tp, steps);
        const RunData pen = run_transpose(nprocs, /*pencil=*/true, nq, tp, steps);
        std::vector<std::string> row = {std::to_string(nprocs),
                                        std::to_string(pen.rows) + "x" +
                                            std::to_string(pen.cols)};
        for (const auto& pl : selected) {
            const auto& m = machine::by_name(pl.machine);
            const auto& net = netsim::by_name(pl.network);
            const double cpu = compute_seconds_per_step(m, nq, tp, nprocs);
            const double comm_slab =
                simmpi::price_log(slab.log, net, nprocs) / slab.steps;
            const double comm_pen = simmpi::price_log(pen.log, net, nprocs) / pen.steps;
            const double wall_slab = cpu + comm_slab;
            const double wall_pen = cpu + comm_pen;
            row.push_back(benchutil::fmt(wall_slab, "%.3f") + "/" +
                          benchutil::fmt(wall_pen, "%.3f"));
            for (const bool pencil : {false, true}) {
                perf::Case kase;
                kase.labels["platform"] = pl.label;
                kase.labels["transpose"] = pencil ? "pencil" : "slab";
                kase.values["nprocs"] = static_cast<double>(nprocs);
                // The slab keeps the paper's "1 x P" label: one P-wide
                // exchange (its Transpose grid is the P x 1 column).
                kase.values["grid_rows"] = static_cast<double>(pencil ? pen.rows : 1);
                kase.values["grid_cols"] =
                    static_cast<double>(pencil ? pen.cols : static_cast<std::size_t>(nprocs));
                kase.values["cpu_seconds_per_step"] = cpu;
                kase.values["comm_seconds_per_step"] = pencil ? comm_pen : comm_slab;
                kase.values["wall_seconds_per_step"] = pencil ? wall_pen : wall_slab;
                rep.cases.push_back(std::move(kase));
            }
            // The crossover this bench exists to show: on Fast Ethernet the
            // pencil must win from P=256 up.
            if (nprocs >= 256 && pl.network == "FastEther switched" &&
                wall_pen >= wall_slab) {
                std::fprintf(stderr,
                             "bench_strong_scaling: no slab->pencil crossover at "
                             "P=%d on %s (slab %.4f s/step, pencil %.4f s/step)\n",
                             nprocs, pl.label.c_str(), wall_slab, wall_pen);
                crossover_ok = false;
            }
        }
        table.print_row(row);
    }
    std::printf("\n(cells are slab/pencil predicted wall seconds per step; the pencil\n"
                "overtakes the slab where the P-wide alltoall's latency term dominates)\n");

    // GPU-era projection: the same per-rank z-line FFT work priced on
    // accelerator rooflines (machine/accelerator_model.hpp).  A host-staged
    // transpose ships the rank's whole slab (nq*tp/P doubles) across the
    // host link twice per round trip, so at scale the PCIe-class link — not
    // the device — bounds the step, the 1999 Ethernet story replayed.
    std::printf("\nGPU-era projection (per-rank compute s/step on the device; 'staged'\n"
                "adds two host-link crossings of the rank's slab per round trip)\n\n");
    benchutil::Table at({"P", "accelerator", "device", "staged"}, 14);
    at.print_header();
    for (const int nprocs : cli.rank_sweep(default_sweep)) {
        const std::size_t slab_bytes =
            nq * tp / static_cast<std::size_t>(nprocs) * sizeof(double);
        for (const auto& acc : machine::accelerator_roster()) {
            const double dev = compute_seconds_per_step(acc.device, nq, tp, nprocs);
            const double staged = dev + 2.0 * acc.transfer_seconds(slab_bytes);
            at.print_row({std::to_string(nprocs), acc.name, benchutil::fmt(dev, "%.3g"),
                          benchutil::fmt(staged, "%.3g")});
            perf::Case kase;
            kase.labels["accelerator"] = acc.name;
            kase.values["nprocs"] = static_cast<double>(nprocs);
            kase.values["device_seconds_per_step"] = dev;
            kase.values["staged_seconds_per_step"] = staged;
            rep.cases.push_back(std::move(kase));
        }
    }
    cli.finish(std::move(rep));
    return crossover_ok ? 0 : 1;
}
