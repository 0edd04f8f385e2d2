#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>

#include "blaslite/blas.hpp"
#include "fft/fft.hpp"
#include "gs/gather_scatter.hpp"
#include "la/banded.hpp"
#include "ledger.hpp"
#include "mesh/generators.hpp"
#include "nektar/dofmap.hpp"
#include "obs/trace.hpp"
#include "partition/partition.hpp"

namespace perfbench {

namespace {

/// Banded Cholesky at the workload's own (n, kd): factor time and rate,
/// and one solve.  The matrix is diagonally dominant, so SPD; the cost of
/// the band algorithm does not depend on the values.
void probe_banded(std::size_t n, std::size_t kd, std::map<std::string, double>& out) {
    obs::SpanScope span(bench_lane(), "probe.la.banded");
    la::SymBandedMatrix a(n, kd);
    for (std::size_t j = 0; j < n; ++j) {
        a.band(0, j) = 4.0 * static_cast<double>(kd + 1);
        for (std::size_t d = 1; d <= kd && j + d < n; ++d)
            a.band(d, j) = -1.0 / static_cast<double>(d + 1);
    }
    la::BandedCholesky chol;
    std::uint64_t flops = 0;
    double factor_s = now_s();
    {
        blaslite::CountScope counts;
        if (!chol.factor(a)) throw std::runtime_error("banded probe: matrix not SPD");
        flops = counts.delta().flops;
    }
    factor_s = now_s() - factor_s;
    // A factor of a second or more is timed once; smaller ones repeat.
    if (factor_s < 1.0) factor_s = median_call_seconds([&] { (void)chol.factor(a); }, 3, 1.0);
    std::vector<double> b(n, 1.0);
    out["la.band_factor_s"] = factor_s;
    out["la.band_factor_gflops"] = static_cast<double>(flops) / factor_s * 1e-9;
    out["la.band_solve_s"] = median_call_seconds([&] { chol.solve(b); }, 5, 0.2);
}

/// The z-line FFT work of one NekTar-F step on one rank: per line, three
/// inverse real transforms of the velocity spectra and six forward ones of
/// the quadratic products, as FourierNS::nonlinear runs them.
void probe_fft(std::size_t lines, std::size_t modes, std::map<std::string, double>& out) {
    obs::SpanScope span(bench_lane(), "probe.fft");
    const std::size_t nz = 2 * modes;
    const fft::Plan plan(nz);
    std::vector<fft::cplx> spec(modes + 1, fft::cplx{1.0, 0.5});
    spec[modes] = 0.0;
    double sink = 0.0;
    out["fft.z_s"] = median_call_seconds(
        [&] {
            for (std::size_t i = 0; i < lines; ++i) {
                std::vector<double> phys;
                for (int c = 0; c < 3; ++c) phys = fft::irfft(plan, spec);
                for (int p = 0; p < 6; ++p) sink += fft::rfft(plan, phys)[1].real();
            }
        },
        3, 0.3);
    if (!std::isfinite(sink)) throw std::runtime_error("fft probe: non-finite result");
}

/// One alltoall at the slab transpose's per-peer block size, timed on rank
/// 0 from a barrier-aligned start.
void probe_alltoall(int ranks, std::size_t block, std::map<std::string, double>& out) {
    obs::SpanScope span(bench_lane(), "probe.simmpi.alltoall");
    std::vector<double> times;
    simmpi::World world(ranks, probe_net());
    world.run([&](simmpi::Comm& c) {
        std::vector<double> send(block * static_cast<std::size_t>(ranks), 1.0);
        std::vector<double> recv(send.size());
        for (int k = 0; k < 40; ++k) {
            c.barrier();
            const double t0 = now_s();
            c.alltoall(send, recv, block);
            if (c.rank() == 0) times.push_back(now_s() - t0);
        }
    });
    std::sort(times.begin(), times.end());
    out["simmpi.alltoall_us"] = 1e6 * times[times.size() / 2];
}

/// GatherScatter::sum on the ALE partition: each rank presents the global
/// dof ids of the elements it owns.
void probe_gs(const mesh::Mesh& m, const std::vector<int>& part, int ranks, std::size_t order,
              std::map<std::string, double>& out) {
    obs::SpanScope span(bench_lane(), "probe.gs.sum");
    const nektar::DofMap dm(m, order, /*renumber=*/false);
    std::vector<double> times;
    simmpi::World world(ranks, probe_net());
    world.run([&](simmpi::Comm& c) {
        std::set<std::int64_t> ids;
        for (std::size_t e = 0; e < m.num_elements(); ++e)
            if (part[e] == c.rank())
                for (const auto& d : dm.element_map(e)) ids.insert(d.global);
        const std::vector<std::int64_t> gids(ids.begin(), ids.end());
        const gs::GatherScatter g(c, gids);
        std::vector<double> values(gids.size(), 1.0);
        for (int k = 0; k < 40; ++k) {
            c.barrier();
            const double t0 = now_s();
            g.sum(c, values);
            if (c.rank() == 0) times.push_back(now_s() - t0);
        }
    });
    std::sort(times.begin(), times.end());
    out["gs.sum_us"] = 1e6 * times[times.size() / 2];
}

} // namespace

void probe_transforms(const nektar::Discretization& disc, std::size_t planes,
                      std::map<std::string, double>& out) {
    obs::SpanScope span(bench_lane(), "probe.compute.to_quad");
    std::vector<double> modal(planes * disc.modal_size()), quad(planes * disc.quad_size());
    for (std::size_t i = 0; i < modal.size(); ++i) modal[i] = std::sin(static_cast<double>(i));
    for (const auto& [name, kind] : {std::pair{"dense", compute::BackendKind::Dense},
                                     std::pair{"sumfact", compute::BackendKind::SumFactor}})
        out[std::string("compute.to_quad_s.") + name] = median_call_seconds(
            [&] { disc.to_quad_planes(modal, quad, planes, kind); }, 5, 0.2);
}

std::map<std::string, double> probe_layers(const WorkloadSpec& spec, const Solve& s) {
    std::map<std::string, double> out = {
        {"la.band_factor_s", 0.0}, {"la.band_factor_gflops", 0.0}, {"la.band_solve_s", 0.0},
        {"fft.z_s", 0.0},          {"simmpi.alltoall_us", 0.0},    {"gs.sum_us", 0.0},
    };
    if (spec.name == "ale_flap_p4") {
        // The ALE ranks rebuild their sub-discretizations every step; the
        // probe builds the whole mesh's, the sum of that per-step work.
        const auto m = std::make_shared<const mesh::Mesh>(ale_mesh());
        {
            obs::SpanScope span(bench_lane(), "probe.disc.build");
            out["disc.build_s"] = median_call_seconds(
                [&] { nektar::Discretization d(m, 4, /*renumber=*/false, compute::BackendKind::Dense); }, 3, 0.5);
        }
        partition::Graph g;
        m->dual_graph(g.xadj, g.adjncy);
        probe_gs(*m, partition::partition_graph(g, spec.ranks), spec.ranks, 4, out);
        return out;
    }
    probe_banded(s.n_dof, s.bandwidth, out);
    if (spec.ranks > 1) {
        const auto ranks = static_cast<std::size_t>(spec.ranks);
        const std::size_t lines = (s.quad_size + ranks - 1) / ranks; // the slab's chunk
        probe_fft(lines, ranks * s.planes / 2, out);
        probe_alltoall(spec.ranks, lines * s.planes, out);
    }
    return out;
}

Roofline probe_roofline() {
    obs::SpanScope span(bench_lane(), "probe.roofline");
    Roofline r;
    // dgemm peak: three 192^2 operands (864 KiB) stay in L2; best of many
    // batches.
    constexpr std::size_t n = 192;
    std::vector<double> a(n * n), b(n * n), c(n * n, 0.0);
    for (std::size_t i = 0; i < n * n; ++i) {
        a[i] = 1.0 + 1e-3 * static_cast<double>(i % 7);
        b[i] = 1.0 - 1e-3 * static_cast<double>(i % 5);
    }
    const double start = now_s();
    while (now_s() - start < 0.5) {
        const double t0 = now_s();
        for (int k = 0; k < 10; ++k) blaslite::dgemm_square(1.0, a.data(), b.data(), 0.0, c.data(), n);
        const double rate = 10.0 * 2.0 * static_cast<double>(n * n * n) / (now_s() - t0) * 1e-9;
        r.dgemm_gflops = std::max(r.dgemm_gflops, rate);
    }
    // dcopy bandwidth on two arrays of four last-level caches each.
    long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
    if (llc <= 0) llc = 32L << 20;
    r.llc_bytes = static_cast<double>(llc);
    const std::size_t len = 4 * static_cast<std::size_t>(llc) / sizeof(double);
    r.array_bytes = static_cast<double>(len * sizeof(double));
    std::vector<double> x(len, 1.0), y(len, 0.0);
    blaslite::dcopy(x, y); // first touch
    for (int k = 0; k < 3; ++k) {
        const double t0 = now_s();
        blaslite::dcopy(x, y);
        r.stream_gbs = std::max(r.stream_gbs, 2.0 * r.array_bytes / (now_s() - t0) * 1e-9);
    }
    return r;
}

} // namespace perfbench
