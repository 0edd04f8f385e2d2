/// Hot-path microbenchmark of the elemental operator engines: per-element
/// dgemv loops versus the grouped dense dgemm batch versus the
/// sum-factorised tensor-contraction backend, for the modal->quad
/// transform, the weak inner product, and the modal gradient.  The sweep
/// runs orders 4-12 and reports the crossover order — the smallest order
/// from which sum factorisation stays ahead of the dense batch — in the
/// RunReport (top-level "crossover_order").  A second sweep times the
/// banded direct solver (factor, one solve, the two- and six-RHS solves) on
/// full bands of per-Fourier-mode shape and a wide one and on the envelopes
/// of a Fourier mode's matrix and the serial Schur complement, then
/// FourierNS's z-line transforms at three plane counts, a third the matrix-free
/// Helmholtz apply of the PCG solvers on a perturbed mesh, and a fourth
/// SerialNS2d's condensed direct solver at Table 1's shape (setup, the
/// two-RHS velocity solve, a single solve), and a fifth the setup kernels
/// (the Discretization and DofMap builds).
/// Writes machine-readable
/// results to BENCH_hotpath.json (CI's paired kernel gate, `bench/ab.py
/// --kernels`, runs it in the parent's and the change's builds and compares
/// every kernel; --smoke shrinks the sweep for the per-commit job).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "blaslite/multiversion.hpp"
#include "compute/backend.hpp"
#include "fft/fft.hpp"
#include "la/banded.hpp"
#include "mesh/generators.hpp"
#include "nektar/discretization.hpp"
#include "nektar/solver_options.hpp"
#include "nektar/static_condensation.hpp"
#include "nektar/workloads.hpp"
#include "parallel/thread_pool.hpp"

namespace {

struct CaseResult {
    std::size_t order = 0, elements = 0, planes = 0;
    double per_elem_ms[3] = {};  // to_quad, weak_inner, grad
    double batched_ms[3] = {};   // dense batched engine (reference)
    double sumfact_ms[3] = {};   // sum-factorised engine
    [[nodiscard]] double per_elem_total() const {
        return per_elem_ms[0] + per_elem_ms[1] + per_elem_ms[2];
    }
    [[nodiscard]] double batched_total() const {
        return batched_ms[0] + batched_ms[1] + batched_ms[2];
    }
    [[nodiscard]] double sumfact_total() const {
        return sumfact_ms[0] + sumfact_ms[1] + sumfact_ms[2];
    }
    [[nodiscard]] double speedup() const { return per_elem_total() / batched_total(); }
    [[nodiscard]] double sumfact_speedup() const { return batched_total() / sumfact_total(); }
};

CaseResult run_case(std::size_t order, std::size_t nside, std::size_t planes,
                    double min_seconds) {
    const auto m = std::make_shared<mesh::Mesh>(
        mesh::rectangle_quads(nside, nside, 0.0, 1.0, 0.0, 1.0));
    const auto disc = std::make_shared<nektar::Discretization>(m, order);
    const std::size_t nm = disc->modal_size();
    const std::size_t nq = disc->quad_size();

    std::vector<double> modal(nm * planes), quad(nq * planes), rhs(nm * planes);
    std::vector<double> dx(nq * planes), dy(nq * planes);
    for (std::size_t i = 0; i < modal.size(); ++i)
        modal[i] = 1.0 + static_cast<double>(i % 17) * 0.25;
    for (std::size_t i = 0; i < quad.size(); ++i)
        quad[i] = 0.5 + static_cast<double>(i % 13) * 0.125;

    CaseResult r{order, disc->num_elements(), planes, {}, {}, {}};
    const std::size_t ne = disc->num_elements();

    const auto per_plane = [&](auto&& body) {
        for (std::size_t p = 0; p < planes; ++p)
            for (std::size_t e = 0; e < ne; ++e) body(p, e);
    };
    const auto mspan = [&](std::size_t p) {
        return std::span<const double>(modal).subspan(p * nm, nm);
    };

    // Per-element reference loops (the pre-batching hot path).
    r.per_elem_ms[0] = 1e3 * benchutil::time_per_call(
        [&] {
            per_plane([&](std::size_t p, std::size_t e) {
                disc->ops(e).interp_to_quad(
                    disc->modal_block(mspan(p), e),
                    disc->quad_block(std::span<double>(quad).subspan(p * nq, nq), e));
            });
        },
        min_seconds);
    r.per_elem_ms[1] = 1e3 * benchutil::time_per_call(
        [&] {
            std::fill(rhs.begin(), rhs.end(), 0.0);
            per_plane([&](std::size_t p, std::size_t e) {
                disc->ops(e).weak_inner(
                    disc->quad_block(std::span<const double>(quad).subspan(p * nq, nq), e),
                    disc->modal_block(std::span<double>(rhs).subspan(p * nm, nm), e));
            });
        },
        min_seconds);
    r.per_elem_ms[2] = 1e3 * benchutil::time_per_call(
        [&] {
            per_plane([&](std::size_t p, std::size_t e) {
                disc->ops(e).grad_from_modal(
                    disc->modal_block(mspan(p), e),
                    disc->quad_block(std::span<double>(dx).subspan(p * nq, nq), e),
                    disc->quad_block(std::span<double>(dy).subspan(p * nq, nq), e));
            });
        },
        min_seconds);

    // Both batched engines, pinned explicitly so the timings stay comparable
    // whatever $REPRO_BACKEND the job exports.
    struct EngineTimes {
        compute::BackendKind kind;
        double* ms;
    };
    const EngineTimes engines[2] = {{compute::BackendKind::Dense, r.batched_ms},
                                    {compute::BackendKind::SumFactor, r.sumfact_ms}};
    for (const EngineTimes& eng : engines) {
        const compute::BackendKind k = eng.kind;
        eng.ms[0] = 1e3 * benchutil::time_per_call(
            [&] { disc->to_quad_planes(modal, quad, planes, k); }, min_seconds);
        eng.ms[1] = 1e3 * benchutil::time_per_call(
            [&] {
                std::fill(rhs.begin(), rhs.end(), 0.0);
                disc->weak_inner_planes(quad, rhs, planes, k);
            },
            min_seconds);
        eng.ms[2] = 1e3 * benchutil::time_per_call(
            [&] { disc->grad_from_modal_planes(modal, dx, dy, planes, k); }, min_seconds);
    }
    return r;
}

perf::Case to_case(const CaseResult& r) {
    perf::Case c;
    c.values["order"] = static_cast<double>(r.order);
    c.values["elements"] = static_cast<double>(r.elements);
    c.values["planes"] = static_cast<double>(r.planes);
    static const char* kKernels[3] = {"to_quad", "weak_inner", "grad"};
    for (int k = 0; k < 3; ++k) {
        c.values[std::string("per_element_ms.") + kKernels[k]] = r.per_elem_ms[k];
        c.values[std::string("batched_ms.") + kKernels[k]] = r.batched_ms[k];
        c.values[std::string("sumfact_ms.") + kKernels[k]] = r.sumfact_ms[k];
    }
    c.values["speedup"] = r.speedup();
    c.values["sumfact_speedup"] = r.sumfact_speedup();
    return c;
}

/// Smallest order from which the sum-factorised totals stay at or below the
/// dense batched totals for every measured order above it (totals summed
/// over the mesh-size/plane cases of each order).  -1 when sumfact never
/// takes the lead.  "Stays ahead" rather than "first win" so a noisy win at
/// low order does not masquerade as the asymptotic crossover.
double crossover_order(const std::vector<CaseResult>& results) {
    std::map<std::size_t, double> dense, sumfact;
    for (const CaseResult& r : results) {
        dense[r.order] += r.batched_total();
        sumfact[r.order] += r.sumfact_total();
    }
    double crossover = -1.0;
    for (const auto& [order, d] : dense) {
        if (sumfact[order] <= d) {
            if (crossover < 0.0) crossover = static_cast<double>(order);
        } else {
            crossover = -1.0;
        }
    }
    return crossover;
}

/// lambda = gamma0/(nu dt) of a second-order step at dt = 2e-3, nu = 0.01:
/// the velocity operator of the paper runs.
constexpr double kVelocityLambda = 1.5 / (0.01 * 2e-3);

struct BandedResult {
    std::size_t n = 0, kd = 0;
    /// The mesh order and element count of a solver's own matrix; 0 for a
    /// synthetic full band.
    std::size_t order = 0, elements = 0;
    double factor_ms = 0.0, solve_ms = 0.0, solve2_ms = 0.0, solve6_ms = 0.0;
};

/// An SPD band of order n and bandwidth kd with every in-band entry stored
/// (the factor's and solves' cost then depends only on n and kd).
la::SymBandedMatrix full_band(std::size_t n, std::size_t kd) {
    la::SymBandedMatrix a(n, kd);
    for (std::size_t j = 0; j < n; ++j) {
        a.band(0, j) = 4.0 * static_cast<double>(kd + 1);
        for (std::size_t d = 1; d <= kd && j + d < n; ++d)
            a.band(d, j) = -1.0 / static_cast<double>(d + 1);
    }
    return a;
}

/// The banded Cholesky factor, one solve, the two-RHS solve and the
/// six-RHS solve (FourierNS's per-mode velocity solves) of `a`.  Each solve
/// restarts from the same right-hand side so repeated calls never run into
/// denormals.
BandedResult run_banded(const la::SymBandedMatrix& a, double min_seconds) {
    const std::size_t n = a.size();
    BandedResult r{n, a.bandwidth()};
    la::BandedCholesky chol;
    r.factor_ms = 1e3 * benchutil::time_per_call([&] { (void)chol.factor(a); }, min_seconds);
    const std::vector<double> rhs(n, 1.0);
    std::vector<double> b(n), b2(n);
    r.solve_ms = 1e3 * benchutil::time_per_call(
        [&] {
            b = rhs;
            chol.solve(b);
        },
        min_seconds);
    const std::span<double> both[2] = {b, b2};
    r.solve2_ms = 1e3 * benchutil::time_per_call(
        [&] {
            b = rhs;
            b2 = rhs;
            chol.solve(both);
        },
        min_seconds);
    std::vector<std::vector<double>> six(6, std::vector<double>(n));
    const std::vector<std::span<double>> six_views(six.begin(), six.end());
    r.solve6_ms = 1e3 * benchutil::time_per_call(
        [&] {
            for (std::vector<double>& v : six) v = rhs;
            chol.solve(std::span<const std::span<double>>(six_views));
        },
        min_seconds);
    return r;
}

perf::Case to_case(const BandedResult& r) {
    perf::Case c;
    c.values["n"] = static_cast<double>(r.n);
    c.values["kd"] = static_cast<double>(r.kd);
    if (r.order > 0) {
        c.values["order"] = static_cast<double>(r.order);
        c.values["elements"] = static_cast<double>(r.elements);
    }
    c.values["banded_ms.factor"] = r.factor_ms;
    c.values["banded_ms.solve"] = r.solve_ms;
    c.values["banded_ms.solve2"] = r.solve2_ms;
    c.values["banded_ms.solve6"] = r.solve6_ms;
    return c;
}

struct FftResult {
    std::size_t n = 0;
    double inverse_ms = 0.0, forward_ms = 0.0;
    /// One slice of kSliceLines z-lines through the lane path, at
    /// FourierNS's width (blaslite::vector_lanes(): 8 with AVX-512, else 4).
    double lines_ms = 0.0;
};

/// z-lines per overlap slice of a fourier_wake_p8 rank (414 lines, 4 slices).
constexpr std::size_t kSliceLines = 104;

/// One z-line of FourierNS's nonlinear term over n planes, into caller
/// buffers as the solver runs it: three irfft of the velocity spectra
/// (inverse), then the six pointwise products and their rfft (forward).
FftResult run_fft(std::size_t n, double min_seconds) {
    const fft::Plan plan(n);
    std::vector<fft::cplx> spec(n / 2 + 1), work(n);
    for (std::size_t k = 0; k < n / 2; ++k)
        spec[k] = fft::cplx{1.0, 0.5} / static_cast<double>(k + 1);
    std::vector<std::vector<double>> phys(3, std::vector<double>(n));
    std::vector<double> prod(n);
    FftResult r{n};
    r.inverse_ms = 1e3 * benchutil::time_per_call(
        [&] {
            for (std::vector<double>& u : phys) fft::irfft(plan, spec, u, work);
        },
        min_seconds);
    static constexpr int prod_of[6][2] = {{0, 0}, {0, 1}, {0, 2}, {1, 1}, {1, 2}, {2, 2}};
    r.forward_ms = 1e3 * benchutil::time_per_call(
        [&] {
            for (const auto& [a, b] : prod_of) {
                for (std::size_t j = 0; j < n; ++j) prod[j] = phys[a][j] * phys[b][j];
                fft::rfft(plan, prod, work);
            }
        },
        min_seconds);

    // The same work for one slice of lines, w at a time through the lane
    // transforms, as FourierNS's nonlinear stage runs it.
    const std::size_t w = blaslite::vector_lanes();
    std::vector<double> lane_spec(2 * n * w, 0.0), buf(2 * n * w), lane_prod(n * w);
    for (std::size_t k = 0; k < n / 2; ++k)
        for (std::size_t q = 0; q < w; ++q) {
            lane_spec[2 * k * w + q] = spec[k].real() / static_cast<double>(q + 1);
            lane_spec[(2 * k + 1) * w + q] = spec[k].imag();
        }
    std::vector<std::vector<double>> lane_phys(3, std::vector<double>(n * w));
    r.lines_ms = 1e3 * benchutil::time_per_call(
        [&] {
            for (std::size_t i0 = 0; i0 < kSliceLines; i0 += w) {
                const std::size_t count = std::min(w, kSliceLines - i0);
                for (std::vector<double>& u : lane_phys) {
                    std::copy(lane_spec.begin(), lane_spec.end(), buf.begin());
                    fft::irfft_lanes(plan, w, count, buf, u);
                }
                for (const auto& [a, b] : prod_of) {
                    for (std::size_t j = 0; j < n * w; ++j)
                        lane_prod[j] = lane_phys[a][j] * lane_phys[b][j];
                    fft::rfft_lanes(plan, w, count, lane_prod, buf);
                }
            }
        },
        min_seconds);
    return r;
}

perf::Case to_case(const FftResult& r) {
    perf::Case c;
    c.values["n"] = static_cast<double>(r.n);
    c.values["fft_ms.inverse"] = r.inverse_ms;
    c.values["fft_ms.forward"] = r.forward_ms;
    c.values["fft_ms.lines"] = r.lines_ms;
    return c;
}

struct ApplyResult {
    std::size_t order = 0, elements = 0;
    double lap_ms = 0.0, helm_ms = 0.0; ///< lambda = 0 and lambda = 75000
};

/// One masked helmholtz_apply of the ALE operator (L, then lambda M) on an
/// nside x nside quad mesh whose interior vertices are perturbed, so no two
/// elements are congruent and every matrix run holds one element: the
/// per-iteration apply of NekTar-ALE's PCG after a mesh move.
ApplyResult run_apply(std::size_t order, std::size_t nside, double min_seconds) {
    auto m = std::make_shared<mesh::Mesh>(
        mesh::rectangle_quads(nside, nside, 0.0, 1.0, 0.0, 1.0));
    const double h = 1.0 / static_cast<double>(nside);
    for (std::size_t i = 0; i < m->num_vertices(); ++i) {
        mesh::Vertex v = m->vertex(i);
        if (v.x <= 0.0 || v.x >= 1.0 || v.y <= 0.0 || v.y >= 1.0) continue;
        const double s = static_cast<double>(i);
        v.x += 0.1 * h * std::sin(7.0 * s);
        v.y += 0.1 * h * std::cos(5.0 * s);
        m->set_vertex(i, v);
    }
    const nektar::Discretization disc(m, order, /*renumber=*/false);
    const std::size_t n = disc.dofmap().num_global();
    std::vector<double> x(n), y(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = std::sin(0.37 * static_cast<double>(i));
    std::vector<char> mask(n, 0);
    for (int d : disc.dofmap().boundary_dofs([](mesh::BoundaryTag) { return true; }))
        mask[static_cast<std::size_t>(d)] = 1;
    const std::vector<const la::DenseMatrix*> lap = nektar::run_operators(
        disc, [](const nektar::ElemMatrices& mats) -> const la::DenseMatrix& { return mats.lap; });
    ApplyResult r{order, disc.num_elements()};
    r.lap_ms = 1e3 * benchutil::time_per_call(
        [&] { nektar::helmholtz_apply(disc, lap, 0.0, x, y, mask); }, min_seconds);
    r.helm_ms = 1e3 * benchutil::time_per_call(
        [&] { nektar::helmholtz_apply(disc, lap, 75000.0, x, y, mask); }, min_seconds);
    return r;
}

perf::Case to_case(const ApplyResult& r) {
    perf::Case c;
    c.values["order"] = static_cast<double>(r.order);
    c.values["elements"] = static_cast<double>(r.elements);
    c.values["pcg_apply_ms.lap"] = r.lap_ms;
    c.values["pcg_apply_ms.helm"] = r.helm_ms;
    return c;
}

struct CondensedResult {
    std::size_t order = 0, n = 0, kd = 0;
    double setup_ms = 0.0, solve2_ms = 0.0, solve_ms = 0.0;
};

/// SerialNS2d's velocity operator on Table 1's mesh at order 6
/// (kVelocityLambda): the constructor (condense every matrix class,
/// assemble and factor the Schur band), the step's two-RHS solve_global and
/// a single-RHS one.
CondensedResult run_condensed(double min_seconds) {
    const auto disc = std::make_shared<nektar::Discretization>(
        std::make_shared<mesh::Mesh>(nektar::workloads::table1_mesh()),
        nektar::workloads::kTable1Order);
    const nektar::HelmholtzBC bc = nektar::SolverOptions{}.velocity_bc;
    std::optional<nektar::CondensedHelmholtz> cond;
    CondensedResult r{disc->order()};
    r.setup_ms = 1e3 * benchutil::time_per_call([&] { cond.emplace(disc, kVelocityLambda, bc); },
                                                min_seconds);
    r.n = cond->boundary_dofs();
    r.kd = cond->bandwidth();
    const std::size_t n = disc->dofmap().num_global();
    std::vector<std::vector<double>> rhs(2, std::vector<double>(n));
    for (std::size_t i = 0; i < n; ++i) {
        rhs[0][i] = std::sin(0.3 * static_cast<double>(i));
        rhs[1][i] = std::cos(0.7 * static_cast<double>(i));
    }
    const auto du = cond->dirichlet_vector([](double, double) { return 1.0; });
    const auto dv = cond->dirichlet_vector([](double x, double y) { return 0.1 * x * y; });
    r.solve2_ms = 1e3 * benchutil::time_per_call(
        [&] { (void)cond->solve_global(rhs, {du, dv}); }, min_seconds);
    r.solve_ms = 1e3 * benchutil::time_per_call(
        [&] { (void)cond->solve_global(rhs[0], du); }, min_seconds);
    return r;
}

perf::Case to_case(const CondensedResult& r) {
    perf::Case c;
    c.values["order"] = static_cast<double>(r.order);
    c.values["n"] = static_cast<double>(r.n);
    c.values["kd"] = static_cast<double>(r.kd);
    c.values["condensed_ms.setup"] = r.setup_ms;
    c.values["condensed_ms.solve2"] = r.solve2_ms;
    c.values["condensed_ms.solve"] = r.solve_ms;
    return c;
}

struct SetupResult {
    std::size_t order = 0, n = 0, kd = 0;
    double disc_ms = 0.0, dofmap_ms = 0.0;
};

/// The setup kernels of a solver construction: the whole Discretization
/// build (dof map, elemental geometry and matrices, engines) and the DofMap
/// alone, with or without the RCM renumbering.
SetupResult run_setup(const mesh::Mesh& mesh, std::size_t order, bool renumber,
                      double min_seconds) {
    const auto m = std::make_shared<const mesh::Mesh>(mesh);
    SetupResult r{order};
    r.disc_ms = 1e3 * benchutil::time_per_call(
                          [&] { (void)nektar::Discretization(m, order, renumber); },
                          min_seconds);
    r.dofmap_ms = 1e3 * benchutil::time_per_call(
                            [&] { (void)nektar::DofMap(*m, order, renumber); }, min_seconds);
    const nektar::DofMap dm(*m, order, renumber);
    r.n = dm.num_global();
    r.kd = dm.bandwidth();
    return r;
}

perf::Case to_case(const SetupResult& r) {
    perf::Case c;
    c.values["order"] = static_cast<double>(r.order);
    c.values["n"] = static_cast<double>(r.n);
    c.values["kd"] = static_cast<double>(r.kd);
    c.values["setup_ms.disc"] = r.disc_ms;
    c.values["setup_ms.dofmap"] = r.dofmap_ms;
    return c;
}

} // namespace

int main(int argc, char** argv) {
    const benchutil::Cli cli = benchutil::Cli::parse("bench_hotpath", argc, argv);
    const bool smoke = cli.request.smoke;
    // Timing window per measurement; the CI perf gate raises it above the
    // smoke default so microsecond kernels average out scheduler noise.
    const double min_seconds =
        cli.min_seconds > 0.0 ? cli.min_seconds : (smoke ? 0.002 : 0.05);
    // Orders 4-12: the dense batch wins at low order (one big dgemm, no
    // staging overhead), sum factorisation wins once O(P^3) beats O(P^4).
    const std::vector<std::size_t> orders = smoke
                                                ? std::vector<std::size_t>{4, 8, 12}
                                                : std::vector<std::size_t>{4, 6, 8, 10, 12};
    const std::vector<std::size_t> sides = smoke ? std::vector<std::size_t>{8}
                                                 : std::vector<std::size_t>{8, 16};
    const std::vector<std::size_t> planes = smoke ? std::vector<std::size_t>{1, 4}
                                                  : std::vector<std::size_t>{1, 16};

    std::printf("Elemental engine hot path (per-element dgemv vs dense batch vs sumfact)\n");
    std::printf("threads = %u\n\n", parallel::num_threads());
    benchutil::Table table({"order", "elems", "planes", "perElem ms", "dense ms",
                            "sumfact ms", "sf speedup"});
    table.print_header();

    std::vector<CaseResult> results;
    for (std::size_t order : orders) {
        for (std::size_t side : sides) {
            for (std::size_t np : planes) {
                const CaseResult r = run_case(order, side, np, min_seconds);
                results.push_back(r);
                table.print_row({std::to_string(r.order), std::to_string(r.elements),
                                 std::to_string(r.planes),
                                 benchutil::fmt(r.per_elem_total(), "%.3f"),
                                 benchutil::fmt(r.batched_total(), "%.3f"),
                                 benchutil::fmt(r.sumfact_total(), "%.3f"),
                                 benchutil::fmt(r.sumfact_speedup(), "%.2f")});
            }
        }
    }
    const double crossover = crossover_order(results);
    if (crossover >= 0.0)
        std::printf("\nsum-factorisation crossover: order >= %.0f (sumfact ahead of the "
                    "dense batch from there on)\n",
                    crossover);
    else
        std::printf("\nsum-factorisation crossover: none within this sweep\n");

    // Banded direct solver: full bands of NekTar-F's per-mode shape of
    // Table 2, a narrower one and a wide one whose factor is dominated by the
    // trailing-update tile (the full sweep adds the serial solver's old full
    // system), then the two envelopes the solvers factor: a FourierNS mode's
    // velocity matrix (Table 2's mesh and order, mode 1) and SerialNS2d's
    // Schur complement (run_condensed's).
    const std::vector<std::pair<std::size_t, std::size_t>> bands =
        smoke ? std::vector<std::pair<std::size_t, std::size_t>>{{1568, 267},
                                                                 {2000, 200},
                                                                 {3000, 600}}
              : std::vector<std::pair<std::size_t, std::size_t>>{
                    {1568, 267}, {2000, 200}, {3000, 600}, {7416, 815}};
    std::printf("\nBanded Cholesky (factor, one solve, two- and six-RHS solves)\n");
    benchutil::Table band_table(
        {"matrix", "n", "kd", "factor ms", "solve ms", "solve2 ms", "solve6 ms"});
    band_table.print_header();
    std::vector<std::pair<std::string, BandedResult>> banded;
    for (const auto& [n, kd] : bands)
        banded.emplace_back("full", run_banded(full_band(n, kd), min_seconds));
    {
        const auto mode = std::make_shared<nektar::Discretization>(
            std::make_shared<mesh::Mesh>(nektar::workloads::table2_mesh()),
            nektar::workloads::kTable2Order);
        const nektar::SolverOptions opts;
        la::SymBandedMatrix h = nektar::assemble_helmholtz(*mode, kVelocityLambda + 1.0);
        (void)nektar::DirichletReduction(h, nektar::constrained_dofs(*mode, opts.velocity_bc));
        BandedResult r = run_banded(h, min_seconds);
        r.order = mode->order();
        r.elements = mode->num_elements();
        banded.emplace_back("fourier mode", r);
        const auto serial = std::make_shared<nektar::Discretization>(
            std::make_shared<mesh::Mesh>(nektar::workloads::table1_mesh()),
            nektar::workloads::kTable1Order);
        const nektar::CondensedHelmholtz cond(serial, kVelocityLambda, opts.velocity_bc);
        r = run_banded(cond.schur_matrix(), min_seconds);
        r.order = serial->order();
        r.elements = serial->num_elements();
        banded.emplace_back("serial schur", r);
    }
    for (const auto& [name, r] : banded)
        band_table.print_row({name, std::to_string(r.n), std::to_string(r.kd),
                              benchutil::fmt(r.factor_ms, "%.3f"),
                              benchutil::fmt(r.solve_ms, "%.3f"),
                              benchutil::fmt(r.solve2_ms, "%.3f"),
                              benchutil::fmt(r.solve6_ms, "%.3f")});

    // FourierNS's z-line transforms at Table 2's plane count (16), two
    // larger powers of two and one Bluestein length (96, whose lane path
    // goes line by line), the same in both sweeps.
    std::printf("\nz-line FFTs (three irfft; six products and rfft; a %zu-line slice"
                " through the lane path, %zu lanes)\n",
                kSliceLines, blaslite::vector_lanes());
    benchutil::Table fft_table({"n", "inverse ms", "forward ms", "lines ms"});
    fft_table.print_header();
    std::vector<FftResult> ffts;
    for (std::size_t n : {16, 64, 96, 128}) {
        const FftResult r = run_fft(n, min_seconds);
        ffts.push_back(r);
        fft_table.print_row({std::to_string(r.n), benchutil::fmt(r.inverse_ms, "%.5f"),
                             benchutil::fmt(r.forward_ms, "%.5f"),
                             benchutil::fmt(r.lines_ms, "%.4f")});
    }

    // Matrix-free PCG apply: the same orders and mesh in both sweeps (the
    // smoke run is what CI gates).
    std::printf("\nMatrix-free Helmholtz apply, perturbed mesh (lambda = 0, 75000)\n");
    benchutil::Table apply_table({"order", "elems", "lap ms", "helm ms"});
    apply_table.print_header();
    std::vector<ApplyResult> applies;
    for (std::size_t order : {4, 6, 8}) {
        const ApplyResult r = run_apply(order, 8, min_seconds);
        applies.push_back(r);
        apply_table.print_row({std::to_string(r.order), std::to_string(r.elements),
                               benchutil::fmt(r.lap_ms, "%.4f"),
                               benchutil::fmt(r.helm_ms, "%.4f")});
    }

    // SerialNS2d's condensed direct solver, one shape in both sweeps.
    std::printf("\nCondensed Helmholtz, Table 1 mesh, order 6 (setup, two-RHS solve, "
                "one solve)\n");
    benchutil::Table cond_table({"order", "n", "kd", "setup ms", "solve2 ms", "solve ms"});
    cond_table.print_header();
    const CondensedResult cond = run_condensed(min_seconds);
    cond_table.print_row({std::to_string(cond.order), std::to_string(cond.n),
                          std::to_string(cond.kd), benchutil::fmt(cond.setup_ms, "%.3f"),
                          benchutil::fmt(cond.solve2_ms, "%.3f"),
                          benchutil::fmt(cond.solve_ms, "%.3f")});

    // Setup kernels, the same two shapes in both sweeps: Table 1's mesh at
    // order 6 with RCM (SerialNS2d's construction) and the ALE mesh at order
    // 4 without it (AleNS2d's per-step rebuild).
    std::printf("\nSetup: Discretization and DofMap builds\n");
    benchutil::Table setup_table({"mesh", "order", "n", "kd", "disc ms", "dofmap ms"});
    setup_table.print_header();
    const std::pair<const char*, SetupResult> setups[] = {
        {"table1+rcm", run_setup(nektar::workloads::table1_mesh(),
                                 nektar::workloads::kTable1Order, true, min_seconds)},
        {"ale", run_setup(mesh::flapping_body_mesh(2), 4, false, min_seconds)}};
    for (const auto& [name, r] : setups)
        setup_table.print_row({name, std::to_string(r.order), std::to_string(r.n),
                               std::to_string(r.kd), benchutil::fmt(r.disc_ms, "%.3f"),
                               benchutil::fmt(r.dofmap_ms, "%.3f")});

    perf::RunReport rep = perf::report("bench_hotpath");
    rep.backend = "dense+sumfact"; // both engines measured side by side
    rep.crossover_order = crossover;
    rep.meta["threads"] = std::to_string(parallel::num_threads());
    for (const CaseResult& r : results) rep.cases.push_back(to_case(r));
    for (const auto& [name, r] : banded) rep.cases.push_back(to_case(r));
    for (const FftResult& r : ffts) rep.cases.push_back(to_case(r));
    for (const ApplyResult& r : applies) rep.cases.push_back(to_case(r));
    rep.cases.push_back(to_case(cond));
    for (const auto& [name, r] : setups) rep.cases.push_back(to_case(r));
    cli.finish(std::move(rep), "BENCH_hotpath.json");
    return 0;
}
