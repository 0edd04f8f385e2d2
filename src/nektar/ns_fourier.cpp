#include "nektar/ns_fourier.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <iterator>
#include <numbers>
#include <stdexcept>

#include "blaslite/blas.hpp"
#include "blaslite/counters.hpp"
#include "blaslite/multiversion.hpp"
#include "parallel/thread_pool.hpp"

namespace nektar {

namespace {
/// Pipeline depth of the overlapped transposes (slices per exchange).
constexpr std::size_t kOverlapSlices = 4;
/// Nominal FPU rate (flop/s) at which the z-line work is charged to the
/// simmpi virtual clocks, giving the pipelined exchange computation to hide
/// transfers under.  Accounting only: results never depend on it.
constexpr double kVirtualComputeFlops = 150e6;
} // namespace

FourierNS::FourierNS(std::shared_ptr<const Discretization> disc, FourierNsOptions opts,
                     simmpi::Comm* comm)
    : SolverCore(opts.time_order, opts.dt, /*num_fields=*/3, comm, opts.trace),
      disc_(std::move(disc)),
      opts_(opts),
      backend_(compute::resolve(opts.backend, disc_->backend())),
      comm_(comm),
      mloc_(opts.num_modes / (comm ? static_cast<std::size_t>(comm->size()) : 1)),
      nplanes_(2 * mloc_),
      transpose_(comm, disc_->quad_size(), nplanes_),
      zplan_(2 * opts.num_modes) {
    const std::size_t nranks = comm ? static_cast<std::size_t>(comm->size()) : 1;
    if (opts_.num_modes % nranks != 0)
        throw std::invalid_argument("FourierNS: num_modes must divide by ranks");
    if (mloc_ == 0) throw std::invalid_argument("FourierNS: fewer modes than ranks");

    // Per-mode direct solvers: pressure lambda = beta_k^2, velocity
    // lambda = gamma0/(nu dt) + beta_k^2 (the paper's "direct solvers may be
    // employed for the solution of 2D Helmholtz problems on each processor").
    pressure_.reserve(mloc_);
    for (std::size_t j = 0; j < mloc_; ++j) {
        const double bk = beta(global_mode(j));
        HelmholtzBC pbc = opts_.pressure_bc;
        // Only the mean (k = 0) Poisson problem is singular without Dirichlet
        // data; shifted modes must not be pinned.
        if (global_mode(j) != 0) pbc.pin_first_dof = false;
        pressure_.emplace_back(disc_, bk * bk, pbc);
    }
    velocity_solvers_.configure([this](double gamma0) {
        std::vector<HelmholtzDirect> v;
        v.reserve(mloc_);
        for (std::size_t j = 0; j < mloc_; ++j) {
            const double bk = beta(global_mode(j));
            v.emplace_back(disc_, gamma0 / (opts_.viscosity * opts_.dt) + bk * bk,
                           opts_.velocity_bc);
        }
        return v;
    });
    // Warm the steady-state operators (startup orders build on first use).
    (void)velocity_solvers_.get(opts_.time_order);

    const std::size_t nm = nplanes_ * disc_->modal_size();
    const std::size_t nq = nplanes_ * disc_->quad_size();
    for (int c = 0; c < 3; ++c) {
        modal_[c].assign(nm, 0.0);
        quad_[c].assign(nq, 0.0);
    }
    p_modal_.assign(nm, 0.0);
    const std::size_t nz = 2 * opts_.num_modes;
    nls_.lanes = blaslite::vector_lanes();
    for (auto& v : nls_.lines) v.resize(transpose_.lines_buffer_size());
    for (auto& v : nls_.plines) v.resize(transpose_.lines_buffer_size());
    assert(transpose_.lines_buffer_size() >= 2 * disc_->quad_size()); // gradients, see nonlinear
    for (auto& v : nls_.pplanes) v.resize(transpose_.planes_buffer_size());
    nls_.spec.resize(2 * nz * nls_.lanes);
    for (auto& v : nls_.phys) v.resize(nz * nls_.lanes);
    nls_.prod.resize(nz * nls_.lanes);
    reset_state(nq);
    set_checkpoint_cadence(opts_.checkpoint_every);
}

std::uint64_t FourierNS::options_fingerprint() const {
    ckpt::Fingerprint fp;
    fp.add("FourierNS")
        .add(compute::to_string(backend_))
        .add(opts_.dt)
        .add(opts_.viscosity)
        .add(static_cast<std::uint64_t>(opts_.time_order))
        .add(static_cast<std::uint64_t>(opts_.num_modes))
        .add(opts_.lz)
        .add(static_cast<std::uint64_t>(mloc_))
        .add(static_cast<std::uint64_t>(comm_ ? comm_->size() : 1))
        .add(static_cast<std::uint64_t>(disc_->modal_size()))
        .add(static_cast<std::uint64_t>(disc_->quad_size()));
    return fp.value();
}

void FourierNS::save_state(ckpt::Checkpoint& c) const {
    auto& w = c.add("fields");
    for (int comp = 0; comp < 3; ++comp) w.f64v(modal_[comp]);
    for (int comp = 0; comp < 3; ++comp) w.f64v(quad_[comp]);
    w.f64v(p_modal_);
    // The rank's virtual clocks, comm logs and fault-stream position: a
    // restored rank replays the remaining steps with identical message costs.
    if (comm_ != nullptr) comm_->save_state(c.add("comm"));
}

void FourierNS::restore_state(const ckpt::Checkpoint& c) {
    auto r = c.open("fields");
    auto take = [&](std::vector<double>& dst) {
        std::vector<double> v = r.f64v();
        if (v.size() != dst.size()) r.fail("field size out of range");
        dst = std::move(v);
    };
    for (int comp = 0; comp < 3; ++comp) take(modal_[comp]);
    for (int comp = 0; comp < 3; ++comp) take(quad_[comp]);
    take(p_modal_);
    r.expect_end();
    if (comm_ != nullptr) {
        auto cr = c.open("comm");
        comm_->restore_state(cr);
    }
}

std::size_t FourierNS::global_mode(std::size_t local) const noexcept {
    const std::size_t base = comm_ ? static_cast<std::size_t>(comm_->rank()) * mloc_ : 0;
    return base + local;
}

double FourierNS::beta(std::size_t k) const noexcept {
    return 2.0 * std::numbers::pi * static_cast<double>(k) / opts_.lz;
}

std::span<const double> FourierNS::plane_quad(int c, std::size_t p) const {
    const std::size_t nq = disc_->quad_size();
    return {quad_[c].data() + p * nq, nq};
}

void FourierNS::load_state(const Field3Fn& u0, const Field3Fn& v0, const Field3Fn& w0) {
    const std::size_t nq = disc_->quad_size();
    const std::size_t nz = 2 * opts_.num_modes;
    const Field3Fn* fns[3] = {&u0, &v0, &w0};
    std::vector<double> zline(nz);
    std::vector<fft::cplx> spec(nz);
    // Sample each quadrature point's z-line, transform, keep local modes.
    for (int c = 0; c < 3; ++c) {
        std::vector<double> plane_quads(nplanes_ * nq);
        for (std::size_t e = 0; e < disc_->num_elements(); ++e) {
            const auto& g = disc_->ops(e).geometry();
            for (std::size_t q = 0; q < disc_->ops(e).num_quad(); ++q) {
                const std::size_t i = disc_->quad_offset(e) + q;
                for (std::size_t j = 0; j < nz; ++j) {
                    const double z = opts_.lz * static_cast<double>(j) / static_cast<double>(nz);
                    zline[j] = (*fns[c])(g.x[q], g.y[q], z);
                }
                fft::rfft(zplan_, zline, spec);
                for (std::size_t m = 0; m < mloc_; ++m) {
                    const std::size_t k = global_mode(m);
                    // Store DFT coefficients scaled by 1/Nz so that
                    // u(z) = sum_k u_k exp(i beta_k z) + c.c. holds directly.
                    plane_quads[(2 * m) * nq + i] = spec[k].real() / static_cast<double>(nz);
                    plane_quads[(2 * m + 1) * nq + i] = spec[k].imag() / static_cast<double>(nz);
                }
            }
        }
        quad_[c] = plane_quads;
        disc_->project_planes(quad_[c], modal_[c], nplanes_, backend_);
        // Consistent quad values from the projected coefficients.
        disc_->to_quad_planes(modal_[c], quad_[c], nplanes_, backend_);
    }
}

void FourierNS::set_initial(const Field3Fn& u0, const Field3Fn& v0, const Field3Fn& w0) {
    reset_state(nplanes_ * disc_->quad_size());
    load_state(u0, v0, w0);
}

void FourierNS::set_initial_exact(const TimeField3Fn& u, const TimeField3Fn& v,
                                  const TimeField3Fn& w) {
    const std::size_t n = nplanes_ * disc_->quad_size();
    reset_state(n);
    // Seed the history oldest-first: t = -(Je-1) dt, ..., -dt.
    for (int q = time_order() - 1; q >= 1; --q) {
        const double t = -static_cast<double>(q) * opts_.dt;
        load_state([&](double x, double y, double z) { return u(x, y, z, t); },
                   [&](double x, double y, double z) { return v(x, y, z, t); },
                   [&](double x, double y, double z) { return w(x, y, z, t); });
        std::vector<std::vector<double>> nl(3, std::vector<double>(n));
        nonlinear(nl);
        push_history({quad_[0], quad_[1], quad_[2]}, std::move(nl));
    }
    load_state([&](double x, double y, double z) { return u(x, y, z, 0.0); },
               [&](double x, double y, double z) { return v(x, y, z, 0.0); },
               [&](double x, double y, double z) { return w(x, y, z, 0.0); });
}

void FourierNS::transform_all_to_quad() {
    // All local planes of a component fuse into the batch dimension: on a
    // single-group mesh this is one dgemm per component.
    for (int c = 0; c < 3; ++c) disc_->to_quad_planes(modal_[c], quad_[c], nplanes_, backend_);
}

void FourierNS::nonlinear(std::vector<std::vector<double>>& nl) {
    const std::size_t nq = disc_->quad_size();
    const std::size_t nmodes = opts_.num_modes;
    const std::size_t nz = 2 * nmodes;
    const std::size_t tp = transpose_.total_planes(); // 2 * M
    const std::size_t chunk = transpose_.chunk();
    const std::size_t w = nls_.lanes;
    const double scale = static_cast<double>(nz);

    // 1./2./3. Transpose the three velocity components to z-line layout,
    // inverse FFT each point's spectrum, form the six quadratic products in
    // physical z, forward FFT back, and transpose the products to plane
    // layout.  Divergence form:
    //    N_i = -(d/dx (u u_i) + d/dy (v u_i) + d/dz (w u_i)).
    static constexpr int prod_of[6][2] = {{0, 0}, {0, 1}, {0, 2}, {1, 1}, {1, 2}, {2, 2}};
    // The z-line work for points [b, e), w lines at a time through the lane
    // transforms (each lane bitwise the per-line irfft/rfft); in overlapped
    // mode it runs slice by slice between the pipelined exchanges' waits.
    const auto compute_lines = [&](std::size_t b, std::size_t e) {
        for (std::size_t i0 = b; i0 < e; i0 += w) {
            const std::size_t count = std::min(w, e - i0);
            for (std::size_t c = 0; c < 3; ++c) {
                // Spectrum k of line i0 + q, times Nz; the Nyquist
                // coefficient and the unused lanes are zero.
                const double* const line = nls_.lines[c].data() + i0 * tp;
                for (std::size_t k = 0; k <= nmodes; ++k)
                    for (std::size_t q = 0; q < w; ++q) {
                        const bool live = k < nmodes && q < count;
                        nls_.spec[2 * k * w + q] = live ? line[q * tp + 2 * k] * scale : 0.0;
                        nls_.spec[(2 * k + 1) * w + q] =
                            live ? line[q * tp + 2 * k + 1] * scale : 0.0;
                    }
                fft::irfft_lanes(zplan_, w, count, nls_.spec, nls_.phys[c]);
            }
            for (std::size_t pr = 0; pr < 6; ++pr) {
                const double* const a = nls_.phys[prod_of[pr][0]].data();
                const double* const b2 = nls_.phys[prod_of[pr][1]].data();
                for (std::size_t j = 0; j < nz * w; ++j) nls_.prod[j] = a[j] * b2[j];
                fft::rfft_lanes(zplan_, w, count, nls_.prod, nls_.spec);
                double* const out = nls_.plines[pr].data() + i0 * tp;
                for (std::size_t q = 0; q < count; ++q)
                    for (std::size_t k = 0; k < nmodes; ++k) {
                        out[q * tp + 2 * k] = nls_.spec[2 * k * w + q] / scale;
                        out[q * tp + 2 * k + 1] = nls_.spec[(2 * k + 1) * w + q] / scale;
                    }
            }
        }
        if (comm_ && e > b) {
            // 9 z-FFTs (~5 nz log2 nz flops each) plus 6 pointwise products
            // per line, charged at the nominal rate.
            const double flops_per_line =
                (45.0 * std::log2(static_cast<double>(nz)) + 6.0) * static_cast<double>(nz);
            comm_->advance_compute(static_cast<double>(e - b) * flops_per_line /
                                   kVirtualComputeFlops);
        }
    };

    if (opts_.overlap_transpose && comm_ && comm_->size() > 1) {
        const std::vector<std::span<const double>> pin = {quad_[0], quad_[1], quad_[2]};
        const std::vector<std::span<double>> lin = {nls_.lines[0], nls_.lines[1], nls_.lines[2]};
        std::vector<std::span<const double>> lout;
        std::vector<std::span<double>> pout;
        for (std::size_t pr = 0; pr < 6; ++pr) {
            lout.emplace_back(nls_.plines[pr]);
            pout.emplace_back(nls_.pplanes[pr]);
        }
        transpose_.roundtrip_overlapped(comm_, pin, lin, lout, pout, kOverlapSlices,
                                       compute_lines);
    } else {
        for (int c = 0; c < 3; ++c) transpose_.to_lines(comm_, quad_[c], nls_.lines[c]);
        compute_lines(0, chunk);
        for (std::size_t pr = 0; pr < 6; ++pr)
            transpose_.to_planes(comm_, nls_.plines[pr], nls_.pplanes[pr]);
    }

    // 4. Differentiate in plane space: N_c = -(dx P_xc + dy P_yc + i beta P_zc).
    //    Component products: u -> (uu, uv, uw), v -> (uv, vv, vw), w -> (uw, vw, ww).
    //    Each plane takes one gradient of each product the x and y terms
    //    read (uu, uv, uw, vv, vw); uv serves both u and v, and is charged
    //    twice, as the per-component formulation differentiates it.  The
    //    products' z-line buffers are dead once the transposes are done and
    //    hold at least 2 nq values each (chunk * P >= nq points, >= 2
    //    planes per rank), so product pr's gradient goes in its own: d/dx
    //    then d/dy.
    static constexpr int comp_prods[3][3] = {{0, 1, 2}, {1, 3, 4}, {2, 4, 5}};
    const auto grad_of = [&](std::size_t pr, int d) {
        return std::span<double>(nls_.plines[pr]).subspan(static_cast<std::size_t>(d) * nq, nq);
    };
    for (auto& out : nl) std::fill(out.begin(), out.end(), 0.0);
    for (std::size_t m = 0; m < mloc_; ++m) {
        const double bk = beta(global_mode(m));
        for (int reim = 0; reim < 2; ++reim) {
            const std::size_t p = 2 * m + static_cast<std::size_t>(reim);
            for (std::size_t pr = 0; pr < 5; ++pr) {
                const blaslite::CountScope counts;
                const auto pp = std::span<const double>(nls_.pplanes[pr]).subspan(p * nq, nq);
                for (std::size_t e = 0; e < disc_->num_elements(); ++e)
                    disc_->ops(e).grad_collocation(disc_->quad_block(pp, e),
                                                   disc_->quad_block(grad_of(pr, 0), e),
                                                   disc_->quad_block(grad_of(pr, 1), e));
                if (pr == 1) blaslite::thread_counts() += counts.delta();
            }
            for (int c = 0; c < 3; ++c) {
                auto outp = std::span<double>(nl[static_cast<std::size_t>(c)]).subspan(p * nq, nq);
                // x and y derivative terms.
                for (int d = 0; d < 2; ++d)
                    blaslite::daxpy(-1.0, grad_of(static_cast<std::size_t>(comp_prods[c][d]), d),
                                    outp);
                // z derivative: i*beta couples the re/im partner plane.
                const auto& pz = nls_.pplanes[static_cast<std::size_t>(comp_prods[c][2])];
                const std::size_t partner = 2 * m + static_cast<std::size_t>(1 - reim);
                auto pzp = std::span<const double>(pz).subspan(partner * nq, nq);
                // d/dz (re) = -beta * im; d/dz (im) = +beta * re.
                blaslite::daxpy(reim == 0 ? bk : -bk, pzp, outp);
            }
        }
    }
}

// Stage 1: modal -> quadrature for every plane of u, v, w.
void FourierNS::stage_transform(const StepContext&) { transform_all_to_quad(); }

// Stage 2: nonlinear terms (transposes + z FFTs + products + derivatives).
void FourierNS::stage_nonlinear(const StepContext&, std::vector<std::vector<double>>& nl) {
    nonlinear(nl);
}

// Stage 4: per-plane pressure RHS from the Fourier-space divergence.
void FourierNS::stage_pressure_rhs(const StepContext& ctx,
                                   const std::vector<std::vector<double>>& hat) {
    const std::size_t nq = disc_->quad_size();
    prhs_.assign(nplanes_, std::vector<double>(disc_->dofmap().num_global(), 0.0));
    std::vector<double> div(nq), dx(nq), dy(nq), local(disc_->modal_size());
    for (std::size_t m = 0; m < mloc_; ++m) {
        const double bk = beta(global_mode(m));
        for (int reim = 0; reim < 2; ++reim) {
            const std::size_t p = 2 * m + static_cast<std::size_t>(reim);
            auto up = std::span<const double>(hat[0]).subspan(p * nq, nq);
            auto vp = std::span<const double>(hat[1]).subspan(p * nq, nq);
            for (std::size_t e = 0; e < disc_->num_elements(); ++e)
                disc_->ops(e).grad_collocation(disc_->quad_block(up, e),
                                               disc_->quad_block(std::span<double>(div), e),
                                               disc_->quad_block(std::span<double>(dy), e));
            for (std::size_t e = 0; e < disc_->num_elements(); ++e)
                disc_->ops(e).grad_collocation(disc_->quad_block(vp, e),
                                               disc_->quad_block(std::span<double>(dx), e),
                                               disc_->quad_block(std::span<double>(dy), e));
            blaslite::daxpy(1.0, dy, div);
            // + d/dz w: i beta couples planes.
            const std::size_t partner = 2 * m + static_cast<std::size_t>(1 - reim);
            auto wp = std::span<const double>(hat[2]).subspan(partner * nq, nq);
            blaslite::daxpy(reim == 0 ? -bk : bk, wp, div);
            blaslite::dscal(-1.0 / ctx.dt, div);
            std::fill(local.begin(), local.end(), 0.0);
            disc_->weak_inner(div, local, backend_);
            disc_->gather_add(local, prhs_[p]);
        }
    }
}

// Stage 5: per-mode direct pressure solves, split across the thread pool
// by mode: a mode's two planes are one two-RHS pass over its factor, run
// whole on one thread, so results and the counter-derived compute charge
// are independent of the pool size.
void FourierNS::stage_pressure_solve(const StepContext&) {
    const std::size_t nm = disc_->modal_size();
    const std::vector<double> zero(disc_->dofmap().num_global(), 0.0);
    parallel::pool().parallel_for(mloc_, [&](std::size_t m0, std::size_t m1) {
        for (std::size_t m = m0; m < m1; ++m) {
            const auto planes = prhs_.begin() + static_cast<std::ptrdiff_t>(2 * m);
            std::vector<std::vector<double>> rhs(std::make_move_iterator(planes),
                                                 std::make_move_iterator(planes + 2));
            const auto sol = pressure_[m].solve_global(std::move(rhs), {zero, zero});
            for (std::size_t reim = 0; reim < 2; ++reim)
                std::copy(sol[reim].begin(), sol[reim].end(),
                          p_modal_.begin() + static_cast<std::ptrdiff_t>((2 * m + reim) * nm));
        }
    });
}

// Stage 6: Helmholtz RHS: u** = uhat - dt grad p, scaled by 1/(nu dt).
void FourierNS::stage_viscous_rhs(const StepContext& ctx,
                                  std::vector<std::vector<double>>& hat) {
    const std::size_t nq = disc_->quad_size();
    vrhs_.assign(3 * nplanes_, std::vector<double>(disc_->dofmap().num_global(), 0.0));
    const double dt = ctx.dt;
    const double scale = 1.0 / (opts_.viscosity * dt);
    // Batched over every plane at once: the in-plane pressure gradient,
    // the plane interpolation for dp/dz, and the weak inner products.
    std::vector<double> px(nplanes_ * nq), py(nplanes_ * nq), pquad(nplanes_ * nq);
    disc_->grad_from_modal_planes(p_modal_, px, py, nplanes_, backend_);
    disc_->to_quad_planes(p_modal_, pquad, nplanes_, backend_);
    for (std::size_t m = 0; m < mloc_; ++m) {
        const double bk = beta(global_mode(m));
        for (int reim = 0; reim < 2; ++reim) {
            const std::size_t p = 2 * m + static_cast<std::size_t>(reim);
            auto hu = std::span<double>(hat[0]).subspan(p * nq, nq);
            auto hv = std::span<double>(hat[1]).subspan(p * nq, nq);
            blaslite::daxpy(-dt, std::span<const double>(px).subspan(p * nq, nq), hu);
            blaslite::daxpy(-dt, std::span<const double>(py).subspan(p * nq, nq), hv);
            // dp/dz on the partner plane of w.
            const std::size_t partner = 2 * m + static_cast<std::size_t>(1 - reim);
            auto pq = std::span<const double>(pquad).subspan(partner * nq, nq);
            auto hw = std::span<double>(hat[2]).subspan(p * nq, nq);
            blaslite::daxpy(reim == 0 ? dt * bk : -dt * bk, pq, hw);
        }
    }
    std::vector<double> local(nplanes_ * disc_->modal_size());
    for (int c = 0; c < 3; ++c) {
        blaslite::dscal(scale, hat[static_cast<std::size_t>(c)]);
        std::fill(local.begin(), local.end(), 0.0);
        disc_->weak_inner_planes(hat[static_cast<std::size_t>(c)], local, nplanes_, backend_);
        for (std::size_t p = 0; p < nplanes_; ++p)
            disc_->gather_add(
                std::span<const double>(local).subspan(p * disc_->modal_size(),
                                                       disc_->modal_size()),
                vrhs_[static_cast<std::size_t>(c) * nplanes_ + p]);
    }
}

// Stage 7: per-mode direct Helmholtz solves (3 components x 2 planes) with
// the operator set of the step's *effective* order, so the implicit lambda
// matches the explicit weights (startup ramp included).
void FourierNS::stage_viscous_solve(const StepContext& ctx) {
    const std::size_t nm = disc_->modal_size();
    const double tn1 = ctx.t_new;
    // Build (or fetch) the whole order's operator set up front, outside the
    // thread pool; the old code rebuilt a bootstrap solver per plane task.
    const std::vector<HelmholtzDirect>& solvers = velocity_solvers_.get(ctx.scheme.order);
    record_velocity_lambda(solvers.front().lambda());
    const VelocityBC* bcs[3] = {&opts_.u_bc, &opts_.v_bc, &opts_.w_bc};
    const std::vector<double> zero(disc_->dofmap().num_global(), 0.0);
    // One task per mode: its 3 components x 2 planes are one six-RHS pass
    // over the mode's factor; each task owns its planes' RHS and output
    // slices.
    parallel::pool().parallel_for(mloc_, [&](std::size_t m0, std::size_t m1) {
        for (std::size_t m = m0; m < m1; ++m) {
            const HelmholtzDirect& solver = solvers[m];
            // Physical Dirichlet data enters only the mean mode's real
            // plane; every other plane is homogeneous.
            const bool mean = global_mode(m) == 0;
            std::vector<double> bvals[3];
            std::vector<std::vector<double>> rhs;
            std::vector<std::span<const double>> dirichlet;
            for (std::size_t c = 0; c < 3; ++c) {
                if (mean)
                    bvals[c] = solver.dirichlet_vector(
                        [&](double x, double y) { return (*bcs[c])(x, y, tn1); });
                for (std::size_t reim = 0; reim < 2; ++reim) {
                    rhs.push_back(std::move(vrhs_[c * nplanes_ + 2 * m + reim]));
                    dirichlet.emplace_back(mean && reim == 0 ? bvals[c] : zero);
                }
            }
            const auto sol = solver.solve_global(std::move(rhs), dirichlet);
            for (std::size_t c = 0; c < 3; ++c)
                for (std::size_t reim = 0; reim < 2; ++reim) {
                    const std::vector<double>& x = sol[2 * c + reim];
                    std::copy(x.begin(), x.end(),
                              modal_[c].begin() +
                                  static_cast<std::ptrdiff_t>((2 * m + reim) * nm));
                }
        }
    });
}

void FourierNS::end_step(const StepContext&) { transform_all_to_quad(); }

std::size_t FourierNS::working_set_bytes() const noexcept {
    return disc_->dofmap().num_global() * (disc_->dofmap().bandwidth() + 1) * sizeof(double);
}

double FourierNS::mode_energy(int c, std::size_t m) const {
    const std::size_t nq = disc_->quad_size();
    std::vector<double> sq(nq);
    double energy = 0.0;
    for (int reim = 0; reim < 2; ++reim) {
        const std::size_t p = 2 * m + static_cast<std::size_t>(reim);
        for (std::size_t i = 0; i < nq; ++i) {
            const double v = quad_[c][p * nq + i];
            sq[i] = v * v;
        }
        energy += disc_->integrate(sq);
    }
    return energy;
}

double FourierNS::l2_error_3d(
    simmpi::Comm* comm, int c, double t,
    const std::function<double(double, double, double, double)>& exact) const {
    // Evaluate on Nz physical z-planes: u(x,y,z_j) = Re sum_k u_k e^{i beta_k z_j}.
    // Each rank sums its own modes' contribution at every z; the partial
    // fields combine by allreduce.
    const std::size_t nq = disc_->quad_size();
    const std::size_t nz = 2 * opts_.num_modes;
    std::vector<double> field(nz * nq, 0.0);
    for (std::size_t m = 0; m < mloc_; ++m) {
        const std::size_t k = global_mode(m);
        const double factor = k == 0 ? 1.0 : 2.0; // conjugate pair
        for (std::size_t j = 0; j < nz; ++j) {
            const double z = opts_.lz * static_cast<double>(j) / static_cast<double>(nz);
            const double cb = std::cos(beta(k) * z);
            const double sb = std::sin(beta(k) * z);
            for (std::size_t i = 0; i < nq; ++i) {
                const double re = quad_[c][(2 * m) * nq + i];
                const double im = quad_[c][(2 * m + 1) * nq + i];
                field[j * nq + i] += factor * (re * cb - im * sb);
            }
        }
    }
    if (comm) comm->allreduce_sum(field);
    double err2 = 0.0;
    for (std::size_t j = 0; j < nz; ++j) {
        const double z = opts_.lz * static_cast<double>(j) / static_cast<double>(nz);
        for (std::size_t e = 0; e < disc_->num_elements(); ++e) {
            const auto& g = disc_->ops(e).geometry();
            for (std::size_t q = 0; q < disc_->ops(e).num_quad(); ++q) {
                const std::size_t i = disc_->quad_offset(e) + q;
                const double d = field[j * nq + i] - exact(g.x[q], g.y[q], z, t);
                err2 += g.wj[q] * d * d / static_cast<double>(nz);
            }
        }
    }
    return std::sqrt(err2);
}

} // namespace nektar
