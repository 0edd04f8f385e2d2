#include "nektar/ns_serial.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "blaslite/blas.hpp"

namespace nektar {

SerialNS2d::SerialNS2d(std::shared_ptr<const Discretization> disc, SerialNsOptions opts)
    : SolverCore(opts.time_order, opts.dt, /*num_fields=*/2, /*comm=*/nullptr, opts.trace),
      disc_(std::move(disc)),
      opts_(opts),
      backend_(compute::resolve(opts.backend, disc_->backend())),
      pressure_solver_(disc_, 0.0, opts.pressure_bc) {
    velocity_solvers_.configure([this](double gamma0) {
        std::vector<CondensedHelmholtz> v;
        v.emplace_back(disc_, gamma0 / (opts_.viscosity * opts_.dt), opts_.velocity_bc);
        return v;
    });
    // Warm the steady-state operator (the startup orders build on first use).
    (void)velocity_solvers_.get(opts_.time_order);
    const std::size_t nm = disc_->modal_size();
    const std::size_t nq = disc_->quad_size();
    u_modal_.assign(nm, 0.0);
    v_modal_.assign(nm, 0.0);
    p_modal_.assign(nm, 0.0);
    uq_.assign(nq, 0.0);
    vq_.assign(nq, 0.0);
    reset_state(nq);
    set_checkpoint_cadence(opts_.checkpoint_every);
}

std::uint64_t SerialNS2d::options_fingerprint() const {
    ckpt::Fingerprint fp;
    fp.add("SerialNS2d")
        .add(compute::to_string(backend_))
        .add(opts_.dt)
        .add(opts_.viscosity)
        .add(static_cast<std::uint64_t>(opts_.time_order))
        .add(static_cast<std::uint64_t>(disc_->modal_size()))
        .add(static_cast<std::uint64_t>(disc_->quad_size()))
        .add(static_cast<std::uint64_t>(disc_->num_elements()))
        .add(static_cast<std::uint64_t>(disc_->dofmap().num_global()));
    return fp.value();
}

void SerialNS2d::save_state(ckpt::Checkpoint& c) const {
    // prhs_/urhs_/vrhs_ are intra-step scratch, reassigned before use — the
    // state vector is the modal fields plus their quadrature images.
    auto& w = c.add("fields");
    w.f64v(u_modal_);
    w.f64v(v_modal_);
    w.f64v(p_modal_);
    w.f64v(uq_);
    w.f64v(vq_);
}

void SerialNS2d::restore_state(const ckpt::Checkpoint& c) {
    auto r = c.open("fields");
    auto take = [&](std::vector<double>& dst) {
        std::vector<double> v = r.f64v();
        if (v.size() != dst.size()) r.fail("field size out of range");
        dst = std::move(v);
    };
    take(u_modal_);
    take(v_modal_);
    take(p_modal_);
    take(uq_);
    take(vq_);
    r.expect_end();
}

void SerialNS2d::load_state(const std::function<double(double, double)>& u0,
                            const std::function<double(double, double)>& v0) {
    disc_->eval_at_quad(u0, uq_);
    disc_->eval_at_quad(v0, vq_);
    disc_->project(uq_, u_modal_, backend_);
    disc_->project(vq_, v_modal_, backend_);
    // Re-evaluate at quad points from the projected modal field so state is
    // consistent (the projection is not interpolation).
    disc_->to_quad(u_modal_, uq_, backend_);
    disc_->to_quad(v_modal_, vq_, backend_);
}

void SerialNS2d::set_initial(const std::function<double(double, double)>& u0,
                             const std::function<double(double, double)>& v0) {
    reset_state(disc_->quad_size());
    load_state(u0, v0);
}

void SerialNS2d::set_initial_exact(const VelocityBC& u, const VelocityBC& v) {
    const std::size_t nq = disc_->quad_size();
    reset_state(nq);
    // Seed the history oldest-first: t = -(Je-1) dt, ..., -dt.
    for (int q = time_order() - 1; q >= 1; --q) {
        const double t = -static_cast<double>(q) * opts_.dt;
        load_state([&](double x, double y) { return u(x, y, t); },
                   [&](double x, double y) { return v(x, y, t); });
        std::vector<std::vector<double>> nl(2, std::vector<double>(nq));
        nonlinear(uq_, vq_, nl[0], nl[1]);
        push_history({uq_, vq_}, std::move(nl));
    }
    load_state([&](double x, double y) { return u(x, y, 0.0); },
               [&](double x, double y) { return v(x, y, 0.0); });
}

void SerialNS2d::nonlinear(const std::vector<double>& uq, const std::vector<double>& vq,
                           std::vector<double>& nu_out, std::vector<double>& nv_out) const {
    assert(nu_out.size() == disc_->quad_size() && nv_out.size() == disc_->quad_size());
    // N_u = -(u du/dx + v du/dy), N_v = -(u dv/dx + v dv/dy): batched
    // collocation derivatives with the chain rule, products and sign fused
    // into one scatter (compute::Backend::convect_planes).
    disc_->convect_planes(uq, vq, uq, vq, nu_out, nv_out, 1, backend_);
}

// Stage 1: transform modal -> quadrature space.
void SerialNS2d::stage_transform(const StepContext&) {
    disc_->to_quad(u_modal_, uq_, backend_);
    disc_->to_quad(v_modal_, vq_, backend_);
}

// Stage 2: nonlinear terms at quadrature points.
void SerialNS2d::stage_nonlinear(const StepContext&, std::vector<std::vector<double>>& nl) {
    nonlinear(uq_, vq_, nl[0], nl[1]);
}

// Stage 4: pressure Poisson RHS, - (div uhat / dt, v).
void SerialNS2d::stage_pressure_rhs(const StepContext& ctx,
                                    const std::vector<std::vector<double>>& hat) {
    const std::size_t nq = disc_->quad_size();
    prhs_.assign(disc_->dofmap().num_global(), 0.0);
    std::vector<double> div(nq), dx(nq), dy(nq);
    for (std::size_t e = 0; e < disc_->num_elements(); ++e) {
        disc_->ops(e).grad_collocation(disc_->quad_block(std::span<const double>(hat[0]), e),
                                       disc_->quad_block(std::span<double>(div), e),
                                       disc_->quad_block(std::span<double>(dy), e));
    }
    for (std::size_t e = 0; e < disc_->num_elements(); ++e) {
        disc_->ops(e).grad_collocation(disc_->quad_block(std::span<const double>(hat[1]), e),
                                       disc_->quad_block(std::span<double>(dx), e),
                                       disc_->quad_block(std::span<double>(dy), e));
    }
    blaslite::daxpy(1.0, dy, div);
    blaslite::dscal(-1.0 / ctx.dt, div);
    std::vector<double> local(disc_->modal_size(), 0.0);
    disc_->weak_inner(div, local, backend_);
    disc_->gather_add(local, prhs_);
}

// Stage 5: condensed banded direct solve for the pressure.
void SerialNS2d::stage_pressure_solve(const StepContext&) {
    const std::vector<double> pdir(disc_->dofmap().num_global(), 0.0);
    p_modal_ = pressure_solver_.solve_global(prhs_, pdir);
}

// Stage 6: Helmholtz RHS, u** = uhat - dt grad p, then scaled so that
// (grad u, grad v) + lambda (u, v) = (u** / (nu dt), v), lambda = gamma0/(nu dt).
void SerialNS2d::stage_viscous_rhs(const StepContext& ctx,
                                   std::vector<std::vector<double>>& hat) {
    const std::size_t nq = disc_->quad_size();
    std::vector<double> px(nq), py(nq);
    disc_->grad_from_modal(p_modal_, px, py, backend_);
    blaslite::daxpy(-ctx.dt, px, hat[0]);
    blaslite::daxpy(-ctx.dt, py, hat[1]);
    const double scale = 1.0 / (opts_.viscosity * ctx.dt);
    blaslite::dscal(scale, hat[0]);
    blaslite::dscal(scale, hat[1]);
    urhs_.assign(disc_->dofmap().num_global(), 0.0);
    vrhs_.assign(disc_->dofmap().num_global(), 0.0);
    std::vector<double> lu(disc_->modal_size(), 0.0), lv(disc_->modal_size(), 0.0);
    disc_->weak_inner(hat[0], lu, backend_);
    disc_->weak_inner(hat[1], lv, backend_);
    disc_->gather_add(lu, urhs_);
    disc_->gather_add(lv, vrhs_);
}

// Stage 7: condensed banded direct Helmholtz solves of u and v, in one
// pass over the Schur factor, with the operator of the step's *effective*
// order, so the implicit lambda matches the explicit weights.
void SerialNS2d::stage_viscous_solve(const StepContext& ctx) {
    const CondensedHelmholtz& solver = velocity_solvers_.get(ctx.scheme.order).front();
    record_velocity_lambda(solver.lambda());
    const double tn1 = ctx.t_new;
    const auto udir =
        solver.dirichlet_vector([&](double x, double y) { return opts_.u_bc(x, y, tn1); });
    const auto vdir =
        solver.dirichlet_vector([&](double x, double y) { return opts_.v_bc(x, y, tn1); });
    std::vector<std::vector<double>> rhs; // moved in: a braced list would copy
    rhs.push_back(std::move(urhs_));
    rhs.push_back(std::move(vrhs_));
    auto uv = solver.solve_global(rhs, {udir, vdir});
    u_modal_ = std::move(uv[0]);
    v_modal_ = std::move(uv[1]);
}

void SerialNS2d::end_step(const StepContext&) {
    disc_->to_quad(u_modal_, uq_, backend_);
    disc_->to_quad(v_modal_, vq_, backend_);
}

std::vector<double> SerialNS2d::vorticity_quad() const {
    const std::size_t nq = disc_->quad_size();
    std::vector<double> w(nq), dx(nq), dy(nq);
    disc_->grad_from_modal(v_modal_, w, dy, backend_);
    disc_->grad_from_modal(u_modal_, dx, dy, backend_);
    for (std::size_t q = 0; q < nq; ++q) w[q] -= dy[q];
    return w;
}

std::size_t SerialNS2d::working_set_bytes() const noexcept {
    return pressure_solver_.boundary_dofs() * (pressure_solver_.bandwidth() + 1) *
           sizeof(double);
}

double SerialNS2d::divergence_norm() const {
    const std::size_t nq = disc_->quad_size();
    std::vector<double> div(nq), dx(nq), dy(nq);
    disc_->grad_from_modal(u_modal_, div, dy, backend_);
    disc_->grad_from_modal(v_modal_, dx, dy, backend_);
    for (std::size_t q = 0; q < nq; ++q) div[q] += dy[q];
    return disc_->l2_norm(div);
}

} // namespace nektar
