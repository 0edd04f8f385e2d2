#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "nektar/solver_options.hpp"
#include "nektar/splitting.hpp"
#include "nektar/static_condensation.hpp"

/// \file ns_serial.hpp
/// The serial 2-D incompressible Navier-Stokes solver (paper §4.1).
///
/// Time integration is the high-order stiffly-stable splitting scheme shared
/// by all three solvers (see splitting.hpp) at order 1..3 (the paper uses "a
/// second order time-integration ... summarised in three main steps"), split
/// into the 7 instrumented stages of Figure 12:
///   1  transform modal -> quadrature
///   2  evaluate nonlinear terms -(u . grad) u at quadrature points
///   3  weight-average with previous nonlinear terms (stiffly-stable)
///   4  set up the pressure Poisson RHS
///   5  condensed banded direct solve of the Poisson equation
///   6  set up the viscous Helmholtz RHS
///   7  condensed banded direct solves of the Helmholtz equations
/// Both solves go through CondensedHelmholtz, the solver's one direct path.
namespace nektar {

class SerialNS2d : public SolverCore {
public:
    SerialNS2d(std::shared_ptr<const Discretization> disc, SerialNsOptions opts);

    /// Sets the initial velocity field (evaluated at quadrature points and
    /// projected); resets the history ring buffers and the clock.  The first
    /// steps then ramp through the integration orders 1, 2, ..., time_order.
    void set_initial(const std::function<double(double, double)>& u0,
                     const std::function<double(double, double)>& v0);

    /// Exact-history start for temporal convergence studies: sets the state
    /// from u(x, y, t), v(x, y, t) at t = 0 and seeds the time_order - 1
    /// history levels from t = -dt, -2 dt, so the very first step runs at
    /// the full requested order instead of ramping.
    void set_initial_exact(const VelocityBC& u, const VelocityBC& v);

    /// Advances one time step, recording stage statistics.
    void step() { advance(); }

    [[nodiscard]] const Discretization& disc() const noexcept { return *disc_; }

    /// Current fields at quadrature points.
    [[nodiscard]] const std::vector<double>& u_quad() const noexcept { return uq_; }
    [[nodiscard]] const std::vector<double>& v_quad() const noexcept { return vq_; }
    [[nodiscard]] const std::vector<double>& p_modal() const noexcept { return p_modal_; }

    /// L2 norm of the divergence of the current velocity.
    [[nodiscard]] double divergence_norm() const;

    /// Bytes of the condensed (Schur) band each direct solve streams: the
    /// priced working set of stages 5 and 7.
    [[nodiscard]] std::size_t working_set_bytes() const noexcept;

    /// Vorticity omega = dv/dx - du/dy at quadrature points (the wake's
    /// primary observable).
    [[nodiscard]] std::vector<double> vorticity_quad() const;

    /// The per-effective-order velocity operator cache (restart regression
    /// hook: a run resumed mid-ramp must rebuild the ramp orders' operators).
    [[nodiscard]] const HelmholtzOrderCache<CondensedHelmholtz>& velocity_solver_cache()
        const noexcept {
        return velocity_solvers_;
    }

protected:
    void stage_transform(const StepContext& ctx) override;
    void stage_nonlinear(const StepContext& ctx,
                         std::vector<std::vector<double>>& nl) override;
    void stage_pressure_rhs(const StepContext& ctx,
                            const std::vector<std::vector<double>>& hat) override;
    void stage_pressure_solve(const StepContext& ctx) override;
    void stage_viscous_rhs(const StepContext& ctx,
                           std::vector<std::vector<double>>& hat) override;
    void stage_viscous_solve(const StepContext& ctx) override;
    void end_step(const StepContext& ctx) override;
    [[nodiscard]] const std::vector<double>& quad_field(std::size_t c) const override {
        return c == 0 ? uq_ : vq_;
    }
    void save_state(ckpt::Checkpoint& c) const override;
    void restore_state(const ckpt::Checkpoint& c) override;
    [[nodiscard]] std::uint64_t options_fingerprint() const override;

private:
    void nonlinear(const std::vector<double>& uq, const std::vector<double>& vq,
                   std::vector<double>& nu_out, std::vector<double>& nv_out) const;
    /// Projects pointwise fields at time t into the solver state (no reset).
    void load_state(const std::function<double(double, double)>& u0,
                    const std::function<double(double, double)>& v0);

    std::shared_ptr<const Discretization> disc_;
    SerialNsOptions opts_;
    /// Resolved compute backend (opts_.backend, Auto -> disc default).
    compute::BackendKind backend_ = compute::BackendKind::Auto;
    CondensedHelmholtz pressure_solver_;
    /// Velocity Helmholtz operators keyed on the *effective* startup order,
    /// so the implicit lambda = gamma0/(nu dt) always matches the explicit
    /// weights (the ramped first steps included).
    HelmholtzOrderCache<CondensedHelmholtz> velocity_solvers_;

    // State: modal coefficients and quadrature values of (u, v).
    std::vector<double> u_modal_, v_modal_, p_modal_;
    std::vector<double> uq_, vq_;
    // Inter-stage scratch of the current step (RHS vectors in global dofs).
    std::vector<double> prhs_, urhs_, vrhs_;
};

} // namespace nektar
