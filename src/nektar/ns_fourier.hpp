#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "blaslite/counters.hpp"
#include "fft/fft.hpp"
#include "nektar/helmholtz.hpp"
#include "nektar/transpose.hpp"
#include "nektar/ns_serial.hpp"
#include "nektar/splitting.hpp"

/// \file ns_fourier.hpp
/// NekTar-F: the Fourier-spectral/hp parallel Navier-Stokes solver (§4.2.1).
///
/// A 3-D field on a domain with one homogeneous (z) direction is expanded as
/// u(x,y,z) = sum_k u_k(x,y) exp(i beta_k z); each complex Fourier mode is a
/// pair of 2-D spectral/hp element planes ("one processor is assigned to one
/// Fourier mode which corresponds to two spectral/hp element planes").  The
/// per-mode Poisson/Helmholtz problems are solved with *direct* banded
/// solvers — the key speed advantage the paper highlights — while the
/// nonlinear step couples modes through MPI_Alltoall transpositions and
/// 1-D FFTs, exactly the paper's stage-2 bottleneck.  Time integration runs
/// through the shared stiffly-stable core (splitting.hpp) at order 1..3.
namespace nektar {

// FourierNsOptions (the SolverOptions extension for this solver) lives in
// solver_options.hpp with the rest of the unified configuration API.

/// 3-D initial condition f(x, y, z).
using Field3Fn = std::function<double(double, double, double)>;
/// Time-dependent 3-D field f(x, y, z, t) (exact-history starts).
using TimeField3Fn = std::function<double(double, double, double, double)>;

class FourierNS : public SolverCore {
public:
    /// `comm` is the rank's communicator (null = serial, all modes local).
    /// num_modes must be divisible by the communicator size.
    FourierNS(std::shared_ptr<const Discretization> disc, FourierNsOptions opts,
              simmpi::Comm* comm = nullptr);

    void set_initial(const Field3Fn& u0, const Field3Fn& v0, const Field3Fn& w0);

    /// Exact-history start for temporal convergence studies: sets the state
    /// at t = 0 and seeds the time_order - 1 history levels from t = -dt,
    /// -2 dt, so the first step runs at the full requested order.
    void set_initial_exact(const TimeField3Fn& u, const TimeField3Fn& v,
                           const TimeField3Fn& w);

    void step() { advance(); }

    [[nodiscard]] std::size_t local_modes() const noexcept { return mloc_; }
    [[nodiscard]] std::size_t total_modes() const noexcept { return opts_.num_modes; }
    [[nodiscard]] const Discretization& disc() const noexcept { return *disc_; }

    /// Bytes of the full-system band (every global dof, bandwidth + 1
    /// diagonals) each mode's direct solves stream: the priced working set
    /// of stages 5 and 7.
    [[nodiscard]] std::size_t working_set_bytes() const noexcept;

    /// Quadrature values of local plane `p` (p = 2*local_mode + [0 re |1 im])
    /// of velocity component c (0 = u, 1 = v, 2 = w).
    [[nodiscard]] std::span<const double> plane_quad(int c, std::size_t p) const;

    /// Evaluates the physical-space velocity component c at (quad point of
    /// the plane mesh, z) by summing this rank's modes; ranks combine via
    /// allreduce when called collectively through l2_error_3d.
    [[nodiscard]] double l2_error_3d(simmpi::Comm* comm, int c, double t,
                                     const std::function<double(double, double, double, double)>&
                                         exact) const;

    /// Kinetic-energy content of local complex mode m of component c:
    /// integral over the plane of |u_km|^2 (re^2 + im^2), the z-spectrum
    /// diagnostic turbulence runs monitor.
    [[nodiscard]] double mode_energy(int c, std::size_t m) const;

    /// The per-effective-order velocity operator cache (restart regression
    /// hook: a run resumed mid-ramp must rebuild the ramp orders' operators).
    [[nodiscard]] const HelmholtzOrderCache<HelmholtzDirect>& velocity_solver_cache()
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
        return quad_[c];
    }
    void save_state(ckpt::Checkpoint& c) const override;
    void restore_state(const ckpt::Checkpoint& c) override;
    [[nodiscard]] std::uint64_t options_fingerprint() const override;

private:
    [[nodiscard]] double beta(std::size_t global_mode) const noexcept;
    [[nodiscard]] std::size_t global_mode(std::size_t local) const noexcept;
    void nonlinear(std::vector<std::vector<double>>& nl);
    void transform_all_to_quad();
    /// Samples pointwise 3-D fields into the local modes' state (no reset).
    void load_state(const Field3Fn& u0, const Field3Fn& v0, const Field3Fn& w0);

    std::shared_ptr<const Discretization> disc_;
    FourierNsOptions opts_;
    /// Resolved compute backend (opts_.backend, Auto -> disc default).
    compute::BackendKind backend_ = compute::BackendKind::Auto;
    simmpi::Comm* comm_;
    std::size_t mloc_;       ///< complex modes per rank
    std::size_t nplanes_;    ///< 2 * mloc_
    /// The paper's slab: one P-wide alltoall on the world comm per exchange.
    Transpose transpose_;
    fft::Plan zplan_;        ///< length-Nz real FFT plan

    std::vector<HelmholtzDirect> pressure_;  ///< one per local mode
    /// Per-mode velocity operators keyed on the *effective* startup order
    /// (lambda = gamma0/(nu dt) + beta_k^2 must match the explicit weights).
    HelmholtzOrderCache<HelmholtzDirect> velocity_solvers_;

    // [component][plane * modal_size] modal coefficients; quad likewise.
    std::vector<double> modal_[3];
    std::vector<double> quad_[3];
    std::vector<double> p_modal_;            ///< pressure planes
    /// The counts transform_all_to_quad charged, while quad_ still holds
    /// its transform of modal_; empty once either is written otherwise.
    std::optional<blaslite::OpCounts> quad_counts_;
    // Inter-stage scratch: per-plane pressure and velocity RHS vectors.
    std::vector<std::vector<double>> prhs_, vrhs_;
    /// Stage-2 scratch, sized once: the velocity components' and the six
    /// products' z-lines (the latter later hold one plane's product
    /// gradients), the products' planes and one batch of lane-interleaved
    /// z-lines (fft::rfft_lanes layout).
    struct NonlinearScratch {
        std::size_t lanes = 0;
        std::vector<double> lines[3], plines[6], pplanes[6];
        std::vector<double> spec, phys[3], prod;
    } nls_;
};

} // namespace nektar
