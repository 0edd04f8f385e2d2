#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "gs/gather_scatter.hpp"
#include "nektar/discretization.hpp"
#include "nektar/helmholtz.hpp"
#include "nektar/ns_serial.hpp"
#include "nektar/splitting.hpp"

/// \file ns_ale.hpp
/// NekTar-ALE: the arbitrary Lagrangian-Eulerian Navier-Stokes solver on a
/// moving mesh with element-based domain decomposition (paper §4.2.2).
///
/// Differences from the fixed-mesh solvers, exactly as the paper lists them:
///  * "a term is added in the non-linear step 2, associated with the updating
///    of the positions of the vertices of each element" — the advecting
///    velocity becomes (u - w_mesh) and the geometry factors are rebuilt;
///  * "an extra Helmholtz solve is added in step 7, associated with the
///    calculation of the velocity of the moving mesh";
///  * "instead of direct solvers, a diagonally preconditioned conjugate
///    gradient iterative solver is predominantly used";
///  * communications go through the Tufo-Fischer GS library (pairwise +
///    tree), *not* MPI_Alltoall.
///
/// Time integration runs through the shared stiffly-stable core
/// (splitting.hpp) at order 1..3, like the serial and Fourier solvers.
///
/// The mesh is split across ranks by the METIS-style partitioner; every rank
/// owns a contiguous sub-discretization and shares interface dofs through
/// gather-scatter assembly inside PCG.
namespace nektar {

// AleOptions (the SolverOptions extension for this solver) lives in
// solver_options.hpp with the rest of the unified configuration API.

class AleNS2d : public SolverCore {
public:
    /// Collective when `comm` is non-null: every rank passes the same full
    /// mesh and partition vector (element -> rank) and keeps only its part.
    AleNS2d(const mesh::Mesh& full_mesh, std::size_t order, AleOptions opts,
            simmpi::Comm* comm = nullptr, const std::vector<int>* elem_part = nullptr);

    void set_initial(const std::function<double(double, double)>& u0,
                     const std::function<double(double, double)>& v0);

    /// Exact-history start for temporal convergence studies: sets the state
    /// at t = 0 and seeds the time_order - 1 history levels from t = -dt,
    /// -2 dt, so the first step runs at the full requested order.  Histories
    /// are sampled on the t = 0 mesh; meaningful when the mesh is at rest at
    /// start (body_velocity(t) ~ 0 for t <= 0).
    void set_initial_exact(const VelocityBC& u, const VelocityBC& v);

    void step() { advance(); }

    /// This rank's sub-discretization (rebuilt as the mesh moves).
    [[nodiscard]] const Discretization& disc() const noexcept { return *disc_; }
    [[nodiscard]] const std::vector<double>& u_quad() const noexcept { return uq_; }
    [[nodiscard]] const std::vector<double>& v_quad() const noexcept { return vq_; }
    /// Mesh velocity (vertical component) at quadrature points.
    [[nodiscard]] const std::vector<double>& mesh_velocity_quad() const noexcept { return wq_; }

    /// PCG iterations of the last pressure solve (diagnostics).
    [[nodiscard]] std::size_t last_pressure_iterations() const noexcept { return last_p_iters_; }

protected:
    /// ALE extras ahead of the splitting stages: the mesh-velocity Helmholtz
    /// solve (charged to stage 7, "an extra Helmholtz solve is added in step
    /// 7") and the vertex update + geometry rebuild (charged to stage 2).
    void begin_step(const StepContext& ctx) override;
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
    void rebuild_discretization();
    /// Projects pointwise fields into the solver state (no reset).
    void load_state(const std::function<double(double, double)>& u0,
                    const std::function<double(double, double)>& v0);
    /// ALE nonlinear terms with advecting velocity (u, v - w_mesh).
    void nonlinear(std::vector<std::vector<double>>& nl) const;
    /// Distributed (or serial) diagonally preconditioned CG solve of
    /// (L + lambda M) x = rhs with Dirichlet data already in x.
    std::size_t pcg_solve(double lambda, const std::vector<char>& dirichlet,
                          std::span<const double> rhs, std::span<double> x) const;
    [[nodiscard]] double global_dot(std::span<const double> a, std::span<const double> b) const;
    std::vector<double> weak_rhs(std::span<const double> quad) const;
    void gs_assemble(std::span<double> global) const;
    [[nodiscard]] std::vector<double> dirichlet_x(
        const HelmholtzBC& bc, const std::function<double(double, double)>& g) const;

    AleOptions opts_;
    /// Resolved compute backend (opts_.backend, Auto -> disc default);
    /// rebuild_discretization() passes it through so per-step mesh rebuilds
    /// keep the same engine.
    compute::BackendKind backend_ = compute::BackendKind::Auto;
    simmpi::Comm* comm_;
    std::size_t order_;
    // Local piece of the mesh (vertices move every step).
    std::shared_ptr<mesh::Mesh> local_mesh_;
    std::shared_ptr<const Discretization> disc_;
    std::unique_ptr<gs::GatherScatter> gs_;
    std::vector<double> dot_weights_;      ///< 1/multiplicity per local dof
    std::vector<char> vel_dirichlet_, p_dirichlet_, mesh_dirichlet_;

    std::vector<double> u_modal_, v_modal_, p_modal_;
    std::vector<double> uq_, vq_, wq_;
    // Inter-stage scratch of the current step (RHS vectors in global dofs).
    std::vector<double> prhs_, urhs_, vrhs_;
    mutable std::size_t last_p_iters_ = 0;
};

} // namespace nektar
