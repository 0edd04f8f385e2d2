#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

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
///
/// All four solves are HelmholtzPCG over one DofAssembly (the rank's
/// gather-scatter and dot weights, built once).  The two lambda-shifted
/// velocity solves of stage 7 run its condensed system: the interior modes
/// are eliminated element by element and Jacobi PCG runs on the boundary
/// Schur system, whose gather-scatter is the full system's (interior dofs
/// are rank-private).  The pressure and mesh-velocity (lambda = 0) solves
/// run Jacobi PCG on the full system.
namespace nektar {

// AleOptions (the SolverOptions extension for this solver) lives in
// solver_options.hpp with the rest of the unified configuration API.

/// The four PCG solves of an ALE step.
enum class AleSolve : std::uint8_t { Mesh, Pressure, U, V };

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

    /// Bytes of the elemental Laplacian and mass matrices every PCG
    /// iteration streams on this rank: the priced working set of stages 5
    /// and 7.
    [[nodiscard]] std::size_t working_set_bytes() const noexcept;

    /// PCG iterations of the last solve of each kind (diagnostics).
    [[nodiscard]] std::size_t last_iterations(AleSolve s) const noexcept {
        return last_iters_[static_cast<std::size_t>(s)];
    }
    [[nodiscard]] std::size_t last_pressure_iterations() const noexcept {
        return last_iterations(AleSolve::Pressure);
    }

    /// How velocity_helmholtz solves: stage 7's statically condensed PCG, or
    /// the full-system Jacobi PCG of the pressure and mesh-velocity solves.
    enum class Path { Condensed, FullSystem };

    /// Solves (L + lambda M) x = f on the current mesh with the velocity
    /// boundary conditions, Dirichlet data g, at the configured CG
    /// tolerance; returns this rank's global dof vector.  Collective when
    /// parallel.  Records its iterations as AleSolve::U.
    [[nodiscard]] std::vector<double> velocity_helmholtz(
        double lambda, std::span<const double> f_quad,
        const std::function<double(double, double)>& g, Path path) const;

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
    /// A HelmholtzPCG solve recorded as `which`; an unconverged one throws
    /// naming the solve and the step.
    std::vector<double> solve(const HelmholtzPCG& pcg, AleSolve which,
                              std::span<const double> rhs, std::vector<double> x) const;
    /// Stage 7's condensed solver at `lambda` on the current mesh, kept for
    /// u and v; rebuild_discretization() drops it.
    const HelmholtzPCG& condensed_velocity(double lambda) const;

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
    std::unique_ptr<const DofAssembly> assembly_;

    std::vector<double> u_modal_, v_modal_, p_modal_;
    std::vector<double> uq_, vq_, wq_;
    // Inter-stage scratch of the current step (RHS vectors in global dofs).
    std::vector<double> prhs_, urhs_, vrhs_;
    mutable std::optional<HelmholtzPCG> velocity_pcg_;
    mutable std::array<std::size_t, 4> last_iters_{};
};

} // namespace nektar
