#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <tuple>
#include <vector>

#include "la/banded.hpp"
#include "la/cg.hpp"
#include "nektar/discretization.hpp"

/// \file helmholtz.hpp
/// Global Helmholtz/Poisson solvers:  (grad u, grad v) + lambda (u, v) = (f, v).
///
/// Each solver has one role:
///  * CondensedHelmholtz (static_condensation.hpp) — SerialNS2d's direct
///    solver for stages 5 and 7 (Figure 12): the interior modes are
///    eliminated element by element and the boundary Schur system is
///    factored once by banded Cholesky, NekTar's ordering of Figure 10.
///  * HelmholtzDirect — the full assembled band factored once by Cholesky
///    (the LAPACK dpbtrf/dpbtrs path): NekTar-F's per-Fourier-mode solver,
///    and the reference the condensed solver is tested against.
///  * HelmholtzPCG — matrix-free diagonally preconditioned conjugate
///    gradient over the elemental matrices (the NekTar-ALE path, which also
///    runs distributed with gather-scatter assembly).
namespace nektar {

/// Which boundary tags get Dirichlet treatment; everything else is natural
/// (zero Neumann).  `pin_first_dof` regularises the all-Neumann Poisson
/// problem (pure periodic/enclosed domains).
struct HelmholtzBC {
    std::set<mesh::BoundaryTag> dirichlet;
    bool pin_first_dof = false;
    [[nodiscard]] bool is_dirichlet(mesh::BoundaryTag t) const {
        return dirichlet.count(t) > 0;
    }
};

/// The weak right-hand side (f, v) of a forcing given at quadrature points,
/// assembled into disc.dofmap() numbering (weak_inner, then gather_add).
[[nodiscard]] std::vector<double> weak_rhs(const Discretization& disc,
                                           std::span<const double> f_quad);

/// The global dofs `bc` constrains: those of its Dirichlet-tagged boundary
/// edges or, when there are none and pin_first_dof is set, the first vertex
/// dof of element 0.
[[nodiscard]] std::vector<int> constrained_dofs(const Discretization& disc,
                                                const HelmholtzBC& bc);

/// A global-length vector holding g on the Dirichlet dofs of `bc` (vertex
/// values interpolated, edge modes L2-projected) and zeros elsewhere; all
/// zeros for an empty g.
[[nodiscard]] std::vector<double> dirichlet_data(const Discretization& disc,
                                                 const HelmholtzBC& bc,
                                                 const std::function<double(double, double)>& g);

/// Dirichlet reduction of an assembled banded system.  The constructor
/// records the constrained columns of `h` for lifting and then turns their
/// rows and columns into the identity; impose() lifts known values out of a
/// right-hand side and writes them into the constrained rows.
class DirichletReduction {
public:
    DirichletReduction() = default;
    DirichletReduction(la::SymBandedMatrix& h, std::vector<int> dofs);

    /// rhs[r] -= H(r, d) values[d] on every free row r and constrained dof
    /// d, then rhs[d] = values[d].
    void impose(std::span<double> rhs, std::span<const double> values) const;

private:
    std::vector<int> dofs_;
    std::vector<std::tuple<int, int, double>> lift_; ///< (row, dof, H(row, dof))
};

class HelmholtzDirect {
public:
    HelmholtzDirect(std::shared_ptr<const Discretization> disc, double lambda,
                    HelmholtzBC bc);

    /// Solves with forcing given at quadrature points and Dirichlet data g.
    /// Returns the solution in per-element modal form (disc->modal_size()).
    /// Pass g = nullptr for homogeneous Dirichlet data.
    [[nodiscard]] std::vector<double> solve(
        std::span<const double> f_quad,
        const std::function<double(double, double)>& g = {}) const;

    /// Variant with the weak RHS already assembled into global dofs
    /// (the Navier-Stokes stepper builds these itself) and global-length
    /// Dirichlet data (dirichlet_vector); `rhs` is consumed.
    [[nodiscard]] std::vector<double> solve_global(std::vector<double> rhs,
                                                   std::span<const double> dirichlet) const;

    /// Several right-hand sides, rhs[q] with Dirichlet data dirichlet[q], in
    /// one pass over the factor (a step's u and v, a Fourier mode's planes).
    /// Bitwise and in operation counts the same as one single-RHS call each.
    [[nodiscard]] std::vector<std::vector<double>> solve_global(
        std::vector<std::vector<double>> rhs,
        const std::vector<std::span<const double>>& dirichlet) const;

    [[nodiscard]] const Discretization& disc() const noexcept { return *disc_; }
    [[nodiscard]] double lambda() const noexcept { return lambda_; }
    [[nodiscard]] std::size_t bandwidth() const noexcept { return chol_.bandwidth(); }
    /// dirichlet_data for this solver's boundary conditions.
    [[nodiscard]] std::vector<double> dirichlet_vector(
        const std::function<double(double, double)>& g) const {
        return dirichlet_data(*disc_, bc_, g);
    }

private:
    /// Global solution -> per-element modal form.
    [[nodiscard]] std::vector<double> to_modal(std::span<const double> x) const;

    std::shared_ptr<const Discretization> disc_;
    double lambda_;
    HelmholtzBC bc_;
    DirichletReduction dirichlet_;
    la::BandedCholesky chol_;
};

/// Matrix-free global apply y = (S + lambda M) x, with the elemental S of
/// each matrix class given by `stiff_of` and M its ElemMatrices::mass (both
/// symmetric, so their row-major buffers double as the column-major left
/// operands of the per-run products).  One pass over the element runs: each
/// run's signed x blocks are gathered straight from the global vector (dofs
/// with mask[i] set read as 0), multiplied by S and then, when lambda != 0,
/// by lambda M, and scatter-added into y in Discretization::gather_add's
/// order (ascending element, then mode).  A contiguous group's run is one
/// dgemm_cm per term; a non-contiguous group takes one dgemv per term and
/// element.  `assemble` (the distributed gather-scatter sum) then runs on
/// y, and finally every masked row is set to x, the identity rows of a
/// Dirichlet-constrained CG.  Bitwise equal, in results and in charged
/// operations, to the scatter / per-run product / gather_add sequence over
/// a zero-masked copy of x.
///
/// An S with fewer rows than the expansion has modes acts on each
/// element's leading S.rows() modes only (lambda must then be 0): the
/// boundary Schur complements of the condensed ALE velocity solve, whose
/// x and y hold just the leading (vertex and edge) global dofs.
void helmholtz_apply(const Discretization& disc,
                     const std::function<const la::DenseMatrix&(const ElemMatrices&)>& stiff_of,
                     double lambda, std::span<const double> x, std::span<double> y,
                     std::span<const char> mask = {},
                     const std::function<void(std::span<double>)>& assemble = {});

class HelmholtzPCG {
public:
    HelmholtzPCG(std::shared_ptr<const Discretization> disc, double lambda, HelmholtzBC bc,
                 la::CgOptions opts = {.max_iterations = 2000, .tolerance = 1e-10});

    /// Same contract as HelmholtzDirect::solve.
    [[nodiscard]] std::vector<double> solve(
        std::span<const double> f_quad,
        const std::function<double(double, double)>& g = {}) const;

    /// Number of CG iterations of the most recent solve.
    [[nodiscard]] std::size_t last_iterations() const noexcept { return last_iters_; }

    /// Global matrix-vector product y = H x (assembled through the dof map):
    /// helmholtz_apply over the fused per-class operators.  With a mask,
    /// masked dofs of x read as 0 and masked rows of y are set to x.
    void apply(std::span<const double> x, std::span<double> y,
               std::span<const char> mask = {}) const;

private:
    std::shared_ptr<const Discretization> disc_;
    double lambda_;
    HelmholtzBC bc_;
    std::vector<char> is_dirichlet_;
    std::vector<double> inv_diag_;
    la::CgOptions opts_;
    /// Fused elemental operator H = L + lambda*M per matrix class: the
    /// stiffness term of helmholtz_apply, which then runs with lambda = 0.
    std::map<const ElemMatrices*, la::DenseMatrix> fused_;
    mutable std::size_t last_iters_ = 0;
};

} // namespace nektar
