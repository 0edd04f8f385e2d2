#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string_view>
#include <tuple>
#include <vector>

#include "gs/gather_scatter.hpp"
#include "la/banded.hpp"
#include "la/cg.hpp"
#include "nektar/discretization.hpp"

/// \file helmholtz.hpp
/// Global Helmholtz/Poisson solvers:  (grad u, grad v) + lambda (u, v) = (f, v).
///
/// One direct solver per use and one iterative solver:
///  * CondensedHelmholtz (static_condensation.hpp) — SerialNS2d's direct
///    solver for stages 5 and 7 (Figure 12): the interior modes are
///    eliminated element by element and the boundary Schur system is
///    factored once by banded Cholesky, NekTar's ordering of Figure 10.
///  * HelmholtzDirect — the full assembled band factored once by Cholesky
///    (the LAPACK dpbtrf/dpbtrs path): NekTar-F's per-Fourier-mode solver,
///    and the reference the condensed solver is tested against.
///  * HelmholtzPCG — the only iterative solver: matrix-free diagonally
///    preconditioned conjugate gradient, on the full system or on its
///    boundary Schur complement, serial or distributed through a
///    DofAssembly.  It runs all four NekTar-ALE solves (AleNS2d: mesh
///    velocity, pressure, u and v), bit for bit as the code it replaced.
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

/// H = L + lambda M assembled over disc.dofmap()'s global dofs, in its
/// banded numbering: HelmholtzDirect's matrix before the Dirichlet
/// reduction.
[[nodiscard]] la::SymBandedMatrix assemble_helmholtz(const Discretization& disc, double lambda);

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

/// One matrix class's condensed blocks of H = L + lambda M, in the element's
/// own (unsigned) mode orientation: the leading nb modes are the vertex and
/// edge (boundary) modes, the trailing ni the interior bubbles.  Both
/// condensed solvers build them: CondensedHelmholtz and the condensed
/// system of HelmholtzPCG.
struct SchurBlocks {
    la::DenseMatrix schur;   ///< S = H_bb - H_bi H_ii^-1 H_ib   (nb x nb)
    la::DenseMatrix k;       ///< K = H_ii^-1 H_ib               (ni x nb)
    la::DenseMatrix hii_inv; ///< H_ii^-1, through its Cholesky factor (ni x ni)
};

/// Condenses the interior modes out of one element's L + lambda M
/// (static_condensation.cpp).  Every flop is charged to the blaslite
/// counters (la::spd_inverse, dgemm, and the symmetrisation of S).  Throws
/// if H_ii is not SPD.
[[nodiscard]] SchurBlocks condense(const ElemMatrices& mats, double lambda, std::size_t nb);

/// stiff_of(*run.mats) for every element run of `disc`, in disc.groups()
/// order (group by group, each group's runs in turn): helmholtz_apply's
/// `ops`, resolved once rather than on every apply.
[[nodiscard]] std::vector<const la::DenseMatrix*> run_operators(
    const Discretization& disc,
    const std::function<const la::DenseMatrix&(const ElemMatrices&)>& stiff_of);

/// Matrix-free global apply y = (S + lambda M) x, with the elemental S of
/// each element run given by `ops` (run_operators) and M its run's
/// ElemMatrices::mass (both symmetric, so their row-major buffers double
/// as the column-major left operands of the per-run products).  One pass over the element runs: each
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
/// boundary Schur complements of HelmholtzPCG's condensed system, whose x
/// and y hold just the leading (vertex and edge) global dofs.
void helmholtz_apply(const Discretization& disc, std::span<const la::DenseMatrix* const> ops,
                     double lambda, std::span<const double> x, std::span<double> y,
                     std::span<const char> mask = {},
                     const std::function<void(std::span<double>)>& assemble = {});

/// One rank's share of a distributed dof vector: the gather-scatter sum over
/// the ranks sharing interface dofs, and 1/multiplicity dot weights so a
/// shared dof counts once.  Without a gather-scatter the sum does nothing
/// and the weights are 1; with a comm the dot is still allreduced.
class DofAssembly {
public:
    /// Collective when `gs` is set: the multiplicities are one gather-scatter
    /// sum of ones over the `n` local dofs.
    DofAssembly(std::size_t n, simmpi::Comm* comm = nullptr,
                std::unique_ptr<gs::GatherScatter> gs = nullptr);

    /// In-place assembly over the ranks (the leading dofs of a shorter
    /// vector: interior dofs are rank-private).
    void sum(std::span<double> v) const {
        if (gs_) gs_->sum(*comm_, v);
    }
    /// sum_i w_i a_i b_i over all ranks; charged as 3 flops per entry.
    [[nodiscard]] double dot(std::span<const double> a, std::span<const double> b) const;
    [[nodiscard]] int ranks() const noexcept { return comm_ ? comm_->size() : 1; }

private:
    simmpi::Comm* comm_;
    std::unique_ptr<gs::GatherScatter> gs_;
    std::vector<double> weights_;
};

/// Jacobi (diagonally) preconditioned CG, "predominantly used" by NekTar-ALE
/// (paper §4.2.2).  The constructor builds the constrained-dof mask, the
/// condensed blocks (System::Condensed) and the assembled diagonal.  A solve
/// lifts the Dirichlet data, r = (masked ? 0 : f - H x0), and runs la::pcg
/// on the masked operator (L and lambda M as separate terms) with the
/// assembly's weighted dot.  System::Condensed runs CG on the boundary Schur
/// complement instead: r_b = f_b - sum_e D K^T f_i - S x0_b, then the
/// interiors are back-solved per element, x_i = H_ii^-1 f_i - K D x_b.  It
/// needs the boundary dofs numbered first (renumber = false), which keeps
/// the interiors rank-private: one assembly serves both systems.
class HelmholtzPCG {
public:
    enum class System { Full, Condensed };

    /// Collective when `assembly` spans several ranks (the diagonal's sum).
    /// `assembly` must outlive the solver.  Throws std::invalid_argument for
    /// bc.pin_first_dof on more than one rank: every rank would pin its own
    /// element 0.
    HelmholtzPCG(std::shared_ptr<const Discretization> disc, double lambda, HelmholtzBC bc,
                 la::CgOptions opts = {.max_iterations = 2000, .tolerance = 1e-10},
                 System system = System::Full, const DofAssembly* assembly = nullptr);
    // ops_ points into blocks_: a copy would point into the original's.
    HelmholtzPCG(const HelmholtzPCG&) = delete;
    HelmholtzPCG& operator=(const HelmholtzPCG&) = delete;

    /// Same contract as HelmholtzDirect::solve; with an assembly the weak
    /// right-hand side is summed over the ranks first.
    [[nodiscard]] std::vector<double> solve(
        std::span<const double> f_quad,
        const std::function<double(double, double)>& g = {}) const;

    /// The global solution from an assembled weak right-hand side and
    /// global-length Dirichlet data x (dirichlet_vector).  An unconverged CG
    /// throws std::runtime_error "<what> stopped (<status>) after <n>
    /// iterations at residual <r>".
    [[nodiscard]] std::vector<double> solve_global(std::span<const double> rhs,
                                                   std::vector<double> x,
                                                   std::string_view what = "HelmholtzPCG: CG") const;

    /// Number of CG iterations of the most recent solve.
    [[nodiscard]] std::size_t last_iterations() const noexcept { return last_iters_; }
    [[nodiscard]] double lambda() const noexcept { return lambda_; }
    /// dirichlet_data for this solver's boundary conditions.
    [[nodiscard]] std::vector<double> dirichlet_vector(
        const std::function<double(double, double)>& g) const {
        return dirichlet_data(*disc_, bc_, g);
    }

    /// y = H x for this system (helmholtz_apply with L and lambda M, or with
    /// the Schur complements), summed over the ranks when `assemble` is set.
    /// With a mask, masked dofs of x read as 0 and masked rows of y are x.
    void apply(std::span<const double> x, std::span<double> y,
               std::span<const char> mask = {}, bool assemble = true) const;

private:
    [[nodiscard]] const SchurBlocks& blocks(std::size_t e) const {
        return blocks_.at(disc_->ops(e).matrix_identity());
    }

    std::shared_ptr<const Discretization> disc_;
    double lambda_;
    HelmholtzBC bc_;
    la::CgOptions opts_;
    System system_;
    const DofAssembly* assembly_;
    std::size_t n_; ///< unknowns: every dof, or the leading (boundary) ones
    std::map<const ElemMatrices*, SchurBlocks> blocks_; ///< System::Condensed
    std::vector<const la::DenseMatrix*> ops_; ///< each run's L or Schur complement
    std::vector<char> mask_;        ///< constrained dofs
    std::vector<double> inv_diag_;  ///< 1 on constrained rows
    mutable std::size_t last_iters_ = 0;
};

} // namespace nektar
