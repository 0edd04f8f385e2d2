#pragma once

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "la/banded.hpp"
#include "la/dense.hpp"
#include "nektar/discretization.hpp"
#include "nektar/helmholtz.hpp"

/// \file static_condensation.hpp
/// Statically condensed (Schur complement) Helmholtz solver.
///
/// The paper's Figure 10 orders each element's boundary modes first and
/// notes "the banded structure of the interior-interior matrix": because
/// interior (bubble) modes never couple across elements, they can be
/// eliminated element-by-element before the global solve.  What remains is a
/// much smaller banded system on the vertex/edge dofs — the classic
/// spectral/hp substructuring of Karniadakis & Sherwin (1999) — followed by
/// independent per-element back-solves for the interiors.
namespace nektar {

// SchurBlocks and condense(), which this solver shares with HelmholtzPCG's
// condensed system, are declared in helmholtz.hpp.

/// SerialNS2d's direct Helmholtz solver: HelmholtzDirect's contract, with
/// the interiors eliminated.  The constructor condenses every matrix class,
/// assembles the boundary Schur complement S in a reverse Cuthill-McKee
/// numbering of the boundary dofs, reduces it for the Dirichlet dofs and
/// factors it once.  A solve condenses the assembled right-hand side,
///     r_b = f_b - sum_e D K^T f_i     (D the element's boundary-mode signs),
/// solves S x_b = r_b on the band and back-solves each element's interiors,
///     x_i = H_ii^-1 f_i - K D x_b.
class CondensedHelmholtz {
public:
    CondensedHelmholtz(std::shared_ptr<const Discretization> disc, double lambda,
                       HelmholtzBC bc);

    /// Forcing at quadrature points and optional Dirichlet data g: the weak
    /// right-hand side (weak_rhs) through solve_global.  Per-element modal
    /// solution out.
    [[nodiscard]] std::vector<double> solve(
        std::span<const double> f_quad,
        const std::function<double(double, double)>& g = {}) const;

    /// The weak right-hand side already assembled in disc->dofmap()
    /// numbering, with global-length Dirichlet data (dirichlet_vector).
    [[nodiscard]] std::vector<double> solve_global(std::span<const double> rhs,
                                                   std::span<const double> dirichlet) const;

    /// Several right-hand sides in one pass over the Schur factor (a step's
    /// u and v).  Bitwise and in operation counts the same as one
    /// single-RHS call each.
    [[nodiscard]] std::vector<std::vector<double>> solve_global(
        const std::vector<std::vector<double>>& rhs,
        const std::vector<std::span<const double>>& dirichlet) const;

    [[nodiscard]] double lambda() const noexcept { return lambda_; }
    /// dirichlet_data for this solver's boundary conditions.
    [[nodiscard]] std::vector<double> dirichlet_vector(
        const std::function<double(double, double)>& g) const {
        return dirichlet_data(*disc_, bc_, g);
    }

    /// Size and half-bandwidth of the condensed boundary system (compare
    /// with HelmholtzDirect::bandwidth() on the full system).
    [[nodiscard]] std::size_t boundary_dofs() const noexcept { return bglobal_.size(); }
    [[nodiscard]] std::size_t bandwidth() const noexcept { return kd_; }

    /// The Schur band the constructor factors: assembled again from the
    /// condensed blocks, its Dirichlet rows and columns reduced.
    [[nodiscard]] la::SymBandedMatrix schur_matrix() const;

private:
    /// The assembled Schur band, before the Dirichlet reduction.
    [[nodiscard]] la::SymBandedMatrix assemble_schur() const;
    /// The constrained dofs, in Schur rows, ascending.
    [[nodiscard]] std::vector<int> dirichlet_rows() const;

    /// r_b = f_b - sum_e D K^T f_i and the Dirichlet reduction, in Schur rows.
    void condense_rhs(std::span<const double> rhs, std::span<const double> dirichlet,
                      std::span<double> rb) const;
    /// Per-element modal solution from the Schur solution x_b and the
    /// interiors' right-hand side.
    [[nodiscard]] std::vector<double> back_solve(std::span<const double> rhs,
                                                 std::span<const double> xb) const;

    std::shared_ptr<const Discretization> disc_;
    double lambda_;
    HelmholtzBC bc_;
    /// Global dof -> Schur row (-1 on interior dofs), and its inverse.
    std::vector<int> bidx_;
    std::vector<int> bglobal_;
    std::size_t kd_ = 0; ///< Schur half-bandwidth
    /// Condensed blocks per matrix class, and each element's.
    std::map<const ElemMatrices*, SchurBlocks> blocks_;
    std::vector<const SchurBlocks*> elems_;
    DirichletReduction dirichlet_; ///< in Schur rows
    la::BandedCholesky chol_;
};

} // namespace nektar
