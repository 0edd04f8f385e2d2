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

/// One matrix class's condensed blocks of H = L + lambda M, in the element's
/// own (unsigned) mode orientation: the leading nb modes are the vertex and
/// edge (boundary) modes, the trailing ni the interior bubbles.
struct SchurBlocks {
    la::DenseMatrix schur;   ///< S = H_bb - H_bi H_ii^-1 H_ib   (nb x nb)
    la::DenseMatrix k;       ///< K = H_ii^-1 H_ib               (ni x nb)
    la::DenseMatrix hii_inv; ///< H_ii^-1, through its Cholesky factor (ni x ni)
};

/// Condenses the interior modes out of one element's L + lambda M.  Every
/// flop is charged to the blaslite counters (la::spd_inverse, dgemm, and
/// the symmetrisation of S).  Throws if H_ii is not SPD.
[[nodiscard]] SchurBlocks condense(const ElemMatrices& mats, double lambda, std::size_t nb);

class CondensedHelmholtz {
public:
    CondensedHelmholtz(std::shared_ptr<const Discretization> disc, double lambda,
                       HelmholtzBC bc);

    /// Same contract as HelmholtzDirect::solve: forcing at quadrature
    /// points, optional Dirichlet data, per-element modal solution out.
    [[nodiscard]] std::vector<double> solve(
        std::span<const double> f_quad,
        const std::function<double(double, double)>& g = {}) const;

    /// Size and half-bandwidth of the condensed boundary system (compare
    /// with HelmholtzDirect::bandwidth() on the full system).
    [[nodiscard]] std::size_t boundary_dofs() const noexcept { return nb_; }
    [[nodiscard]] std::size_t bandwidth() const noexcept { return chol_.bandwidth(); }

private:
    std::shared_ptr<const Discretization> disc_;
    double lambda_;
    HelmholtzBC bc_;
    /// Unpermuted boundary-dof layout (vertices then edge modes) remapped by
    /// a boundary-only RCM pass.
    std::vector<int> bperm_;
    std::size_t nb_ = 0;
    /// Condensed blocks per matrix class, and each element's.
    std::map<const ElemMatrices*, SchurBlocks> blocks_;
    std::vector<const SchurBlocks*> elems_;
    std::vector<int> dirichlet_dofs_;             ///< condensed numbering
    std::vector<char> is_dirichlet_;
    la::BandedCholesky chol_;
    std::vector<std::tuple<int, int, double>> lift_;
    /// Non-renumbered dof map (vertices first, edges, then interiors last).
    DofMap flat_map_;
};

} // namespace nektar
