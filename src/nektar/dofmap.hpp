#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "la/dense.hpp"
#include "mesh/mesh.hpp"
#include "spectral/jacobi.hpp"

/// \file dofmap.hpp
/// Global C0 degree-of-freedom numbering for the spectral/hp expansion.
///
/// Global dofs are mesh vertices, (order-1) modes per mesh edge (with a
/// direction convention: modes run from the smaller to the larger global
/// vertex id, so elements traversing an edge backwards pick up the
/// (-1)^(j-1) reversal sign), and per-element interior bubbles.  A reverse
/// Cuthill-McKee pass renumbers everything so the assembled Helmholtz
/// matrices are narrowly banded — the property the paper's direct solver
/// stages (5 and 7 of Figure 12) rely on.
namespace nektar {

struct LocalDof {
    int global = -1;
    double sign = 1.0;
};

class DofMap {
public:
    /// `renumber` applies the RCM bandwidth-reducing permutation; the
    /// iterative (PCG/ALE) path can skip it when rebuilding per step.
    DofMap(const mesh::Mesh& m, std::size_t order, bool renumber = true);

    [[nodiscard]] std::size_t num_global() const noexcept { return num_global_; }
    [[nodiscard]] std::size_t order() const noexcept { return order_; }

    /// Local-to-global map of element e, in the expansion's mode order.
    [[nodiscard]] const std::vector<LocalDof>& element_map(std::size_t e) const noexcept {
        return maps_[e];
    }

    /// Maximum |global_i - global_j| over mode pairs of any element: the
    /// half-bandwidth of the assembled matrix.
    [[nodiscard]] std::size_t bandwidth() const noexcept { return bandwidth_; }

    /// Global ids of dofs on boundary edges whose tag satisfies `pred`,
    /// including the edge endpoints' vertex dofs.
    [[nodiscard]] std::vector<int> boundary_dofs(
        const std::function<bool(mesh::BoundaryTag)>& pred) const;

    /// Computes Dirichlet values for those boundary dofs by interpolating
    /// the vertex values and L2-projecting g along each tagged edge.
    /// Returns pairs (global dof, value).
    [[nodiscard]] std::vector<std::pair<int, double>> dirichlet_values(
        const std::function<bool(mesh::BoundaryTag)>& pred,
        const std::function<double(double, double)>& g) const;

private:
    const mesh::Mesh* mesh_;
    std::size_t order_;
    std::size_t num_global_ = 0;
    std::size_t bandwidth_ = 0;
    std::vector<std::vector<LocalDof>> maps_;
    /// pre-RCM ids: vertex v -> dof, edge ed mode j -> dof (for BC handling)
    std::vector<int> vertex_dof_;
    std::vector<int> edge_dof_base_;
    std::vector<int> perm_; ///< pre-RCM id -> final global id
    /// dirichlet_values' edge projection, built once: the 1-D rule, the
    /// edge bubbles at its points (point x bubble) and the Cholesky factor
    /// of the 1-D bubble mass matrix.
    spectral::QuadratureRule edge_rule_;
    la::DenseMatrix edge_phi_;
    la::DenseMatrix edge_mass_chol_;

    void build_edge_projection();
};

} // namespace nektar
