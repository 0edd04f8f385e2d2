#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "la/dense.hpp"
#include "mesh/mesh.hpp"
#include "spectral/expansion.hpp"

/// \file element_ops.hpp
/// Per-element operators: geometry mapping, elemental mass/Laplacian
/// matrices, modal<->quadrature transforms and collocation derivatives.
///
/// These are the kernels behind the paper's stage breakdown (Figure 12):
/// stage 1 is interp_to_quad, stages 2-4/6 are quadrature-space vector
/// algebra plus weak_inner, stages 5/7 are the banded solves assembled from
/// the elemental matrices built here.
namespace nektar {

/// Geometry factors at each quadrature point of one straight-sided element.
struct ElemGeometry {
    std::vector<double> wj;   ///< quadrature weight * |J|
    std::vector<double> rx;   ///< d(xi1)/dx
    std::vector<double> ry;   ///< d(xi1)/dy
    std::vector<double> sx;   ///< d(xi2)/dx
    std::vector<double> sy;   ///< d(xi2)/dy
    std::vector<double> x;    ///< physical coordinates of quadrature points
    std::vector<double> y;
};

/// Geometry mapping evaluated at one reference point.
struct PointMap {
    double x = 0.0, y = 0.0;   ///< physical coordinates
    double rx = 0.0, ry = 0.0; ///< d(xi1)/dx, d(xi1)/dy
    double sx = 0.0, sy = 0.0; ///< d(xi2)/dx, d(xi2)/dy
    double det = 0.0;          ///< Jacobian determinant
};

/// The elemental matrices that depend only on (expansion, geometry factors).
/// Congruent elements — translated copies of one another, ubiquitous in the
/// structured meshes the paper benchmarks — share one immutable instance.
struct ElemMatrices {
    la::DenseMatrix mass;      ///< (phi_i, phi_j)
    la::DenseMatrix lap;       ///< (grad phi_i, grad phi_j) — the Figure 10 matrix
    la::DenseMatrix mass_chol; ///< Cholesky factor of mass
};

/// Deduplicates ElemMatrices across congruent elements.  Keyed on the
/// expansion identity plus the bit patterns of the geometry factor arrays
/// (wj, rx, ry, sx, sy — translation-invariant), so two elements share
/// matrices only when the build inputs are bitwise identical.  One cache is
/// owned per Discretization construction, which keeps it bounded under the
/// per-step rebuilds of the ALE solver.
class MatrixCache {
public:
    /// Returns the cached matrices for (exp, geometry), building them with
    /// `build` on a miss.
    std::shared_ptr<const ElemMatrices> get(const spectral::Expansion* exp,
                                            const ElemGeometry& g,
                                            const std::function<ElemMatrices()>& build);

private:
    std::map<std::pair<const spectral::Expansion*, std::vector<std::uint64_t>>,
             std::shared_ptr<const ElemMatrices>>
        cache_;
};

class ElementOps {
public:
    /// Builds the operators for element `e` of `m` at expansion order `order`.
    ElementOps(const mesh::Mesh& m, std::size_t e, std::size_t order);

    /// Same, with a caller-provided expansion (skips the global expansion
    /// cache lookup) and an optional matrix cache shared across elements.
    ElementOps(const mesh::Mesh& m, std::size_t e,
               std::shared_ptr<const spectral::Expansion> exp, MatrixCache* cache = nullptr);

    [[nodiscard]] const spectral::Expansion& expansion() const noexcept { return *exp_; }
    [[nodiscard]] std::shared_ptr<const spectral::Expansion> expansion_ptr() const noexcept {
        return exp_;
    }
    [[nodiscard]] const ElemGeometry& geometry() const noexcept { return geom_; }
    [[nodiscard]] std::size_t num_modes() const noexcept { return exp_->num_modes(); }
    [[nodiscard]] std::size_t num_quad() const noexcept { return exp_->num_quad(); }

    /// Elemental mass matrix (phi_i, phi_j).
    [[nodiscard]] const la::DenseMatrix& mass() const noexcept { return mats_->mass; }
    /// Elemental stiffness (grad phi_i, grad phi_j) — the Figure 10 matrix.
    [[nodiscard]] const la::DenseMatrix& laplacian() const noexcept { return mats_->lap; }
    /// Cholesky factor of the elemental mass matrix.
    [[nodiscard]] const la::DenseMatrix& mass_cholesky() const noexcept {
        return mats_->mass_chol;
    }
    /// Identity of the shared matrix set: equal pointers mean congruent
    /// elements (identical mass/Laplacian/Cholesky), which the batched
    /// Helmholtz apply exploits to fold whole runs of elements into one
    /// matrix-matrix product.
    [[nodiscard]] const ElemMatrices* matrix_identity() const noexcept { return mats_.get(); }

    /// u_quad = B u_modal (paper stage 1).
    void interp_to_quad(std::span<const double> modal, std::span<double> quad) const;

    /// rhs_i += (f, phi_i): weak inner product of quadrature values.
    void weak_inner(std::span<const double> quad, std::span<double> rhs) const;

    /// Physical-space gradient of a modal field, evaluated at quad points.
    void grad_from_modal(std::span<const double> modal, std::span<double> dudx,
                         std::span<double> dudy) const;

    /// Collocation derivative of quadrature-point values (quad elements only;
    /// used by the nonlinear advection stage where fields live at the
    /// quadrature points).
    void grad_collocation(std::span<const double> quad, std::span<double> dudx,
                          std::span<double> dudy) const;

    /// Collocation machinery behind grad_collocation, exposed so the batched
    /// compute backends can fuse the derivative across a whole element group:
    /// 1-D points per direction (0 on triangles) and the 1-D GLL
    /// differentiation matrix (nq1d x nq1d row-major; empty on triangles),
    /// both held once by the quad expansion.
    [[nodiscard]] std::size_t colloc_nq1d() const noexcept {
        const spectral::TensorBasis* tb = exp_->tensor_basis();
        return tb ? tb->nq1d : 0;
    }
    [[nodiscard]] const la::DenseMatrix& colloc_diff_1d() const noexcept;

    /// L2 projection of quadrature values onto the modal basis
    /// (solves M u = B^T W f with the factored elemental mass matrix).
    void project(std::span<const double> quad, std::span<double> modal) const;

    /// Geometry mapping at an arbitrary reference point (boundary traces,
    /// probes, force integrals).
    [[nodiscard]] PointMap map_at(double xi1, double xi2) const;

    /// Field value / physical gradient of a modal field at a reference point.
    [[nodiscard]] double eval_modal(std::span<const double> modal, double xi1,
                                    double xi2) const;
    void eval_modal_grad(std::span<const double> modal, double xi1, double xi2, double& dudx,
                         double& dudy) const;

private:
    std::shared_ptr<const spectral::Expansion> exp_;
    ElemGeometry geom_;
    std::shared_ptr<const ElemMatrices> mats_; ///< shared across congruent elements
    std::array<mesh::Vertex, 4> verts_{}; ///< element corners for map_at
};

} // namespace nektar
