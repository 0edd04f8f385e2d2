#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "la/dense.hpp"

/// \file expansion.hpp
/// 2-D spectral/hp expansions on the reference quadrilateral and triangle.
///
/// Modes are ordered vertices first, then edges, then interior — the
/// boundary-first ordering of the paper's Figure 9 that gives the elemental
/// Laplacian its banded interior block (Figure 10).  All quadrature-point
/// tables (basis values, reference-coordinate derivatives, weights) are
/// precomputed at construction; the triangle's collapsed-coordinate factors
/// are folded into its derivative tables so downstream code never sees
/// eta coordinates.
namespace spectral {

enum class Shape { Quad, Triangle };

/// The 1-D factorisation of a tensor-product expansion: everything a
/// sum-factorised operator evaluation needs.  Mode m of the 2-D basis is
/// psi_{pq[m][0]}(xi1) * psi_{pq[m][1]}(xi2), and the quadrature grid is the
/// tensor square of one 1-D rule (point q = qj*nq1d + qi, xi1 fast).
struct TensorBasis {
    std::size_t nq1d = 0; ///< quadrature points per direction
    std::size_t nm1d = 0; ///< 1-D modes (order + 1)
    /// b1(qi, p) = psi_p(z_qi) and d1(qi, p) = psi_p'(z_qi): nq1d-by-nm1d
    /// row-major, the same storage convention as basis()/dbasis_dxi1().
    la::DenseMatrix b1, d1;
    /// Boundary-first mode -> lexicographic tensor indices (p, q).
    std::vector<std::array<std::size_t, 2>> pq;
    /// 1-D quadrature weights (2-D weight = w1d[qi] * w1d[qj]).
    std::vector<double> w1d;
    /// colloc(i, k) = l_k'(z_i): the Lagrange (collocation) differentiation
    /// matrix on the 1-D quadrature points, nq1d-by-nq1d row-major.
    la::DenseMatrix colloc;
};

class Expansion {
public:
    virtual ~Expansion() = default;

    [[nodiscard]] Shape shape() const noexcept { return shape_; }
    [[nodiscard]] std::size_t order() const noexcept { return order_; }
    [[nodiscard]] std::size_t num_modes() const noexcept { return basis_.cols(); }
    [[nodiscard]] std::size_t num_quad() const noexcept { return basis_.rows(); }
    [[nodiscard]] std::size_t num_vertices() const noexcept {
        return shape_ == Shape::Quad ? 4 : 3;
    }
    [[nodiscard]] std::size_t num_edges() const noexcept { return num_vertices(); }
    /// Interior edge modes per edge (order - 1).
    [[nodiscard]] std::size_t edge_mode_count() const noexcept { return order_ - 1; }

    /// Mode index of local vertex v.
    [[nodiscard]] std::size_t vertex_mode(std::size_t v) const noexcept { return v; }
    /// Mode index of the j-th interior mode (1-based j in 1..order-1) of edge e.
    [[nodiscard]] std::size_t edge_mode(std::size_t e, std::size_t j) const noexcept {
        return num_vertices() + e * edge_mode_count() + (j - 1);
    }
    /// First interior (bubble) mode index; interior modes are contiguous to
    /// num_modes().
    [[nodiscard]] std::size_t interior_begin() const noexcept {
        return num_vertices() * (1 + edge_mode_count());
    }
    [[nodiscard]] std::size_t num_boundary_modes() const noexcept { return interior_begin(); }

    /// Local vertex pair (a, b) giving edge e's intrinsic direction (modes
    /// increase from a to b).
    [[nodiscard]] std::array<std::size_t, 2> edge_vertices(std::size_t e) const noexcept;

    /// The 1-D factorisation when the basis is a tensor product (quads);
    /// nullptr otherwise.  The triangle's collapsed-coordinate factors vary
    /// per mode family, so it stays on the dense path.
    [[nodiscard]] virtual const TensorBasis* tensor_basis() const noexcept { return nullptr; }

    /// basis()(q, m): value of mode m at quadrature point q.
    [[nodiscard]] const la::DenseMatrix& basis() const noexcept { return basis_; }
    /// Derivatives with respect to the reference coordinates (xi1, xi2).
    [[nodiscard]] const la::DenseMatrix& dbasis_dxi1() const noexcept { return dxi1_; }
    [[nodiscard]] const la::DenseMatrix& dbasis_dxi2() const noexcept { return dxi2_; }

    /// Reference-element quadrature weights (include the collapsed-coordinate
    /// Jacobian on the triangle, so sum(weights) = reference area).
    [[nodiscard]] std::span<const double> quad_weights() const noexcept { return weights_; }
    /// Reference coordinates of quadrature point q.
    [[nodiscard]] double xi1(std::size_t q) const noexcept { return xi1_[q]; }
    [[nodiscard]] double xi2(std::size_t q) const noexcept { return xi2_[q]; }

    /// Value of mode m at an arbitrary reference point (boundary traces,
    /// probes, force integrals).  On the triangle, points on the collapsed
    /// edge xi2 = 1 are perturbed infinitesimally.
    [[nodiscard]] virtual double eval_mode(std::size_t m, double x1, double x2) const = 0;
    /// Reference-coordinate gradient of mode m at an arbitrary point.
    [[nodiscard]] virtual std::array<double, 2> eval_mode_deriv(std::size_t m, double x1,
                                                                double x2) const = 0;

protected:
    Expansion(Shape shape, std::size_t order) : shape_(shape), order_(order) {}

    Shape shape_;
    std::size_t order_;
    la::DenseMatrix basis_, dxi1_, dxi2_;
    std::vector<double> weights_, xi1_, xi2_;
};

/// Tensor-product expansion on [-1,1]^2 with (order+1)^2 modes.
class QuadExpansion final : public Expansion {
public:
    /// `order` >= 1; `nq1d` quadrature points per direction (default order+2,
    /// enough for exact mass matrices on affine elements).
    explicit QuadExpansion(std::size_t order, std::size_t nq1d = 0);

    [[nodiscard]] const TensorBasis* tensor_basis() const noexcept override { return &tb_; }

    [[nodiscard]] double eval_mode(std::size_t m, double x1, double x2) const override;
    [[nodiscard]] std::array<double, 2> eval_mode_deriv(std::size_t m, double x1,
                                                        double x2) const override;

private:
    std::vector<std::array<std::size_t, 2>> pq_; ///< tensor (p, q) per mode
    TensorBasis tb_;                             ///< 1-D factorisation of the basis
};

namespace detail {
/// One 1-D factor of a collapsed-coordinate mode (value and derivative).
struct TriFactor;
} // namespace detail

/// Collapsed-coordinate expansion on the reference triangle
/// {(-1,-1),(1,-1),(-1,1)} with 3 + 3(order-1) + (order-1)(order-2)/2 modes.
class TriExpansion final : public Expansion {
public:
    explicit TriExpansion(std::size_t order, std::size_t nq1d = 0);
    ~TriExpansion() override;

    [[nodiscard]] double eval_mode(std::size_t m, double x1, double x2) const override;
    [[nodiscard]] std::array<double, 2> eval_mode_deriv(std::size_t m, double x1,
                                                        double x2) const override;

private:
    std::vector<std::pair<detail::TriFactor, detail::TriFactor>> modes_;
};

/// Factory with a per-(shape, order) cache; expansions are immutable so the
/// shared instances are safe to use from multiple threads.
[[nodiscard]] std::shared_ptr<const Expansion> make_expansion(Shape shape, std::size_t order);

} // namespace spectral
