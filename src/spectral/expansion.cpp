#include "spectral/expansion.hpp"

#include <cassert>
#include <cmath>
#include <functional>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "spectral/basis1d.hpp"
#include "spectral/jacobi.hpp"

namespace spectral {

namespace {

/// Barycentric Lagrange differentiation matrix on the given nodes.
la::DenseMatrix diff_matrix(const std::vector<double>& x) {
    const std::size_t n = x.size();
    std::vector<double> w(n, 1.0);
    for (std::size_t j = 0; j < n; ++j)
        for (std::size_t k = 0; k < n; ++k)
            if (k != j) w[j] *= (x[j] - x[k]);
    for (auto& v : w) v = 1.0 / v;
    la::DenseMatrix d(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        double diag = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
            if (i == j) continue;
            d(i, j) = (w[j] / w[i]) / (x[i] - x[j]);
            diag -= d(i, j);
        }
        d(i, i) = diag;
    }
    return d;
}

} // namespace

std::array<std::size_t, 2> Expansion::edge_vertices(std::size_t e) const noexcept {
    if (shape_ == Shape::Quad) {
        constexpr std::array<std::array<std::size_t, 2>, 4> edges = {
            {{0, 1}, {1, 2}, {3, 2}, {0, 3}}};
        return edges[e];
    }
    constexpr std::array<std::array<std::size_t, 2>, 3> edges = {{{0, 1}, {1, 2}, {0, 2}}};
    return edges[e];
}

// ---------------------------------------------------------------------------
// Quadrilateral
// ---------------------------------------------------------------------------

QuadExpansion::QuadExpansion(std::size_t order, std::size_t nq1d)
    : Expansion(Shape::Quad, order) {
    if (order < 1) throw std::invalid_argument("QuadExpansion: order must be >= 1");
    const std::size_t P = order;
    if (nq1d == 0) nq1d = P + 2;
    const QuadratureRule rule = gauss_lobatto(nq1d);

    // Mode list in boundary-first order, as (p, q) tensor indices.
    std::vector<std::array<std::size_t, 2>>& pq = pq_;
    pq.reserve((P + 1) * (P + 1));
    pq.push_back({0, 0});  // v0 (-1,-1)
    pq.push_back({P, 0});  // v1 ( 1,-1)
    pq.push_back({P, P});  // v2 ( 1, 1)
    pq.push_back({0, P});  // v3 (-1, 1)
    for (std::size_t j = 1; j < P; ++j) pq.push_back({j, 0});  // e0: v0->v1
    for (std::size_t j = 1; j < P; ++j) pq.push_back({P, j});  // e1: v1->v2
    for (std::size_t j = 1; j < P; ++j) pq.push_back({j, P});  // e2: v3->v2
    for (std::size_t j = 1; j < P; ++j) pq.push_back({0, j});  // e3: v0->v3
    for (std::size_t p = 1; p < P; ++p)
        for (std::size_t q = 1; q < P; ++q) pq.push_back({p, q});

    const std::size_t nm = pq.size();
    const std::size_t nq = nq1d * nq1d;

    // 1-D factorisation for sum-factorised operator evaluation.
    tb_.nq1d = nq1d;
    tb_.nm1d = P + 1;
    tb_.b1 = la::DenseMatrix(nq1d, P + 1);
    tb_.d1 = la::DenseMatrix(nq1d, P + 1);
    tb_.pq = pq;
    tb_.w1d = rule.weights;
    tb_.colloc = diff_matrix(rule.points);
    for (std::size_t qi = 0; qi < nq1d; ++qi) {
        for (std::size_t p = 0; p <= P; ++p) {
            tb_.b1(qi, p) = modal_basis(p, P, rule.points[qi]);
            tb_.d1(qi, p) = modal_basis_derivative(p, P, rule.points[qi]);
        }
    }

    basis_ = la::DenseMatrix(nq, nm);
    dxi1_ = la::DenseMatrix(nq, nm);
    dxi2_ = la::DenseMatrix(nq, nm);
    weights_.resize(nq);
    xi1_.resize(nq);
    xi2_.resize(nq);

    for (std::size_t qj = 0; qj < nq1d; ++qj) {
        for (std::size_t qi = 0; qi < nq1d; ++qi) {
            const std::size_t q = qj * nq1d + qi;
            const double z1 = rule.points[qi];
            const double z2 = rule.points[qj];
            xi1_[q] = z1;
            xi2_[q] = z2;
            weights_[q] = rule.weights[qi] * rule.weights[qj];
            for (std::size_t m = 0; m < nm; ++m) {
                const auto [p, qq] = pq[m];
                const double f = modal_basis(p, P, z1);
                const double g = modal_basis(qq, P, z2);
                const double df = modal_basis_derivative(p, P, z1);
                const double dg = modal_basis_derivative(qq, P, z2);
                basis_(q, m) = f * g;
                dxi1_(q, m) = df * g;
                dxi2_(q, m) = f * dg;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Triangle (collapsed coordinates)
// ---------------------------------------------------------------------------

namespace detail {

/// A 1-D factor of a collapsed-coordinate mode: value and derivative.
struct TriFactor {
    std::function<double(double)> f;
    std::function<double(double)> df;
};

} // namespace detail

namespace {

using Fn1d = detail::TriFactor;

Fn1d h0() {
    return {[](double z) { return 0.5 * (1.0 - z); }, [](double) { return -0.5; }};
}
Fn1d h1() {
    return {[](double z) { return 0.5 * (1.0 + z); }, [](double) { return 0.5; }};
}
Fn1d one() {
    return {[](double) { return 1.0; }, [](double) { return 0.0; }};
}
/// The 1-D bubble psi_j = h0 h1 P^{1,1}_{j-1} (degree j+1).
Fn1d bubble(std::size_t j, std::size_t order) {
    return {[j, order](double z) { return modal_basis(j, order, z); },
            [j, order](double z) { return modal_basis_derivative(j, order, z); }};
}
/// (h0(z))^k.
Fn1d h0pow(std::size_t k) {
    return {[k](double z) { return std::pow(0.5 * (1.0 - z), static_cast<double>(k)); },
            [k](double z) {
                if (k == 0) return 0.0;
                return -0.5 * static_cast<double>(k) *
                       std::pow(0.5 * (1.0 - z), static_cast<double>(k - 1));
            }};
}
/// (h0)^k h1 P^{a,1}_{q-1}: the eta_2 factor of edge (k=1,a=1) and interior
/// (k=p+1, a=2p+1) modes.
Fn1d h0k_h1_jac(std::size_t k, double a, std::size_t q) {
    return {[k, a, q](double z) {
                return std::pow(0.5 * (1.0 - z), static_cast<double>(k)) * 0.5 * (1.0 + z) *
                       jacobi(q - 1, a, 1.0, z);
            },
            [k, a, q](double z) {
                const double p0 = std::pow(0.5 * (1.0 - z), static_cast<double>(k));
                const double dp0 = k == 0 ? 0.0
                                          : -0.5 * static_cast<double>(k) *
                                                std::pow(0.5 * (1.0 - z),
                                                         static_cast<double>(k - 1));
                const double p1 = 0.5 * (1.0 + z);
                const double j = jacobi(q - 1, a, 1.0, z);
                const double dj = jacobi_derivative(q - 1, a, 1.0, z);
                return dp0 * p1 * j + p0 * 0.5 * j + p0 * p1 * dj;
            }};
}

} // namespace

TriExpansion::TriExpansion(std::size_t order, std::size_t nq1d)
    : Expansion(Shape::Triangle, order) {
    if (order < 1) throw std::invalid_argument("TriExpansion: order must be >= 1");
    const std::size_t P = order;
    if (nq1d == 0) nq1d = P + 2;
    const QuadratureRule r1 = gauss_legendre(nq1d);       // eta_1
    const QuadratureRule r2 = gauss_jacobi(nq1d, 1.0, 0.0); // eta_2, weight (1-z)

    // Each mode is f(eta1) * g(eta2).  The h0(eta2)^d factor, with d the
    // eta1-degree of f, keeps every mode polynomial in (xi1, xi2).
    std::vector<std::pair<Fn1d, Fn1d>>& modes = modes_;
    modes.emplace_back(h0(), h0());   // v0 (-1,-1)
    modes.emplace_back(h1(), h0());   // v1 ( 1,-1)
    modes.emplace_back(one(), h1());  // v2 (-1, 1): the collapsed vertex
    for (std::size_t j = 1; j < P; ++j)  // e0: v0->v1 (bottom)
        modes.emplace_back(bubble(j, P), h0pow(j + 1));
    for (std::size_t j = 1; j < P; ++j)  // e1: v1->v2 (hypotenuse)
        modes.emplace_back(h1(), h0k_h1_jac(1, 1.0, j));
    for (std::size_t j = 1; j < P; ++j)  // e2: v0->v2 (left)
        modes.emplace_back(h0(), h0k_h1_jac(1, 1.0, j));
    for (std::size_t p = 1; p + 1 < P; ++p)
        for (std::size_t q = 1; p + q + 1 <= P; ++q)
            modes.emplace_back(bubble(p, P),
                               h0k_h1_jac(p + 1, 2.0 * static_cast<double>(p) + 1.0, q));

    const std::size_t nm = modes.size();
    assert(nm == 3 + 3 * (P - 1) + (P - 1) * (P - 2) / 2);
    const std::size_t nq = nq1d * nq1d;
    basis_ = la::DenseMatrix(nq, nm);
    dxi1_ = la::DenseMatrix(nq, nm);
    dxi2_ = la::DenseMatrix(nq, nm);
    weights_.resize(nq);
    xi1_.resize(nq);
    xi2_.resize(nq);

    for (std::size_t qj = 0; qj < nq1d; ++qj) {
        for (std::size_t qi = 0; qi < nq1d; ++qi) {
            const std::size_t q = qj * nq1d + qi;
            const double e1 = r1.points[qi];
            const double e2 = r2.points[qj];
            // Duffy map: xi1 = (1+eta1)(1-eta2)/2 - 1, xi2 = eta2.
            xi1_[q] = 0.5 * (1.0 + e1) * (1.0 - e2) - 1.0;
            xi2_[q] = e2;
            // r2's weight already contains the (1-eta2) Jacobian factor;
            // the remaining 1/2 completes dxi = (1-eta2)/2 deta.
            weights_[q] = 0.5 * r1.weights[qi] * r2.weights[qj];
            const double inv = 1.0 / (1.0 - e2); // e2 < 1 strictly (Gauss pts)
            for (std::size_t m = 0; m < nm; ++m) {
                const auto& [ff, gg] = modes[m];
                const double f = ff.f(e1);
                const double df = ff.df(e1);
                const double g = gg.f(e2);
                const double dg = gg.df(e2);
                basis_(q, m) = f * g;
                // d/dxi1 = 2/(1-eta2) d/deta1
                dxi1_(q, m) = 2.0 * inv * df * g;
                // d/dxi2 = (1+eta1)/(1-eta2) d/deta1 + d/deta2
                dxi2_(q, m) = (1.0 + e1) * inv * df * g + f * dg;
            }
        }
    }
}

double QuadExpansion::eval_mode(std::size_t m, double x1, double x2) const {
    const auto [p, q] = pq_[m];
    return modal_basis(p, order_, x1) * modal_basis(q, order_, x2);
}

std::array<double, 2> QuadExpansion::eval_mode_deriv(std::size_t m, double x1,
                                                     double x2) const {
    const auto [p, q] = pq_[m];
    const double f = modal_basis(p, order_, x1);
    const double g = modal_basis(q, order_, x2);
    return {modal_basis_derivative(p, order_, x1) * g,
            f * modal_basis_derivative(q, order_, x2)};
}

TriExpansion::~TriExpansion() = default;

namespace {
/// Inverse Duffy map with a clamp away from the collapsed vertex.
std::pair<double, double> to_eta(double x1, double x2) {
    const double e2 = std::min(x2, 1.0 - 1e-12);
    const double e1 = 2.0 * (1.0 + x1) / (1.0 - e2) - 1.0;
    return {e1, e2};
}
} // namespace

double TriExpansion::eval_mode(std::size_t m, double x1, double x2) const {
    const auto [e1, e2] = to_eta(x1, x2);
    return modes_[m].first.f(e1) * modes_[m].second.f(e2);
}

std::array<double, 2> TriExpansion::eval_mode_deriv(std::size_t m, double x1,
                                                    double x2) const {
    const auto [e1, e2] = to_eta(x1, x2);
    const double f = modes_[m].first.f(e1);
    const double df = modes_[m].first.df(e1);
    const double g = modes_[m].second.f(e2);
    const double dg = modes_[m].second.df(e2);
    const double inv = 1.0 / (1.0 - e2);
    return {2.0 * inv * df * g, (1.0 + e1) * inv * df * g + f * dg};
}

std::shared_ptr<const Expansion> make_expansion(Shape shape, std::size_t order) {
    static std::mutex mtx;
    static std::map<std::pair<Shape, std::size_t>, std::shared_ptr<const Expansion>> cache;
    std::lock_guard lk(mtx);
    auto& slot = cache[{shape, order}];
    if (!slot) {
        if (shape == Shape::Quad)
            slot = std::make_shared<QuadExpansion>(order);
        else
            slot = std::make_shared<TriExpansion>(order);
    }
    return slot;
}

} // namespace spectral
