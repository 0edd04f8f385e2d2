#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "blaslite/blas.hpp"
#include "blaslite/counters.hpp"
#include "ckpt/checkpoint.hpp"
#include "mesh/generators.hpp"
#include "nektar/discretization.hpp"
#include "nektar/workloads.hpp"

namespace {

std::shared_ptr<nektar::Discretization> make_disc(mesh::Mesh m, std::size_t order) {
    return std::make_shared<nektar::Discretization>(
        std::make_shared<mesh::Mesh>(std::move(m)), order);
}

TEST(ElementOps, MassAndLaplacianAreSymmetric) {
    const auto disc = make_disc(mesh::rectangle_quads(2, 2, 0.0, 1.0, 0.0, 1.0), 4);
    for (std::size_t e = 0; e < disc->num_elements(); ++e) {
        EXPECT_LT(disc->ops(e).mass().symmetry_defect(), 1e-12);
        EXPECT_LT(disc->ops(e).laplacian().symmetry_defect(), 1e-12);
    }
}

TEST(ElementOps, TriangleMatricesSymmetricToo) {
    const auto disc = make_disc(mesh::rectangle_tris(2, 2, 0.0, 1.0, 0.0, 1.0), 4);
    for (std::size_t e = 0; e < disc->num_elements(); ++e) {
        EXPECT_LT(disc->ops(e).mass().symmetry_defect(), 1e-12);
        EXPECT_LT(disc->ops(e).laplacian().symmetry_defect(), 1e-11);
    }
}

TEST(ElementOps, MassIntegratesConstants) {
    // 1^T M 1 = element area.
    const auto disc = make_disc(mesh::rectangle_quads(3, 2, 0.0, 3.0, 0.0, 2.0), 3);
    for (std::size_t e = 0; e < disc->num_elements(); ++e) {
        const auto& ops = disc->ops(e);
        const std::size_t nm = ops.num_modes();
        // Constant function: vertex modes = 1, higher modes = 0.
        std::vector<double> one(nm, 0.0);
        for (std::size_t v = 0; v < ops.expansion().num_vertices(); ++v)
            one[ops.expansion().vertex_mode(v)] = 1.0;
        double area = 0.0;
        for (std::size_t i = 0; i < nm; ++i)
            for (std::size_t j = 0; j < nm; ++j) area += one[i] * ops.mass()(i, j) * one[j];
        EXPECT_NEAR(area, disc->mesh().element_area(e), 1e-10);
    }
}

TEST(ElementOps, LaplacianAnnihilatesConstants) {
    const auto disc = make_disc(mesh::rectangle_tris(2, 1, 0.0, 1.0, 0.0, 1.0), 5);
    for (std::size_t e = 0; e < disc->num_elements(); ++e) {
        const auto& ops = disc->ops(e);
        const std::size_t nm = ops.num_modes();
        std::vector<double> one(nm, 0.0), out(nm, 0.0);
        for (std::size_t v = 0; v < ops.expansion().num_vertices(); ++v)
            one[ops.expansion().vertex_mode(v)] = 1.0;
        ops.laplacian().matvec(one, out);
        for (double v : out) EXPECT_NEAR(v, 0.0, 1e-10);
    }
}

TEST(ElementOps, Figure10Structure_BoundaryFirstOrdering) {
    // The paper's Figure 10: with boundary modes first, the interior-interior
    // block of the elemental Laplacian is banded.  We assert the ordering
    // invariant it relies on: vertices, then edges, then interior.
    for (auto shape : {spectral::Shape::Quad, spectral::Shape::Triangle}) {
        const auto exp = spectral::make_expansion(shape, 6);
        EXPECT_EQ(exp->vertex_mode(0), 0u);
        EXPECT_EQ(exp->edge_mode(0, 1), exp->num_vertices());
        EXPECT_EQ(exp->interior_begin(),
                  exp->num_vertices() + exp->num_edges() * exp->edge_mode_count());
        EXPECT_GT(exp->num_modes(), exp->interior_begin()); // has interior modes
    }
}

TEST(ElementOps, ProjectionThenInterpolationIsIdentityOnPolynomials) {
    const auto disc = make_disc(mesh::rectangle_quads(2, 2, -1.0, 1.0, -1.0, 1.0), 4);
    std::vector<double> quad(disc->quad_size());
    disc->eval_at_quad([](double x, double y) { return x * x * y + 2.0 * y - 1.0; }, quad);
    std::vector<double> modal(disc->modal_size());
    disc->project(quad, modal);
    std::vector<double> back(disc->quad_size());
    disc->to_quad(modal, back);
    for (std::size_t q = 0; q < quad.size(); ++q) EXPECT_NEAR(back[q], quad[q], 1e-10);
}

TEST(ElementOps, CollocationGradientExactForPolynomials) {
    const auto disc = make_disc(mesh::rectangle_quads(3, 3, 0.0, 2.0, -1.0, 1.0), 4);
    std::vector<double> quad(disc->quad_size()), dx(disc->quad_size()), dy(disc->quad_size());
    disc->eval_at_quad([](double x, double y) { return x * x * x - 2.0 * x * y + y * y; },
                       quad);
    for (std::size_t e = 0; e < disc->num_elements(); ++e)
        disc->ops(e).grad_collocation(disc->quad_block(std::span<const double>(quad), e),
                                      disc->quad_block(std::span<double>(dx), e),
                                      disc->quad_block(std::span<double>(dy), e));
    std::vector<double> ex(disc->quad_size()), ey(disc->quad_size());
    disc->eval_at_quad([](double x, double y) { return 3.0 * x * x - 2.0 * y; }, ex);
    disc->eval_at_quad([](double x, double y) { return -2.0 * x + 2.0 * y; }, ey);
    for (std::size_t q = 0; q < dx.size(); ++q) {
        EXPECT_NEAR(dx[q], ex[q], 1e-9);
        EXPECT_NEAR(dy[q], ey[q], 1e-9);
    }
}

TEST(ElementOps, CollocationGradientIsBitwiseTheScalarLoop) {
    // grad_collocation against the plain loop it replaced: d/dxi1 by one
    // blaslite::dgemv per row, d/dxi2 as s = +0, s += D(j, k) q(k, i) for
    // k ascending, then the chain rule.  Orders 1 to 12 (n = 3 to 14
    // points per direction) reach the unrolled widths and the plain loop.
    // This file does not contract either.  One
    // skewed quad (the 2 x 2 mesh's centre vertex moved), so the chain
    // rule has all four geometric factors.
    auto m = mesh::rectangle_quads(2, 2, 0.0, 2.0, -1.0, 1.0);
    m.set_vertex(4, {1.2, 0.15});
    for (std::size_t order = 1; order <= 12; ++order) {
        const nektar::ElementOps ops(m, 0, order);
        const nektar::ElemGeometry& g = ops.geometry();
        const std::size_t n = ops.colloc_nq1d(), nq = n * n;
        std::vector<double> q(nq);
        for (std::size_t p = 0; p < nq; ++p)
            q[p] = std::sin(g.x[p] + 0.3 * g.y[p]) * (1.0 + g.x[p] * g.y[p]);
        std::vector<double> dx(nq), dy(nq), d1(nq), d2(nq);
        ops.grad_collocation(q, dx, dy);
        const la::DenseMatrix& d = ops.colloc_diff_1d();
        for (std::size_t j = 0; j < n; ++j)
            blaslite::dgemv(1.0, d.data(), n, n, n, q.data() + j * n, 0.0, d1.data() + j * n);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < n; ++j) {
                double s = 0.0;
                for (std::size_t k = 0; k < n; ++k) s += d(j, k) * q[k * n + i];
                d2[j * n + i] = s;
            }
        for (std::size_t p = 0; p < nq; ++p) {
            const double rx = g.rx[p] * d1[p] + g.sx[p] * d2[p];
            const double ry = g.ry[p] * d1[p] + g.sy[p] * d2[p];
            ASSERT_EQ(std::memcmp(&rx, &dx[p], sizeof(double)), 0) << order << " " << p;
            ASSERT_EQ(std::memcmp(&ry, &dy[p], sizeof(double)), 0) << order << " " << p;
        }
        EXPECT_TRUE(std::any_of(g.sx.begin(), g.sx.end(), [](double v) { return v != 0.0; }))
            << order;
    }
}

TEST(ElementOps, GradientsAfterANanFieldStayFinite) {
    // Both gradients stage their dgemv products in thread scratch buffers; a
    // NaN field must not leave those poisoned for the next call.
    const auto disc = make_disc(mesh::rectangle_quads(2, 2, 0.0, 2.0, -1.0, 1.0), 4);
    const nektar::ElementOps& ops = disc->ops(0);
    const std::size_t nq = ops.num_quad();
    std::vector<double> dx(nq), dy(nq);
    const std::vector<double> nan_quad(nq, std::numeric_limits<double>::quiet_NaN());
    const std::vector<double> nan_modal(ops.num_modes(), std::numeric_limits<double>::quiet_NaN());
    ops.grad_collocation(nan_quad, dx, dy);
    ops.grad_from_modal(nan_modal, dx, dy);
    const std::vector<double> constant(nq, 3.0), zero_modal(ops.num_modes(), 0.0);
    ops.grad_collocation(constant, dx, dy);
    for (std::size_t q = 0; q < nq; ++q) {
        EXPECT_NEAR(dx[q], 0.0, 1e-10);
        EXPECT_NEAR(dy[q], 0.0, 1e-10);
    }
    ops.grad_from_modal(zero_modal, dx, dy);
    for (std::size_t q = 0; q < nq; ++q) {
        EXPECT_EQ(dx[q], 0.0);
        EXPECT_EQ(dy[q], 0.0);
    }
}

/// The scalar i-j-q triple loop the elemental matrices were first built
/// with, kept as the bit-identity reference for the vectorised build.
nektar::ElemMatrices reference_matrices(const spectral::Expansion& exp,
                                        const nektar::ElemGeometry& geom) {
    const std::size_t nq = exp.num_quad();
    const std::size_t nm = exp.num_modes();
    const la::DenseMatrix& B = exp.basis();
    const la::DenseMatrix& D1 = exp.dbasis_dxi1();
    const la::DenseMatrix& D2 = exp.dbasis_dxi2();
    la::DenseMatrix dx(nq, nm), dy(nq, nm), bw(nq, nm), dxw(nq, nm), dyw(nq, nm);
    for (std::size_t q = 0; q < nq; ++q) {
        for (std::size_t m = 0; m < nm; ++m) {
            dx(q, m) = geom.rx[q] * D1(q, m) + geom.sx[q] * D2(q, m);
            dy(q, m) = geom.ry[q] * D1(q, m) + geom.sy[q] * D2(q, m);
            bw(q, m) = geom.wj[q] * B(q, m);
            dxw(q, m) = geom.wj[q] * dx(q, m);
            dyw(q, m) = geom.wj[q] * dy(q, m);
        }
    }
    nektar::ElemMatrices mats;
    mats.mass = la::DenseMatrix(nm, nm);
    mats.lap = la::DenseMatrix(nm, nm);
    for (std::size_t i = 0; i < nm; ++i) {
        for (std::size_t j = 0; j < nm; ++j) {
            double mij = 0.0, lij = 0.0;
            for (std::size_t q = 0; q < nq; ++q) {
                mij += bw(q, i) * B(q, j);
                lij += dxw(q, i) * dx(q, j) + dyw(q, i) * dy(q, j);
            }
            mats.mass(i, j) = mij;
            mats.lap(i, j) = lij;
        }
    }
    mats.mass_chol = mats.mass;
    EXPECT_TRUE(la::cholesky_factor(mats.mass_chol));
    return mats;
}

bool same_bits(const la::DenseMatrix& a, const la::DenseMatrix& b) {
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(), a.rows() * a.cols() * sizeof(double)) == 0;
}

/// A rectangle of quads, a skewed (non-affine) quad and two triangles.
mesh::Mesh skewed_mixed_mesh() {
    std::vector<mesh::Vertex> v = {{0.0, 0.0}, {1.0, 0.0}, {2.3, -0.2}, {3.0, 0.1},
                                   {0.0, 1.0}, {1.0, 1.0}, {1.9, 1.4},  {3.2, 0.9}};
    std::vector<mesh::Element> e(4);
    e[0] = {spectral::Shape::Quad, {0, 1, 5, 4}};
    e[1] = {spectral::Shape::Quad, {1, 2, 6, 5}}; // skewed: its Jacobian varies
    e[2] = {spectral::Shape::Triangle, {2, 3, 7, -1}};
    e[3] = {spectral::Shape::Triangle, {2, 7, 6, -1}};
    return mesh::Mesh(std::move(v), std::move(e));
}

TEST(ElementOps, MatricesAreBitwiseTheScalarTripleLoop) {
    const auto m = std::make_shared<mesh::Mesh>(skewed_mixed_mesh());
    for (std::size_t order = 1; order <= 8; ++order) {
        const blaslite::CountScope scope;
        const nektar::Discretization disc(m, order);
        // The build charges no blaslite counters, so no priced model moves.
        EXPECT_EQ(scope.delta().calls, 0u);
        EXPECT_EQ(scope.delta().flops, 0u);
        for (std::size_t e = 0; e < disc.num_elements(); ++e) {
            const nektar::ElementOps& ops = disc.ops(e);
            const nektar::ElemMatrices ref = reference_matrices(ops.expansion(), ops.geometry());
            EXPECT_TRUE(same_bits(ops.mass(), ref.mass)) << "order " << order << " elem " << e;
            EXPECT_TRUE(same_bits(ops.laplacian(), ref.lap)) << "order " << order << " elem " << e;
            EXPECT_TRUE(same_bits(ops.mass_cholesky(), ref.mass_chol))
                << "order " << order << " elem " << e;
        }
    }
}

/// Hash of every element map (global ids and signs), the dof count and the
/// bandwidth.
std::uint64_t dofmap_fingerprint(const mesh::Mesh& m, std::size_t order, bool renumber) {
    const nektar::DofMap dm(m, order, renumber);
    ckpt::Fingerprint fp;
    fp.add(static_cast<std::uint64_t>(dm.num_global()));
    fp.add(static_cast<std::uint64_t>(dm.bandwidth()));
    for (std::size_t e = 0; e < m.num_elements(); ++e)
        for (const nektar::LocalDof& ld : dm.element_map(e))
            fp.add(static_cast<std::uint64_t>(ld.global)).add(ld.sign);
    return fp.value();
}

TEST(DofMap, RcmNumberingIsPinned) {
    // Table 1's mesh at order 6, Table 2's at order 4, the ALE mesh
    // without renumbering and a triangle mesh; the hashes pin every map bit
    // for bit.
    namespace workloads = nektar::workloads;
    const mesh::Mesh m1 = workloads::table1_mesh();
    const mesh::Mesh m2 = workloads::table2_mesh();
    EXPECT_EQ(nektar::DofMap(m1, workloads::kTable1Order).bandwidth(), 815u);
    EXPECT_EQ(nektar::DofMap(m2, workloads::kTable2Order).bandwidth(), 267u);
    EXPECT_EQ(dofmap_fingerprint(m1, workloads::kTable1Order, true), 0x32e9db111aedd90eull);
    EXPECT_EQ(dofmap_fingerprint(m2, workloads::kTable2Order, true), 0x8808458736c57a21ull);
    EXPECT_EQ(dofmap_fingerprint(mesh::flapping_body_mesh(2), 4, false), 0x53e7ea3cf40d6c34ull);
    // Triangles: here the order in which equal-degree neighbours reach the
    // degree sort matters.
    EXPECT_EQ(dofmap_fingerprint(mesh::rectangle_tris(6, 5, 0, 1, 0, 1), 4, true),
              0x21accd3640b3a7baull);
}

TEST(DofMap, DirichletValuesArePinnedAndRepeatable) {
    const mesh::Mesh m = nektar::workloads::table2_mesh();
    const nektar::DofMap dm(m, 5);
    const auto pred = [](mesh::BoundaryTag t) {
        return t == mesh::BoundaryTag::Inflow || t == mesh::BoundaryTag::Body;
    };
    const auto g = [](double x, double y) { return std::sin(x) * std::cos(2.0 * y) + 0.5; };
    const auto first = dm.dirichlet_values(pred, g);
    const auto second = dm.dirichlet_values(pred, g);
    ASSERT_EQ(first.size(), second.size());
    ckpt::Fingerprint fp;
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].first, second[i].first);
        EXPECT_EQ(std::memcmp(&first[i].second, &second[i].second, sizeof(double)), 0);
        fp.add(static_cast<std::uint64_t>(first[i].first)).add(first[i].second);
    }
    EXPECT_EQ(fp.value(), 0x7b201d5cdb097ba1ull);
}

TEST(DofMap, CountsAndContinuity) {
    const auto m = std::make_shared<mesh::Mesh>(mesh::rectangle_quads(3, 2, 0, 3, 0, 2));
    const std::size_t P = 3;
    nektar::DofMap dm(*m, P);
    const std::size_t expected = m->num_vertices() + m->num_edges() * (P - 1) +
                                 m->num_elements() * (P - 1) * (P - 1);
    EXPECT_EQ(dm.num_global(), expected);
}

TEST(DofMap, RcmReducesBandwidth) {
    const auto m = mesh::rectangle_quads(8, 8, 0, 1, 0, 1);
    nektar::DofMap with(m, 3, true);
    nektar::DofMap without(m, 3, false);
    EXPECT_LT(with.bandwidth(), without.bandwidth());
}

TEST(DofMap, ContinuityAcrossElements) {
    // Scatter a random global vector and check that shared-edge quadrature
    // traces agree between neighbouring elements by evaluating the field at
    // shared vertices... via a global function reproduction instead:
    // project x+2y globally and require elementwise representation to agree
    // with the function everywhere (continuity implied by single-valued dofs).
    const auto disc = std::make_shared<nektar::Discretization>(
        std::make_shared<mesh::Mesh>(mesh::rectangle_tris(3, 3, 0, 1, 0, 1)), 4);
    std::vector<double> quad(disc->quad_size());
    disc->eval_at_quad([](double x, double y) { return 3.0 * x - 2.0 * y + 0.5; }, quad);
    std::vector<double> modal(disc->modal_size());
    disc->project(quad, modal);
    // Gather then scatter must reproduce the same local coefficients: the
    // projection of a continuous function is single-valued on shared dofs.
    std::vector<double> global(disc->dofmap().num_global(), 0.0);
    std::vector<double> counts(disc->dofmap().num_global(), 0.0);
    for (std::size_t e = 0; e < disc->num_elements(); ++e) {
        const auto& map = disc->dofmap().element_map(e);
        auto block = disc->modal_block(std::span<const double>(modal), e);
        for (std::size_t i = 0; i < block.size(); ++i) {
            global[static_cast<std::size_t>(map[i].global)] += map[i].sign * block[i];
            counts[static_cast<std::size_t>(map[i].global)] += 1.0;
        }
    }
    for (std::size_t g = 0; g < global.size(); ++g) global[g] /= counts[g];
    std::vector<double> modal2(disc->modal_size());
    disc->scatter(global, modal2);
    for (std::size_t i = 0; i < modal.size(); ++i)
        EXPECT_NEAR(modal2[i], modal[i], 1e-9) << "shared dof disagreement at " << i;
}

TEST(Discretization, IntegrateAndNorms) {
    const auto disc = make_disc(mesh::rectangle_quads(4, 4, 0.0, 1.0, 0.0, 1.0), 3);
    std::vector<double> quad(disc->quad_size());
    disc->eval_at_quad([](double x, double y) { return x * y; }, quad);
    EXPECT_NEAR(disc->integrate(quad), 0.25, 1e-12);
    EXPECT_NEAR(disc->l2_norm(quad), 1.0 / 3.0, 1e-12); // sqrt(1/9)
    EXPECT_NEAR(disc->l2_error(quad, [](double x, double y) { return x * y; }), 0.0, 1e-12);
}

} // namespace
