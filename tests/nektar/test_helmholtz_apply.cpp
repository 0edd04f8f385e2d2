/// Bitwise tests of the fused matrix-free Helmholtz apply (helmholtz_apply
/// and HelmholtzPCG::apply).  The reference is the three-pass apply it
/// replaced, rebuilt from public API: scatter a zero-masked copy of x into
/// modal form, run each matrix run's blaslite calls (dgemm_cm per
/// contiguous run, dgemv per element of a non-contiguous group; L first,
/// then lambda M), gather_add into y, assemble, and copy x into the masked
/// rows.  Results must match bit for bit, and so must the charged counts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "blaslite/blas.hpp"
#include "mesh/generators.hpp"
#include "nektar/discretization.hpp"
#include "nektar/helmholtz.hpp"
#include "partition/partition.hpp"

namespace {

using nektar::Discretization;
using nektar::ElemGroup;
using nektar::ElemMatrices;

using StiffOf = std::function<const la::DenseMatrix&(const ElemMatrices&)>;
using Assemble = std::function<void(std::span<double>)>;

void reference_apply(const Discretization& disc, const StiffOf& stiff_of, double lambda,
                     std::span<const double> x, std::span<double> y,
                     std::span<const char> mask, const Assemble& assemble) {
    std::vector<double> xm(x.begin(), x.end());
    for (std::size_t i = 0; i < mask.size(); ++i)
        if (mask[i]) xm[i] = 0.0;
    std::vector<double> xl(disc.modal_size()), yl(disc.modal_size());
    disc.scatter(xm, xl);
    for (const ElemGroup& g : disc.groups()) {
        const std::size_t nm = g.exp->num_modes();
        for (const ElemGroup::MatrixRun& run : g.runs) {
            const la::DenseMatrix& stiff = stiff_of(*run.mats);
            const la::DenseMatrix& mass = run.mats->mass;
            if (g.contiguous) {
                const std::size_t off = disc.modal_offset(g.elems[run.first]);
                blaslite::dgemm_cm(1.0, stiff.data(), nm, xl.data() + off, nm, 0.0,
                                   yl.data() + off, nm, nm, run.count, nm);
                if (lambda != 0.0)
                    blaslite::dgemm_cm(lambda, mass.data(), nm, xl.data() + off, nm, 1.0,
                                       yl.data() + off, nm, nm, run.count, nm);
            } else {
                for (std::size_t j = 0; j < run.count; ++j) {
                    const std::size_t off = disc.modal_offset(g.elems[run.first + j]);
                    blaslite::dgemv(1.0, stiff.data(), nm, nm, nm, xl.data() + off, 0.0,
                                    yl.data() + off);
                    if (lambda != 0.0)
                        blaslite::dgemv(lambda, mass.data(), nm, nm, nm, xl.data() + off, 1.0,
                                        yl.data() + off);
                }
            }
        }
    }
    std::fill(y.begin(), y.end(), 0.0);
    disc.gather_add(yl, y);
    if (assemble) assemble(y);
    for (std::size_t i = 0; i < mask.size(); ++i)
        if (mask[i]) y[i] = x[i];
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
    return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// 6x2 cells in a checkerboard of quads and triangle pairs, numbered row by
/// row.  Neither group is contiguous, and most vertices collect three or
/// more element contributions from both groups, so visiting the groups one
/// after the other would change the order of those sums.
mesh::Mesh mixed_mesh() {
    constexpr int nx = 6, ny = 2;
    std::vector<mesh::Vertex> v;
    for (int y = 0; y <= ny; ++y)
        for (int x = 0; x <= nx; ++x)
            v.push_back({static_cast<double>(x), static_cast<double>(y)});
    const auto id = [](int x, int y) { return y * (nx + 1) + x; };
    std::vector<mesh::Element> e;
    for (int y = 0; y < ny; ++y) {
        for (int x = 0; x < nx; ++x) {
            const int a = id(x, y), b = id(x + 1, y), c = id(x + 1, y + 1), d = id(x, y + 1);
            if ((x + y) % 2 == 0) {
                e.push_back({spectral::Shape::Quad, {a, b, c, d}});
            } else {
                e.push_back({spectral::Shape::Triangle, {a, b, c, -1}});
                e.push_back({spectral::Shape::Triangle, {a, c, d, -1}});
            }
        }
    }
    return mesh::Mesh(std::move(v), std::move(e));
}

/// One rank's piece of the flapping-body mesh (4-way partition), with every
/// vertex moved so that no two elements stay congruent: the per-element
/// runs of an ALE step.
mesh::Mesh moved_ale_submesh() {
    const mesh::Mesh full = mesh::flapping_body_mesh(1);
    partition::Graph graph;
    full.dual_graph(graph.xadj, graph.adjncy);
    const std::vector<int> part = partition::partition_graph(graph, 4);
    std::vector<int> local(full.num_vertices(), -1);
    std::vector<mesh::Vertex> verts;
    std::vector<mesh::Element> elems;
    for (std::size_t e = 0; e < full.num_elements(); ++e) {
        if (part[e] != 1) continue;
        mesh::Element el = full.element(e);
        for (int& vid : el.v) {
            if (vid < 0) continue;
            int& id = local[static_cast<std::size_t>(vid)];
            if (id < 0) {
                id = static_cast<int>(verts.size());
                const mesh::Vertex p = full.vertex(static_cast<std::size_t>(vid));
                verts.push_back({p.x + 0.01 * std::sin(3.0 * p.y),
                                 p.y + 0.01 * std::cos(2.0 * p.x)});
            }
            vid = id;
        }
        elems.push_back(el);
    }
    return mesh::Mesh(std::move(verts), std::move(elems));
}

struct ApplyCase {
    const char* name;
    std::shared_ptr<const Discretization> disc;
};

std::vector<ApplyCase> apply_cases() {
    const auto make = [](mesh::Mesh m, std::size_t order, bool renumber) {
        return std::make_shared<const Discretization>(std::make_shared<mesh::Mesh>(std::move(m)),
                                                      order, renumber);
    };
    return {
        {"moved ALE sub-mesh", make(moved_ale_submesh(), 4, false)},
        {"mixed tri+quad", make(mixed_mesh(), 5, true)},
        // 32 congruent quads: one run whose dgemm_cm takes the packed
        // micro-kernel (above the small-product flop threshold).
        {"structured", make(mesh::rectangle_quads(8, 4, 0.0, 2.0, 0.0, 1.0), 4, true)},
    };
}

std::vector<double> test_field(std::size_t n) {
    std::vector<double> f(n);
    for (std::size_t i = 0; i < n; ++i)
        f[i] = std::sin(0.37 * static_cast<double>(i)) +
               0.25 * std::cos(1.13 * static_cast<double>(i) + 1.0);
    return f;
}

std::vector<char> test_mask(std::size_t n) {
    std::vector<char> mask(n, 0);
    for (std::size_t i = 0; i < n; i += 5) mask[i] = 1;
    return mask;
}

TEST(HelmholtzApply, FusedApplyIsBitwiseTheThreePassApply) {
    const StiffOf lap = [](const ElemMatrices& m) -> const la::DenseMatrix& { return m.lap; };
    // Stands in for the distributed gather-scatter sum: it must run after
    // the element sums and before the masked rows are set.
    const Assemble assemble = [](std::span<double> y) {
        for (double& v : y) v = 0.5 * v + 1.0;
    };
    for (const ApplyCase& c : apply_cases()) {
        const Discretization& disc = *c.disc;
        const std::size_t n = disc.dofmap().num_global();
        const auto x = test_field(n);
        const auto mask = test_mask(n);
        // Each mesh must exercise its path: per-element runs, interleaved
        // groups, one long congruent run.
        const std::string name = c.name;
        const ElemGroup& g0 = disc.groups().front();
        if (name == "moved ALE sub-mesh") {
            EXPECT_EQ(g0.runs.size(), disc.num_elements());
        } else if (name == "mixed tri+quad") {
            ASSERT_EQ(disc.groups().size(), 2u);
            EXPECT_FALSE(g0.contiguous);
            EXPECT_FALSE(disc.groups().back().contiguous);
        } else {
            EXPECT_EQ(g0.runs.size(), 1u);
        }
        for (double lambda : {0.0, 75000.0}) {
            for (bool masked : {false, true}) {
                for (bool with_assemble : {false, true}) {
                    const std::span<const char> m =
                        masked ? std::span<const char>(mask) : std::span<const char>();
                    const Assemble& a = with_assemble ? assemble : Assemble();
                    std::vector<double> y(n, -7.0), ref(n, 3.0);
                    blaslite::CountScope fused_scope;
                    nektar::helmholtz_apply(disc, nektar::run_operators(disc, lap), lambda, x,
                                            y, m, a);
                    const blaslite::OpCounts fused = fused_scope.delta();
                    blaslite::CountScope ref_scope;
                    reference_apply(disc, lap, lambda, x, ref, m, a);
                    const blaslite::OpCounts expect = ref_scope.delta();
                    EXPECT_TRUE(same_bits(y, ref))
                        << c.name << " lambda=" << lambda << " masked=" << masked
                        << " assemble=" << with_assemble;
                    EXPECT_EQ(fused.flops, expect.flops) << c.name;
                    EXPECT_EQ(fused.bytes(), expect.bytes()) << c.name;
                    EXPECT_EQ(fused.calls, expect.calls) << c.name;
                }
            }
        }
    }
}

TEST(HelmholtzApply, PcgApplyIsBitwiseTheThreePassApplyOfLThenLambdaM) {
    const StiffOf lap = [](const ElemMatrices& m) -> const la::DenseMatrix& { return m.lap; };
    for (const ApplyCase& c : apply_cases()) {
        for (double lambda : {0.0, 2.5}) {
            // The solver keeps L and lambda M as separate terms, as the ALE
            // solves always have.
            const nektar::HelmholtzPCG pcg(c.disc, lambda, nektar::HelmholtzBC{});
            const std::size_t n = c.disc->dofmap().num_global();
            const auto x = test_field(n);
            const auto mask = test_mask(n);
            for (bool masked : {false, true}) {
                const std::span<const char> m =
                    masked ? std::span<const char>(mask) : std::span<const char>();
                std::vector<double> y(n), ref(n);
                blaslite::CountScope pcg_scope;
                pcg.apply(x, y, m);
                const blaslite::OpCounts got = pcg_scope.delta();
                blaslite::CountScope ref_scope;
                reference_apply(*c.disc, lap, lambda, x, ref, m, {});
                const blaslite::OpCounts expect = ref_scope.delta();
                EXPECT_TRUE(same_bits(y, ref))
                    << c.name << " lambda=" << lambda << " masked=" << masked;
                EXPECT_EQ(got.flops, expect.flops) << c.name;
                EXPECT_EQ(got.calls, expect.calls) << c.name;
            }
        }
    }
}

} // namespace
