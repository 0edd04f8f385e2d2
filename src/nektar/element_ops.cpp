#include "nektar/element_ops.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "blaslite/blas.hpp"
#include "blaslite/multiversion.hpp"
#include "parallel/scratch.hpp"

namespace nektar {

namespace {

/// Rows of the staged matrices are padded to a multiple of kPad columns,
/// the widest vector any clone uses.
constexpr std::size_t kPad = 8;

/// Register tile: IR rows i by R vectors of W columns j, each a
/// blaslite::Lanes<W> in its clone's native width (xmm, ymm, zmm).
template <std::size_t W, std::size_t IR, std::size_t R>
struct ProductTile {
    static_assert(IR >= 1 && IR <= 4 && R >= 1 && R <= 2);
    static constexpr std::size_t width = W, rows = IR, vecs = R, cols = W * R;
};

/// One shape per ISA level: 2 * IR * R accumulators, R vectors of each of
/// b, dx and dy and three broadcasts fit the register file (32 zmm on
/// x86-64-v4, 16 ymm or xmm below it).
using V4Tile = ProductTile<8, 4, 2>;
using V3Tile = ProductTile<4, 2, 2>;
using BaseTile = ProductTile<2, 2, 2>;

/// The staged inputs and outputs of the products: b, dx and dy are nq x ld
/// (q-major), bw, dxw and dyw are nm x nq (mode-major), mass and lap are
/// nm x ld; ld is a multiple of kPad.
struct Staged {
    const double *b, *dx, *dy, *bw, *dxw, *dyw;
    std::size_t nq, nm, ld;
    double *mass, *lap;
};

/// One row's accumulators for R vectors of columns.  Named, not an array:
/// GCC spills an array of vectors indexed in a loop.
template <std::size_t W, std::size_t R>
struct RowAcc {
    using V = typename blaslite::Lanes<W>::type;
    V m0{}, m1{}, l0{}, l1{};
};

/// mass += sb b_q and lap += (sx dx_q + sy dy_q) over R vectors of row q:
/// each product rounded, the two Laplacian products summed first, then
/// added to the accumulator (element_ops.cpp is compiled without FP
/// contraction), exactly as the scalar
/// lij += dxw(q, i) * dx(q, j) + dyw(q, i) * dy(q, j).
template <std::size_t W, std::size_t R>
[[gnu::always_inline]] inline void accumulate(RowAcc<W, R>& a, const double* b, const double* dx,
                                              const double* dy, double sb, double sx,
                                              double sy) noexcept {
    using V = typename blaslite::Lanes<W>::type;
    const V* pb = reinterpret_cast<const V*>(b);
    const V* px = reinterpret_cast<const V*>(dx);
    const V* py = reinterpret_cast<const V*>(dy);
    a.m0 += sb * pb[0];
    a.l0 += sx * px[0] + sy * py[0];
    if constexpr (R > 1) {
        a.m1 += sb * pb[1];
        a.l1 += sx * px[1] + sy * py[1];
    }
}

template <std::size_t W, std::size_t R>
[[gnu::always_inline]] inline void store(const RowAcc<W, R>& a, double* mass,
                                         double* lap) noexcept {
    using V = typename blaslite::Lanes<W>::type;
    reinterpret_cast<V*>(mass)[0] = a.m0;
    reinterpret_cast<V*>(lap)[0] = a.l0;
    if constexpr (R > 1) {
        reinterpret_cast<V*>(mass)[1] = a.m1;
        reinterpret_cast<V*>(lap)[1] = a.l1;
    }
}

/// Entries (i, j) of mass and lap for rows [i0, i0 + rows) and columns
/// [j0, j0 + cols): each a sum over q in ascending order, one term per q.
template <typename Tile>
[[gnu::always_inline]] inline void product_tile(const Staged& s, std::size_t i0,
                                                std::size_t j0) noexcept {
    constexpr std::size_t W = Tile::width, IR = Tile::rows, R = Tile::vecs;
    RowAcc<W, R> a0, a1, a2, a3;
    const std::size_t nq = s.nq;
    const double* bw = s.bw + i0 * nq;
    const double* dxw = s.dxw + i0 * nq;
    const double* dyw = s.dyw + i0 * nq;
    for (std::size_t q = 0; q < nq; ++q) {
        const std::size_t o = q * s.ld + j0;
        const double *b = s.b + o, *dx = s.dx + o, *dy = s.dy + o;
        accumulate(a0, b, dx, dy, bw[q], dxw[q], dyw[q]);
        if constexpr (IR > 1) accumulate(a1, b, dx, dy, bw[nq + q], dxw[nq + q], dyw[nq + q]);
        if constexpr (IR > 2)
            accumulate(a2, b, dx, dy, bw[2 * nq + q], dxw[2 * nq + q], dyw[2 * nq + q]);
        if constexpr (IR > 3)
            accumulate(a3, b, dx, dy, bw[3 * nq + q], dxw[3 * nq + q], dyw[3 * nq + q]);
    }
    const std::size_t o = i0 * s.ld + j0;
    store(a0, s.mass + o, s.lap + o);
    if constexpr (IR > 1) store(a1, s.mass + o + s.ld, s.lap + o + s.ld);
    if constexpr (IR > 2) store(a2, s.mass + o + 2 * s.ld, s.lap + o + 2 * s.ld);
    if constexpr (IR > 3) store(a3, s.mass + o + 3 * s.ld, s.lap + o + 3 * s.ld);
}

/// Every entry of mass and lap, Tile by Tile.  Column blocks are the outer
/// loop, so a block's b, dx and dy stay in L1 across the rows; the last
/// rows and columns take one-row and one-vector tiles.
template <typename Tile>
[[gnu::always_inline]] inline void products(const Staged& s) noexcept {
    using OneRow = ProductTile<Tile::width, 1, Tile::vecs>;
    using OneVec = ProductTile<Tile::width, Tile::rows, 1>;
    using Single = ProductTile<Tile::width, 1, 1>;
    std::size_t j0 = 0;
    for (; j0 + Tile::cols <= s.ld; j0 += Tile::cols) {
        std::size_t i = 0;
        for (; i + Tile::rows <= s.nm; i += Tile::rows) product_tile<Tile>(s, i, j0);
        for (; i < s.nm; ++i) product_tile<OneRow>(s, i, j0);
    }
    for (; j0 < s.ld; j0 += Tile::width) {
        std::size_t i = 0;
        for (; i + Tile::rows <= s.nm; i += Tile::rows) product_tile<OneVec>(s, i, j0);
        for (; i < s.nm; ++i) product_tile<Single>(s, i, j0);
    }
}

/// products with the tile of ISA level `isa`, in one function per clone.
REPRO_MULTIVERSION
void elemental_products(const Staged& s, blaslite::IsaLevel isa) noexcept {
    switch (isa) {
        case blaslite::IsaLevel::v4: products<V4Tile>(s); break;
        case blaslite::IsaLevel::v3: products<V3Tile>(s); break;
        default: products<BaseTile>(s); break;
    }
}

/// Builds the (expansion, geometry)-dependent elemental matrices:
/// mass(i, j) = sum_q wj B(q, i) B(q, j) and
/// lap(i, j) = sum_q [wj dx(q, i) dx(q, j) + wj dy(q, i) dy(q, j)], with
/// dx = rx D1 + sx D2 and dy = ry D1 + sy D2 the physical derivatives of
/// every mode at every point.
ElemMatrices build_matrices(const spectral::Expansion& exp, const ElemGeometry& geom) {
    const std::size_t nq = exp.num_quad();
    const std::size_t nm = exp.num_modes();
    const std::size_t ld = (nm + kPad - 1) / kPad * kPad;
    const la::DenseMatrix& B = exp.basis();
    const la::DenseMatrix& D1 = exp.dbasis_dxi1();
    const la::DenseMatrix& D2 = exp.dbasis_dxi2();
    parallel::Scratch buf(3 * nq * ld + 3 * nm * nq + 2 * nm * ld);
    double* b = buf.data();
    double* dx = b + nq * ld;
    double* dy = dx + nq * ld;
    double* bw = dy + nq * ld;
    double* dxw = bw + nm * nq;
    double* dyw = dxw + nm * nq;
    double* mass = dyw + nm * nq;
    double* lap = mass + nm * ld;
    for (std::size_t q = 0; q < nq; ++q) {
        for (std::size_t m = 0; m < nm; ++m) {
            b[q * ld + m] = B(q, m);
            dx[q * ld + m] = geom.rx[q] * D1(q, m) + geom.sx[q] * D2(q, m);
            dy[q * ld + m] = geom.ry[q] * D1(q, m) + geom.sy[q] * D2(q, m);
        }
        for (std::size_t m = nm; m < ld; ++m)
            b[q * ld + m] = dx[q * ld + m] = dy[q * ld + m] = 0.0;
    }
    // The weighted factors mode-major, so one row's are contiguous in q.
    for (std::size_t m = 0; m < nm; ++m)
        for (std::size_t q = 0; q < nq; ++q) {
            bw[m * nq + q] = geom.wj[q] * b[q * ld + m];
            dxw[m * nq + q] = geom.wj[q] * dx[q * ld + m];
            dyw[m * nq + q] = geom.wj[q] * dy[q * ld + m];
        }
    elemental_products({b, dx, dy, bw, dxw, dyw, nq, nm, ld, mass, lap}, blaslite::isa_level());

    ElemMatrices mats;
    mats.mass = la::DenseMatrix(nm, nm);
    mats.lap = la::DenseMatrix(nm, nm);
    for (std::size_t i = 0; i < nm; ++i)
        for (std::size_t j = 0; j < nm; ++j) {
            mats.mass(i, j) = mass[i * ld + j];
            mats.lap(i, j) = lap[i * ld + j];
        }
    mats.mass_chol = mats.mass;
    if (!la::cholesky_factor(mats.mass_chol))
        throw std::runtime_error("ElementOps: mass matrix not SPD");
    return mats;
}

} // namespace

std::shared_ptr<const ElemMatrices> MatrixCache::get(
    const spectral::Expansion* exp, const ElemGeometry& g,
    const std::function<ElemMatrices()>& build) {
    std::vector<std::uint64_t> key;
    key.reserve(5 * g.wj.size());
    for (const std::vector<double>* arr : {&g.wj, &g.rx, &g.ry, &g.sx, &g.sy})
        for (double v : *arr) key.push_back(std::bit_cast<std::uint64_t>(v));
    auto& slot = cache_[{exp, std::move(key)}];
    if (!slot) slot = std::make_shared<const ElemMatrices>(build());
    return slot;
}

ElementOps::ElementOps(const mesh::Mesh& m, std::size_t e, std::size_t order)
    : ElementOps(m, e, spectral::make_expansion(m.element(e).shape, order)) {}

ElementOps::ElementOps(const mesh::Mesh& m, std::size_t e,
                       std::shared_ptr<const spectral::Expansion> exp, MatrixCache* cache)
    : exp_(std::move(exp)) {
    const mesh::Element& el = m.element(e);
    const std::size_t nq = exp_->num_quad();
    geom_.wj.resize(nq);
    geom_.rx.resize(nq);
    geom_.ry.resize(nq);
    geom_.sx.resize(nq);
    geom_.sy.resize(nq);
    geom_.x.resize(nq);
    geom_.y.resize(nq);

    for (int v = 0; v < el.num_vertices(); ++v)
        verts_[static_cast<std::size_t>(v)] = m.elem_vertex(e, static_cast<std::size_t>(v));

    const auto w = exp_->quad_weights();
    for (std::size_t q = 0; q < nq; ++q) {
        const PointMap pm = map_at(exp_->xi1(q), exp_->xi2(q));
        if (pm.det <= 0.0) throw std::runtime_error("ElementOps: inverted element");
        geom_.x[q] = pm.x;
        geom_.y[q] = pm.y;
        geom_.wj[q] = w[q] * pm.det;
        geom_.rx[q] = pm.rx;
        geom_.ry[q] = pm.ry;
        geom_.sx[q] = pm.sx;
        geom_.sy[q] = pm.sy;
    }

    const auto build = [this] { return build_matrices(*exp_, geom_); };
    mats_ = cache ? cache->get(exp_.get(), geom_, build)
                  : std::make_shared<const ElemMatrices>(build());
}

const la::DenseMatrix& ElementOps::colloc_diff_1d() const noexcept {
    static const la::DenseMatrix none;
    const spectral::TensorBasis* tb = exp_->tensor_basis();
    return tb ? tb->colloc : none;
}

PointMap ElementOps::map_at(double x1, double x2) const {
    double xx, yy, dxd1, dxd2, dyd1, dyd2;
    if (exp_->shape() == spectral::Shape::Triangle) {
        const mesh::Vertex& a = verts_[0];
        const mesh::Vertex& b = verts_[1];
        const mesh::Vertex& c = verts_[2];
        // Affine map from {(-1,-1),(1,-1),(-1,1)}.
        xx = -0.5 * (x1 + x2) * a.x + 0.5 * (1.0 + x1) * b.x + 0.5 * (1.0 + x2) * c.x;
        yy = -0.5 * (x1 + x2) * a.y + 0.5 * (1.0 + x1) * b.y + 0.5 * (1.0 + x2) * c.y;
        dxd1 = 0.5 * (b.x - a.x);
        dxd2 = 0.5 * (c.x - a.x);
        dyd1 = 0.5 * (b.y - a.y);
        dyd2 = 0.5 * (c.y - a.y);
    } else {
        const mesh::Vertex& v0 = verts_[0];
        const mesh::Vertex& v1 = verts_[1];
        const mesh::Vertex& v2 = verts_[2];
        const mesh::Vertex& v3 = verts_[3];
        const double n0 = 0.25 * (1 - x1) * (1 - x2), n1 = 0.25 * (1 + x1) * (1 - x2);
        const double n2 = 0.25 * (1 + x1) * (1 + x2), n3 = 0.25 * (1 - x1) * (1 + x2);
        xx = n0 * v0.x + n1 * v1.x + n2 * v2.x + n3 * v3.x;
        yy = n0 * v0.y + n1 * v1.y + n2 * v2.y + n3 * v3.y;
        // Difference form: translation-invariant to the last bit, so
        // congruent (translated) elements produce identical Jacobian
        // metrics and share one ElemMatrices instance via the MatrixCache's
        // exact-bit key.
        dxd1 = 0.25 * ((1 - x2) * (v1.x - v0.x) + (1 + x2) * (v2.x - v3.x));
        dxd2 = 0.25 * ((1 - x1) * (v3.x - v0.x) + (1 + x1) * (v2.x - v1.x));
        dyd1 = 0.25 * ((1 - x2) * (v1.y - v0.y) + (1 + x2) * (v2.y - v3.y));
        dyd2 = 0.25 * ((1 - x1) * (v3.y - v0.y) + (1 + x1) * (v2.y - v1.y));
    }
    PointMap pm;
    pm.x = xx;
    pm.y = yy;
    pm.det = dxd1 * dyd2 - dxd2 * dyd1;
    pm.rx = dyd2 / pm.det;
    pm.ry = -dxd2 / pm.det;
    pm.sx = -dyd1 / pm.det;
    pm.sy = dxd1 / pm.det;
    return pm;
}

double ElementOps::eval_modal(std::span<const double> modal, double x1, double x2) const {
    double s = 0.0;
    for (std::size_t m = 0; m < num_modes(); ++m) s += modal[m] * exp_->eval_mode(m, x1, x2);
    return s;
}

void ElementOps::eval_modal_grad(std::span<const double> modal, double x1, double x2,
                                 double& dudx, double& dudy) const {
    const PointMap pm = map_at(x1, x2);
    double d1 = 0.0, d2 = 0.0;
    for (std::size_t m = 0; m < num_modes(); ++m) {
        const auto d = exp_->eval_mode_deriv(m, x1, x2);
        d1 += modal[m] * d[0];
        d2 += modal[m] * d[1];
    }
    dudx = pm.rx * d1 + pm.sx * d2;
    dudy = pm.ry * d1 + pm.sy * d2;
}

void ElementOps::interp_to_quad(std::span<const double> modal, std::span<double> quad) const {
    assert(modal.size() == num_modes() && quad.size() == num_quad());
    const la::DenseMatrix& B = exp_->basis();
    blaslite::dgemv(1.0, B.data(), B.cols(), B.rows(), B.cols(), modal.data(), 0.0,
                    quad.data());
}

void ElementOps::weak_inner(std::span<const double> quad, std::span<double> rhs) const {
    assert(quad.size() == num_quad() && rhs.size() == num_modes());
    const la::DenseMatrix& B = exp_->basis();
    parallel::Scratch wq(num_quad());
    for (std::size_t q = 0; q < num_quad(); ++q) wq.data()[q] = geom_.wj[q] * quad[q];
    blaslite::dgemv_t(1.0, B.data(), B.cols(), B.rows(), B.cols(), wq.data(), 1.0, rhs.data());
}

void ElementOps::grad_from_modal(std::span<const double> modal, std::span<double> dudx,
                                 std::span<double> dudy) const {
    const la::DenseMatrix& D1 = exp_->dbasis_dxi1();
    const la::DenseMatrix& D2 = exp_->dbasis_dxi2();
    const std::size_t nq = num_quad();
    parallel::Scratch d1(nq), d2(nq);
    blaslite::dgemv(1.0, D1.data(), D1.cols(), D1.rows(), D1.cols(), modal.data(), 0.0,
                    d1.data());
    blaslite::dgemv(1.0, D2.data(), D2.cols(), D2.rows(), D2.cols(), modal.data(), 0.0,
                    d2.data());
    for (std::size_t q = 0; q < nq; ++q) {
        dudx[q] = geom_.rx[q] * d1[q] + geom_.sx[q] * d2[q];
        dudy[q] = geom_.ry[q] * d1[q] + geom_.sy[q] * d2[q];
    }
}

namespace {

/// d2 = D Q for the N x N row-major D and Q: each entry the sum from +0 of
/// its N products in ascending k, each rounded (this file does not
/// contract), with a whole row of d2 held in registers through the k loop.
template <std::size_t N>
[[gnu::always_inline]] inline void xi2_rows(const double* d, const double* quad, double* d2) {
    for (std::size_t j = 0; j < N; ++j) {
        double row[N] = {};
        for (std::size_t k = 0; k < N; ++k) {
            const double djk = d[j * N + k];
            for (std::size_t i = 0; i < N; ++i) row[i] += djk * quad[k * N + i];
        }
        std::copy(row, row + N, d2 + j * N);
    }
}

/// The d/dxi2 collocation derivative, d2 = D Q: unrolled for the point
/// counts of orders 4 to 8 (n = 6 to 10), the paper runs' orders; the
/// same operations in a plain loop otherwise.
REPRO_MULTIVERSION
void xi2_derivative(std::size_t n, const double* d, const double* quad, double* d2) {
    switch (n) {
        case 6: return xi2_rows<6>(d, quad, d2);
        case 7: return xi2_rows<7>(d, quad, d2);
        case 8: return xi2_rows<8>(d, quad, d2);
        case 9: return xi2_rows<9>(d, quad, d2);
        case 10: return xi2_rows<10>(d, quad, d2);
        default: break;
    }
    for (std::size_t j = 0; j < n; ++j) {
        double* const row = d2 + j * n;
        std::fill(row, row + n, 0.0);
        for (std::size_t k = 0; k < n; ++k)
            for (std::size_t i = 0; i < n; ++i) row[i] += d[j * n + k] * quad[k * n + i];
    }
}

} // namespace

void ElementOps::grad_collocation(std::span<const double> quad, std::span<double> dudx,
                                  std::span<double> dudy) const {
    const std::size_t n = colloc_nq1d();
    if (n == 0)
        throw std::logic_error("grad_collocation: quad elements only");
    const la::DenseMatrix& d1d = colloc_diff_1d();
    parallel::Scratch d1(n * n), d2(n * n);
    // d/dxi1: differentiate along rows (xi1 is the fast index).
    for (std::size_t j = 0; j < n; ++j)
        blaslite::dgemv(1.0, d1d.data(), n, n, n, quad.data() + j * n, 0.0, d1.data() + j * n);
    // d/dxi2: differentiate along columns.
    xi2_derivative(n, d1d.data(), quad.data(), d2.data());
    blaslite::detail::charge(2 * n * n * n, 2 * n * n * sizeof(double), n * n * sizeof(double));
    for (std::size_t q = 0; q < n * n; ++q) {
        dudx[q] = geom_.rx[q] * d1[q] + geom_.sx[q] * d2[q];
        dudy[q] = geom_.ry[q] * d1[q] + geom_.sy[q] * d2[q];
    }
}

void ElementOps::project(std::span<const double> quad, std::span<double> modal) const {
    std::fill(modal.begin(), modal.end(), 0.0);
    weak_inner(quad, modal);
    la::cholesky_solve(mats_->mass_chol, modal);
}

} // namespace nektar
