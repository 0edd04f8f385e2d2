#include "la/banded.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "blaslite/counters.hpp"
#include "blaslite/multiversion.hpp"
#include "parallel/scratch.hpp"

namespace la {

void SymBandedMatrix::add(std::size_t i, std::size_t j, double v) {
    if (i < j) std::swap(i, j);
    if (i >= n_ || i - j > kd_)
        throw std::out_of_range("SymBandedMatrix::add: (" + std::to_string(i) + ", " +
                                std::to_string(j) + ") outside the band of a " +
                                std::to_string(n_) + "x" + std::to_string(n_) +
                                " matrix with bandwidth " + std::to_string(kd_));
    band(i - j, j) += v;
}

double SymBandedMatrix::at(std::size_t i, std::size_t j) const noexcept {
    if (i < j) std::swap(i, j);
    const std::size_t d = i - j;
    if (d > kd_) return 0.0;
    return band(d, j);
}

void SymBandedMatrix::matvec(std::span<const double> x, std::span<double> y) const {
    assert(x.size() == n_ && y.size() == n_);
    for (std::size_t i = 0; i < n_; ++i) y[i] = band(0, i) * x[i];
    std::size_t flops = n_;
    for (std::size_t d = 1; d <= kd_; ++d) {
        for (std::size_t j = 0; j + d < n_; ++j) {
            const double v = band(d, j);
            y[j + d] += v * x[j];
            y[j] += v * x[j + d];
            flops += 4;
        }
    }
    blaslite::detail::charge(flops, (kd_ + 2) * n_ * sizeof(double), n_ * sizeof(double));
}

DenseMatrix SymBandedMatrix::to_dense() const {
    DenseMatrix a(n_, n_);
    for (std::size_t j = 0; j < n_; ++j) {
        for (std::size_t d = 0; d <= kd_ && j + d < n_; ++d) {
            a(j + d, j) = band(d, j);
            a(j, j + d) = band(d, j);
        }
    }
    return a;
}

// ---------------------------------------------------------------------------
// Factor and solves.  The buffer holds column j's band contiguously, so the
// in-band entry (r, c), r >= c, is a[r + c * kd] for both A and L.
//
// Bit-identity contract: every entry A(r, c) receives its updates
// A(r, c) -= L(r, k) * L(c, k) one k at a time in ascending k, each product
// rounded before the subtraction (banded.cpp is compiled without FP
// contraction), exactly as the plain right-looking column sweep does; only
// the order in which *different* entries are updated changes.
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kNB = 32; ///< panel width (columns per panel)
constexpr std::size_t kMR = 8;  ///< rows of one ColVec

#if defined(__GNUC__) || defined(__clang__)
/// kMR consecutive rows of one column: one zmm, two ymm or four xmm,
/// whichever the active clone has.  Element-aligned and may_alias: it is
/// loaded straight from the band buffer.
typedef double ColVec
    __attribute__((vector_size(kMR * sizeof(double)), aligned(alignof(double)), may_alias));
#endif

/// y[i] -= x[i] * s for i in [0, len), x and y disjoint: one rounded
/// product and one subtraction per entry, kMR entries per vector step.
/// (Spelled out because GCC's -O2 cost model leaves this loop scalar.)
[[gnu::always_inline]] inline void sub_scaled(double* y, const double* x, double s,
                                              std::size_t len) noexcept {
    std::size_t i = 0;
#if defined(__GNUC__) || defined(__clang__)
    for (; i + kMR <= len; i += kMR)
        *reinterpret_cast<ColVec*>(y + i) -= *reinterpret_cast<const ColVec*>(x + i) * s;
#endif
    for (; i < len; ++i) y[i] -= x[i] * s;
}

/// A(r, c) -= L(r, k) L(c, k) for k in [k0, k1) ascending, over rows
/// r in [rlo, rhi] of column c (rlo >= c).  Terms whose L(r, k) or L(c, k)
/// lie outside the band are never formed.
[[gnu::always_inline]] inline void column_update(double* a, std::size_t kd, std::size_t c,
                                                 std::size_t rlo, std::size_t rhi,
                                                 std::size_t k0, std::size_t k1) noexcept {
    for (std::size_t k = k0; k < k1; ++k) {
        const std::size_t hi = std::min(rhi, k + kd);
        if (hi < rlo) continue; // also covers L(c, k) outside the band
        const double* lk = a + k * kd;
        sub_scaled(a + c * kd + rlo, lk + rlo, lk[c], hi - rlo + 1);
    }
}

#if defined(__GNUC__) || defined(__clang__)
/// W consecutive rows of one column, for W in {2, 4, 8}: the native vector
/// of each clone (xmm, ymm, zmm).  A wider vector than the clone has is
/// split into halves that GCC shuffles through memory when kept across a
/// loop, so each tile shape uses its clone's width.  `lanes` holds the
/// lane indices (as doubles: SSE2 has no 64-bit integer compare).
template <std::size_t W>
struct RowVec;
template <>
struct RowVec<2> {
    typedef double type __attribute__((vector_size(16), aligned(alignof(double)), may_alias));
    static constexpr type lanes = {0, 1};
};
template <>
struct RowVec<4> {
    typedef double type __attribute__((vector_size(32), aligned(alignof(double)), may_alias));
    static constexpr type lanes = {0, 1, 2, 3};
};
template <>
struct RowVec<8> {
    typedef ColVec type;
    static constexpr type lanes = {0, 1, 2, 3, 4, 5, 6, 7};
};
#endif

/// Register tile shape: MV vectors of W rows (W * MV rows) by NR columns.
template <std::size_t W, std::size_t MV, std::size_t NR>
struct TileShape {
    static_assert(MV >= 1 && MV <= 2 && NR >= 1 && NR <= 8);
    static constexpr std::size_t width = W, mv = MV, rows = W * MV, cols = NR;
};

/// The shapes, one per ISA level: MV * NR accumulators, MV vectors of an L
/// column and a broadcast fit the register file.  x86-64-v4 has 32 zmm:
/// 16 x 8 takes 16 accumulators.  x86-64-v3 and baseline x86-64 have 16 ymm
/// or xmm: 12 accumulators, 8 x 6 or 4 x 6 rows by columns.
using TallTile = TileShape<8, 2, 8>;
using Avx2Tile = TileShape<4, 2, 6>;
using BaseTile = TileShape<2, 2, 6>;

/// Which entries of a tile at rows [r0, r0 + rows), columns [c0, c0 + cols)
/// take the panel's terms.
enum class Part {
    interior, ///< all, for every k: every term is in band
    diagonal, ///< r0 = c0: entries on or below the diagonal, for every k;
              ///< the slots above it (another column's entries, which no
              ///< term of this panel reaches) are stored back unchanged
    edge,     ///< row r takes term k only if r <= k + kd, i.e. L(r, k) is in band
};

#if defined(__GNUC__) || defined(__clang__)
/// One tile column: MV vectors of W rows.
template <std::size_t W, std::size_t MV>
struct TileCol {
    using V = typename RowVec<W>::type;
    V v0, v1;
};

template <std::size_t W, std::size_t MV>
[[gnu::always_inline]] inline TileCol<W, MV> load_col(const double* p) noexcept {
    using V = typename RowVec<W>::type;
    TileCol<W, MV> t{};
    t.v0 = *reinterpret_cast<const V*>(p);
    if constexpr (MV > 1) t.v1 = *reinterpret_cast<const V*>(p + W);
    return t;
}

/// Stores the column; a diagonal tile's column stores only its rows at
/// offset `first` or more, and the slots above keep their bits in memory.
template <Part part, std::size_t W, std::size_t MV>
[[gnu::always_inline]] inline void store_col(double* p, const TileCol<W, MV>& t,
                                             double first) noexcept {
    using V = typename RowVec<W>::type;
    const auto put = [&](V* q, const V& v, double off) {
        if constexpr (part == Part::diagonal)
            *q = RowVec<W>::lanes + off >= first ? v : *q;
        else
            *q = v;
    };
    put(reinterpret_cast<V*>(p), t.v0, 0);
    if constexpr (MV > 1) put(reinterpret_cast<V*>(p + W), t.v1, W);
}

/// t -= l * s entrywise, one rounded product and then one subtraction; an
/// edge tile keeps the result only in its rows at offset `last` or less.
template <Part part, std::size_t W, std::size_t MV>
[[gnu::always_inline]] inline void sub_col(TileCol<W, MV>& t, const TileCol<W, MV>& l, double s,
                                           double last) noexcept {
    using V = typename RowVec<W>::type;
    const auto sub = [&](V& acc, const V& x, double off) {
        if constexpr (part == Part::edge)
            acc = RowVec<W>::lanes + off <= last ? acc - x * s : acc;
        else
            acc -= x * s;
    };
    sub(t.v0, l.v0, 0);
    if constexpr (MV > 1) sub(t.v1, l.v1, W);
}
#endif

/// The Shape::rows x Shape::cols tile at rows [r0, r0 + rows), columns
/// [c0, c0 + cols) minus L(rows, k) L(cols, k) for k in [k0, k0 + nk), in
/// the entries and terms `part` selects.  The tile is loaded once into
/// named accumulators (an array of vectors indexed in a loop is spilled at
/// -O2), the k terms are applied in ascending order, and the tile is
/// stored once, so each entry sees the same rounding sequence as in
/// column_update.  A term that is not applied is computed and discarded.
template <typename Shape, Part part = Part::interior>
[[gnu::always_inline]] inline void tile_update(double* a, std::size_t kd, std::size_t r0,
                                               std::size_t c0, std::size_t k0,
                                               std::size_t nk) noexcept {
    constexpr std::size_t W = Shape::width, MV = Shape::mv, NR = Shape::cols;
#if defined(__GNUC__) || defined(__clang__)
    using Col = TileCol<W, MV>;
    double* t = a + r0 + c0 * kd; // column c0 + j of the tile starts at t + j * kd
    Col t0 = load_col<W, MV>(t), t1{}, t2{}, t3{}, t4{}, t5{}, t6{}, t7{};
    if constexpr (NR > 1) t1 = load_col<W, MV>(t + kd);
    if constexpr (NR > 2) t2 = load_col<W, MV>(t + 2 * kd);
    if constexpr (NR > 3) t3 = load_col<W, MV>(t + 3 * kd);
    if constexpr (NR > 4) t4 = load_col<W, MV>(t + 4 * kd);
    if constexpr (NR > 5) t5 = load_col<W, MV>(t + 5 * kd);
    if constexpr (NR > 6) t6 = load_col<W, MV>(t + 6 * kd);
    if constexpr (NR > 7) t7 = load_col<W, MV>(t + 7 * kd);
    const double* lk = a + k0 * kd;
    // Offset of the last row that term k reaches: k + kd - r0.
    double last = static_cast<double>(k0 + kd) - static_cast<double>(r0);
    for (std::size_t p = 0; p < nk; ++p, lk += kd, ++last) {
        const Col l = load_col<W, MV>(lk + r0);
        const double* s = lk + c0;
        sub_col<part>(t0, l, s[0], last);
        if constexpr (NR > 1) sub_col<part>(t1, l, s[1], last);
        if constexpr (NR > 2) sub_col<part>(t2, l, s[2], last);
        if constexpr (NR > 3) sub_col<part>(t3, l, s[3], last);
        if constexpr (NR > 4) sub_col<part>(t4, l, s[4], last);
        if constexpr (NR > 5) sub_col<part>(t5, l, s[5], last);
        if constexpr (NR > 6) sub_col<part>(t6, l, s[6], last);
        if constexpr (NR > 7) sub_col<part>(t7, l, s[7], last);
    }
    store_col<part>(t, t0, 0);
    if constexpr (NR > 1) store_col<part>(t + kd, t1, 1);
    if constexpr (NR > 2) store_col<part>(t + 2 * kd, t2, 2);
    if constexpr (NR > 3) store_col<part>(t + 3 * kd, t3, 3);
    if constexpr (NR > 4) store_col<part>(t + 4 * kd, t4, 4);
    if constexpr (NR > 5) store_col<part>(t + 5 * kd, t5, 5);
    if constexpr (NR > 6) store_col<part>(t + 6 * kd, t6, 6);
    if constexpr (NR > 7) store_col<part>(t + 7 * kd, t7, 7);
#else
    for (std::size_t j = 0; j < NR; ++j) {
        const std::size_t c = c0 + j;
        const std::size_t rlo = part == Part::diagonal ? std::max(r0, c) : r0;
        column_update(a, kd, c, rlo, r0 + Shape::rows - 1, k0, k0 + nk);
    }
#endif
}

/// Factors the band in place with the given tile shape; returns the column
/// of the first non-positive (or non-finite) pivot, or n on success.
/// `flops` gets the plain column sweep's count for the columns factored.
template <typename Shape>
[[gnu::always_inline]] inline std::size_t factor_tiled(double* a, std::size_t n, std::size_t kd,
                                                       double pivot_floor,
                                                       std::size_t& flops) noexcept {
    constexpr std::size_t NR = Shape::cols;
    using Short = TileShape<Shape::width, 1, NR>; // one vector of rows
    for (std::size_t j0 = 0; j0 < n; j0 += kNB) {
        const std::size_t j1 = std::min(n, j0 + kNB);
        // Panel: left-looking within [j0, j1); earlier panels are applied.
        for (std::size_t c = j0; c < j1; ++c) {
            const std::size_t imax = std::min(kd, n - 1 - c);
            column_update(a, kd, c, c, c + imax, j0, c);
            double* ac = a + c * kd;
            const double d = ac[c];
            if (d <= pivot_floor || !std::isfinite(d)) return c;
            const double lcc = std::sqrt(d);
            ac[c] = lcc;
            const double inv = 1.0 / lcc;
            for (std::size_t r = c + 1; r <= c + imax; ++r) ac[r] *= inv;
            flops += imax + 2 + imax * (imax + 1); // pivot + scaling, rank-1 update
        }
        // Trailing update of the columns the panel reaches: [j1, j1 + kd).
        if (j1 == n) break;
        const std::size_t nk = j1 - j0;
        const std::size_t cend = std::min(n, j1 + kd);
        const std::size_t rmax = std::min(n - 1, j1 - 1 + kd); // last row any k reaches
        const std::size_t rfull = std::min(rmax, j0 + kd);     // last row all k reach
        for (std::size_t c0 = j1; c0 < cend; c0 += NR) {
            const std::size_t nc = std::min(NR, cend - c0);
            std::size_t r = c0 + nc; // first row below the block's diagonal triangle
            if (nc == NR && Shape::rows >= NR && c0 + Shape::rows - 1 <= rfull) {
                tile_update<Shape, Part::diagonal>(a, kd, c0, c0, j0, nk);
                r = c0 + Shape::rows;
            } else {
                for (std::size_t c = c0; c < c0 + nc; ++c)
                    column_update(a, kd, c, c, c0 + nc - 1, j0, j1);
            }
            if (nc == NR) {
                for (; r + Shape::rows - 1 <= rfull; r += Shape::rows)
                    tile_update<Shape>(a, kd, r, c0, j0, nk);
                if constexpr (Shape::mv > 1)
                    for (; r + Short::rows - 1 <= rfull; r += Short::rows)
                        tile_update<Short>(a, kd, r, c0, j0, nk);
                // Rows past rfull, where the early k fall out of band.
                for (; r + Shape::rows - 1 <= rmax; r += Shape::rows)
                    tile_update<Shape, Part::edge>(a, kd, r, c0, j0, nk);
                for (; r + Short::rows - 1 <= rmax; r += Short::rows)
                    tile_update<Short, Part::edge>(a, kd, r, c0, j0, nk);
            }
            for (std::size_t c = c0; c < c0 + nc; ++c) column_update(a, kd, c, r, rmax, j0, j1);
        }
    }
    return n;
}

/// factor_tiled with the tile shape of ISA level `isa`, in one function per
/// clone.  Only speed depends on the shape; every shape applies the same
/// operations to every entry.
REPRO_MULTIVERSION
std::size_t factor_band(double* a, std::size_t n, std::size_t kd, double pivot_floor,
                        std::size_t& flops, blaslite::IsaLevel isa) noexcept {
    switch (isa) {
        case blaslite::IsaLevel::v4: return factor_tiled<TallTile>(a, n, kd, pivot_floor, flops);
        case blaslite::IsaLevel::v3: return factor_tiled<Avx2Tile>(a, n, kd, pivot_floor, flops);
        default: return factor_tiled<BaseTile>(a, n, kd, pivot_floor, flops);
    }
}

/// Forward and back substitution for K right-hand sides at once, each b[q]
/// of length n and disjoint from the others.  Per right-hand side the
/// operations and their order are those of a single sweep; the K sweeps
/// share each column of L while it is in cache, and the K back-substitution
/// dot products run as independent dependence chains.
template <std::size_t K>
[[gnu::always_inline]] inline void substitute(const double* l, std::size_t n, std::size_t kd,
                                              double* const* b) noexcept {
    // Forward: L y = b.
    for (std::size_t j = 0; j < n; ++j) {
        const double* lj = l + j * kd;
        const std::size_t imax = std::min(kd, n - 1 - j);
        for (std::size_t q = 0; q < K; ++q) {
            const double yj = b[q][j] / lj[j];
            b[q][j] = yj;
            sub_scaled(b[q] + j + 1, lj + j + 1, yj, imax);
        }
    }
    // Backward: L^T x = y.
    for (std::size_t j = n; j-- > 0;) {
        const double* lj = l + j * kd;
        const std::size_t imax = std::min(kd, n - 1 - j);
        double s[K];
        for (std::size_t q = 0; q < K; ++q) s[q] = b[q][j];
        for (std::size_t r = j + 1; r <= j + imax; ++r) {
            const double v = lj[r];
            for (std::size_t q = 0; q < K; ++q) s[q] -= v * b[q][r];
        }
        for (std::size_t q = 0; q < K; ++q) b[q][j] = s[q] / lj[j];
    }
}

REPRO_MULTIVERSION
void substitute_one(const double* l, std::size_t n, std::size_t kd, double* b) noexcept {
    substitute<1>(l, n, kd, &b);
}

REPRO_MULTIVERSION
void substitute_two(const double* l, std::size_t n, std::size_t kd, double* const* b) noexcept {
    substitute<2>(l, n, kd, b);
}

#if defined(__GNUC__) || defined(__clang__)
/// Forward and back substitution for W right-hand sides packed row by row:
/// x[r * W + q] is row r of right-hand side q.  Lane q applies exactly
/// substitute<1>'s operations to right-hand side q, in its order; the W
/// lanes share one load of each L entry, and the back substitution's W dot
/// products advance together as one vector dependence chain.
template <std::size_t W>
[[gnu::always_inline]] inline void substitute_lanes(const double* l, std::size_t n,
                                                    std::size_t kd, double* x) noexcept {
    using V = typename RowVec<W>::type;
    V* const row = reinterpret_cast<V*>(x); // element-aligned, like the tiles'
    // Forward: L y = b.
    for (std::size_t j = 0; j < n; ++j) {
        const double* lj = l + j * kd;
        const std::size_t imax = std::min(kd, n - 1 - j);
        const V y = row[j] / lj[j];
        row[j] = y;
        for (std::size_t r = j + 1; r <= j + imax; ++r) row[r] -= lj[r] * y;
    }
    // Backward: L^T x = y.
    for (std::size_t j = n; j-- > 0;) {
        const double* lj = l + j * kd;
        const std::size_t imax = std::min(kd, n - 1 - j);
        V s = row[j];
        for (std::size_t r = j + 1; r <= j + imax; ++r) s -= lj[r] * row[r];
        row[j] = s / lj[j];
    }
}

REPRO_MULTIVERSION
void substitute_four(const double* l, std::size_t n, std::size_t kd, double* x) noexcept {
    substitute_lanes<4>(l, n, kd, x);
}

REPRO_MULTIVERSION
void substitute_eight(const double* l, std::size_t n, std::size_t kd, double* x) noexcept {
    substitute_lanes<8>(l, n, kd, x);
}
#endif

} // namespace

bool BandedCholesky::factor(SymBandedMatrix a) {
    n_ = a.n_;
    kd_ = a.kd_;
    band_ = std::move(a.band_);

    // Relative pivot threshold: a numerically singular matrix (e.g. an
    // all-Neumann Laplacian) must fail loudly rather than factor with a
    // roundoff-sized pivot.
    double scale = 0.0;
    for (std::size_t j = 0; j < n_; ++j) scale = std::max(scale, band_[j * (kd_ + 1)]);
    const double pivot_floor = 1e-12 * scale;

    std::size_t flops = 0;
    if (factor_band(band_.data(), n_, kd_, pivot_floor, flops, blaslite::isa_level()) != n_) {
        n_ = 0;
        return false;
    }
    blaslite::detail::charge(flops, band_.size() * sizeof(double),
                             band_.size() * sizeof(double));
    return true;
}

void BandedCholesky::solve(std::span<double> b) const {
    solve(std::span<const std::span<double>>(&b, 1));
}

void BandedCholesky::solve(std::span<const std::span<double>> rhs) const {
    assert(factored() && std::all_of(rhs.begin(), rhs.end(),
                                     [&](std::span<double> b) { return b.size() == n_; }));
    std::size_t q = 0;
#if defined(__GNUC__) || defined(__clang__)
    // Three or more: W = 4 or 8 lanes per sweep, unused lanes zero.  One or
    // two left over take the pair and single sweeps, which are faster there.
    if (rhs.size() >= 3) {
        parallel::Scratch x(n_ * 8);
        while (rhs.size() - q >= 3) {
            const std::size_t w = rhs.size() - q <= 4 ? 4 : 8;
            const std::size_t k = std::min(w, rhs.size() - q);
            for (std::size_t r = 0; r < n_; ++r)
                for (std::size_t i = 0; i < w; ++i) x[r * w + i] = i < k ? rhs[q + i][r] : 0.0;
            (w == 4 ? substitute_four : substitute_eight)(band_.data(), n_, kd_, x.data());
            for (std::size_t i = 0; i < k; ++i)
                for (std::size_t r = 0; r < n_; ++r) rhs[q + i][r] = x[r * w + i];
            q += k;
        }
    }
#endif
    for (; q + 2 <= rhs.size(); q += 2) {
        double* const pair[2] = {rhs[q].data(), rhs[q + 1].data()};
        substitute_two(band_.data(), n_, kd_, pair);
    }
    if (q < rhs.size()) substitute_one(band_.data(), n_, kd_, rhs[q].data());
    // One single-solve charge per right-hand side.
    for (std::size_t i = 0; i < rhs.size(); ++i)
        blaslite::detail::charge(solve_flops(), (kd_ + 1) * n_ * sizeof(double) * 2,
                                 2 * n_ * sizeof(double));
}

} // namespace la
