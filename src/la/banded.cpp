#include "la/banded.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
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
// Factor and solves.  The band buffer holds column j's band contiguously, so
// the in-band entry (r, c), r >= c, is a[r + c * kd] for both A and L.
//
// Bit-identity contract: every entry A(r, c) receives its updates
// A(r, c) -= L(r, k) * L(c, k) one k at a time in ascending k, each product
// rounded before the subtraction (banded.cpp is compiled without FP
// contraction), exactly as the plain right-looking column sweep over the
// full band does; only the order in which *different* entries are updated
// changes.
//
// The envelope.  first(r) is the first column whose stored A(r, c) is not
// +0 bitwise (a -0 counts as stored).  L(r, c) = +0 for c < first(r): the
// column sweep only ever subtracts zero products from a +0 there, which
// leaves +0.  So every term k < max(first(r), first(c)) of entry (r, c)
// subtracts an exact zero, and those terms come first in ascending k.
// For finite data, leaving them out changes no bit unless the entry is
// still -0 then (x - -0 turns -0 into +0), so the scan widens both rows of
// every stored -0 to the full band.  Forming a term the column sweep forms is always exact: the
// kernels may also sweep rows outside the envelope (the zero products of a
// tile's or a run's other rows), but never a term outside the band.
//
// The solves leave out the same zeros: the forward sweep the columns before
// first(r) of row r, the back sweep the rows of column j outside its runs.
// Those matter only to a chain that is still -0, and a right-hand side or
// intermediate -0 sends the sweep through substitute()'s exact fix-ups.
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kNB = 32; ///< panel width (columns per panel)
constexpr std::size_t kMR = 8;  ///< rows of one vector of sub_scaled and the scans
/// Rows outside the envelope a run of L bridges (stored as their +0 and
/// swept, which is exact) rather than start a new run.
constexpr std::size_t kGap = 3;
constexpr std::uint64_t kNegZeroBits = 0x8000000000000000ull;

[[nodiscard]] inline bool is_negative_zero(double v) noexcept {
    return std::bit_cast<std::uint64_t>(v) == kNegZeroBits;
}

/// First column of row r's band.
[[nodiscard]] inline std::size_t band_start(std::size_t r, std::size_t kd) noexcept {
    return r > kd ? r - kd : 0;
}

using blaslite::Lanes;
/// The bits of one Lanes<kMR>, to find -0s: loaded like it, straight from
/// the band buffer and the right-hand sides.
typedef std::uint64_t BitVec
    __attribute__((vector_size(kMR * sizeof(double)), aligned(alignof(double)), may_alias));

/// y[i] -= x[i] * s for i in [0, len), x and y disjoint: one rounded
/// product and one subtraction per entry, kMR entries per vector step.
/// (Spelled out because GCC's -O2 cost model leaves this loop scalar.)
[[gnu::always_inline]] inline void sub_scaled(double* y, const double* x, double s,
                                              std::size_t len) noexcept {
    using V = Lanes<kMR>::type;
    std::size_t i = 0;
    for (; i + kMR <= len; i += kMR)
        *reinterpret_cast<V*>(y + i) -= *reinterpret_cast<const V*>(x + i) * s;
    for (; i < len; ++i) y[i] -= x[i] * s;
}

/// Whether any of x[0, len) is -0.  Cloned: the baseline ISA has no 64-bit
/// integer compare, and the sweeps check every right-hand side twice.
REPRO_MULTIVERSION
bool any_negative_zero(const double* x, std::size_t len) noexcept {
    std::size_t i = 0;
    bool hit = false;
    BitVec acc{};
    for (; i + kMR <= len; i += kMR)
        acc |= *reinterpret_cast<const BitVec*>(x + i) == kNegZeroBits;
    for (std::size_t l = 0; l < kMR; ++l) hit |= acc[l] != 0;
    for (; i < len; ++i) hit |= is_negative_zero(x[i]);
    return hit;
}

/// Register tile shape: MV vectors of W rows (W * MV rows) by NR columns.
template <std::size_t W, std::size_t MV, std::size_t NR>
struct TileShape {
    static_assert(MV >= 1 && MV <= 2 && NR >= 1 && NR <= 8);
    static constexpr std::size_t width = W, mv = MV, rows = W * MV, cols = NR;
};

/// The shapes, one per ISA level: MV * NR accumulators, MV vectors of an L
/// column and a broadcast fit the register file, each vector Lanes<W> in
/// its clone's native width (xmm, ymm, zmm).  x86-64-v4 has 32 zmm:
/// 16 x 8 takes 16 accumulators.  x86-64-v3 and baseline x86-64 have 16 ymm
/// or xmm: 12 accumulators, 8 x 6 or 4 x 6 rows by columns.
using TallTile = TileShape<8, 2, 8>;
using Avx2Tile = TileShape<4, 2, 6>;
using BaseTile = TileShape<2, 2, 6>;

/// One tile column: MV vectors of W rows.
template <std::size_t W, std::size_t MV>
struct TileCol {
    using V = typename Lanes<W>::type;
    V v0, v1;
};

template <std::size_t W, std::size_t MV>
[[gnu::always_inline]] inline TileCol<W, MV> load_col(const double* p) noexcept {
    using V = typename Lanes<W>::type;
    TileCol<W, MV> t{};
    t.v0 = *reinterpret_cast<const V*>(p);
    if constexpr (MV > 1) t.v1 = *reinterpret_cast<const V*>(p + W);
    return t;
}

/// Stores the column; a diagonal tile's column stores only its rows at
/// offset `first` or more, and the slots above keep their bits in memory.
template <bool Diag, std::size_t W, std::size_t MV>
[[gnu::always_inline]] inline void store_col(double* p, const TileCol<W, MV>& t,
                                             double first) noexcept {
    using V = typename Lanes<W>::type;
    const auto put = [&](V* q, const V& v, double off) {
        if constexpr (Diag)
            *q = blaslite::lane_index<W> + off >= first ? v : *q;
        else
            *q = v;
    };
    put(reinterpret_cast<V*>(p), t.v0, 0);
    if constexpr (MV > 1) put(reinterpret_cast<V*>(p + W), t.v1, W);
}

/// t -= l * s entrywise, one rounded product and then one subtraction; an
/// edge tile keeps the result only in the rows whose envelope holds term
/// k, first(r) <= k (`fv` holds the rows' first(r)).
template <bool Edge, std::size_t W, std::size_t MV>
[[gnu::always_inline]] inline void sub_col(TileCol<W, MV>& t, const TileCol<W, MV>& l, double s,
                                           double k, const TileCol<W, MV>& fv) noexcept {
    using V = typename Lanes<W>::type;
    const auto sub = [&](V& acc, const V& x, const V& f) {
        if constexpr (Edge)
            acc = f <= k ? acc - x * s : acc;
        else
            acc -= x * s;
    };
    sub(t.v0, l.v0, fv.v0);
    if constexpr (MV > 1) sub(t.v1, l.v1, fv.v1);
}

/// The Shape::rows x Shape::cols tile at rows [r0, r0 + rows) of columns
/// cols[0], cols[1], ... minus L(rows, k) L(cols, k) for k in [k0, k0 + nk):
/// s points at L(cols, k0), one value per column, and each next k's values
/// are ld further on.  A diagonal tile (cols = r0, r0 + 1, ...) stores only
/// its entries on or below the diagonal; an edge tile applies term k only
/// to the rows with first(r) <= k (firstd holds first(r) as doubles).  The
/// tile is loaded once into named accumulators (an array of vectors indexed
/// in a loop is spilled at -O2), the k terms are applied in ascending order,
/// and the tile is stored once, so each entry sees the same rounding
/// sequence as in the column sweep.  A term that is not applied is computed
/// and discarded.
template <typename Shape, bool Diag, bool Edge>
[[gnu::always_inline]] inline void tile_update(double* a, std::size_t kd, std::size_t r0,
                                               const std::uint32_t* cols, const double* s,
                                               std::size_t ld, std::size_t k0, std::size_t nk,
                                               const double* firstd) noexcept {
    constexpr std::size_t W = Shape::width, MV = Shape::mv, NR = Shape::cols;
    using Col = TileCol<W, MV>;
    double* const t = a + r0; // column c of the tile starts at t + c * kd
    Col t0 = load_col<W, MV>(t + cols[0] * kd), t1{}, t2{}, t3{}, t4{}, t5{}, t6{}, t7{};
    if constexpr (NR > 1) t1 = load_col<W, MV>(t + cols[1] * kd);
    if constexpr (NR > 2) t2 = load_col<W, MV>(t + cols[2] * kd);
    if constexpr (NR > 3) t3 = load_col<W, MV>(t + cols[3] * kd);
    if constexpr (NR > 4) t4 = load_col<W, MV>(t + cols[4] * kd);
    if constexpr (NR > 5) t5 = load_col<W, MV>(t + cols[5] * kd);
    if constexpr (NR > 6) t6 = load_col<W, MV>(t + cols[6] * kd);
    if constexpr (NR > 7) t7 = load_col<W, MV>(t + cols[7] * kd);
    Col fv{};
    if constexpr (Edge) fv = load_col<W, MV>(firstd + r0);
    const double* lk = t + k0 * kd;
    double k = static_cast<double>(k0);
    for (std::size_t p = 0; p < nk; ++p, lk += kd, s += ld, ++k) {
        const Col l = load_col<W, MV>(lk);
        sub_col<Edge>(t0, l, s[0], k, fv);
        if constexpr (NR > 1) sub_col<Edge>(t1, l, s[1], k, fv);
        if constexpr (NR > 2) sub_col<Edge>(t2, l, s[2], k, fv);
        if constexpr (NR > 3) sub_col<Edge>(t3, l, s[3], k, fv);
        if constexpr (NR > 4) sub_col<Edge>(t4, l, s[4], k, fv);
        if constexpr (NR > 5) sub_col<Edge>(t5, l, s[5], k, fv);
        if constexpr (NR > 6) sub_col<Edge>(t6, l, s[6], k, fv);
        if constexpr (NR > 7) sub_col<Edge>(t7, l, s[7], k, fv);
    }
    store_col<Diag>(t + cols[0] * kd, t0, 0);
    if constexpr (NR > 1) store_col<Diag>(t + cols[1] * kd, t1, 1);
    if constexpr (NR > 2) store_col<Diag>(t + cols[2] * kd, t2, 2);
    if constexpr (NR > 3) store_col<Diag>(t + cols[3] * kd, t3, 3);
    if constexpr (NR > 4) store_col<Diag>(t + cols[4] * kd, t4, 4);
    if constexpr (NR > 5) store_col<Diag>(t + cols[5] * kd, t5, 5);
    if constexpr (NR > 6) store_col<Diag>(t + cols[6] * kd, t6, 6);
    if constexpr (NR > 7) store_col<Diag>(t + cols[7] * kd, t7, 7);
}

/// A(r, c) -= L(r, k) L(c, k) for k in [k0, k1) ascending, s pointing at
/// L(c, k0) and each next k's value ld further on.
inline void entry_update(double* a, std::size_t kd, std::size_t r, std::size_t c,
                         const double* s, std::size_t ld, std::size_t k0,
                         std::size_t k1) noexcept {
    double x = a[r + c * kd];
    for (std::size_t k = k0; k < k1; ++k, s += ld) x -= a[r + k * kd] * *s;
    a[r + c * kd] = x;
}

/// The envelope as the factor reads it: first(r), as integers and as
/// doubles (the tiles' lane masks), and column j's envelope rows below the
/// diagonal as runs, rows run_row[t] .. run_row[t] + run_len[t] - 1 for t
/// in [col[j], col[j + 1]).  The factor writes L(j, j) to diag[j] and the
/// runs' values, run after run, to val from val[vcol[j]] on.
struct Envelope {
    const std::uint32_t* first;
    const double* firstd;
    const std::size_t* col;
    const std::uint32_t* run_row;
    const std::uint32_t* run_len;
    const std::size_t* vcol;
    double* diag;
    double* val;
};

/// One panel, columns [j0, j1), on the rows it reaches: view row i is band
/// row rows[i] (the panel's own rows j0 .. j1 - 1 first, then every later
/// row with first(r) < j1, in order) and view column q is band column
/// j0 + q, entry (i, q) at v[i + q * ld].  The band itself when the rows
/// are contiguous, else a packed copy.  reach[q] counts the view rows in
/// column j0 + q's band.
struct Panel {
    std::size_t j0, j1;
    const std::uint32_t* rows;
    std::size_t nrows;
    double* v;
    std::size_t ld;
    const std::size_t* reach;
};

/// Left-looking factor of the panel's columns, every earlier panel's terms
/// already applied; returns the first column with a non-positive (or
/// non-finite) pivot, or j1.  `flops` gets the full band's column sweep
/// count for the columns factored.
[[gnu::always_inline]] inline std::size_t panel_factor(const Panel& p, std::size_t n,
                                                       std::size_t kd,
                                                       const std::uint32_t* first,
                                                       double pivot_floor,
                                                       std::size_t& flops) noexcept {
    for (std::size_t q = 0; q < p.j1 - p.j0; ++q) {
        const std::size_t c = p.j0 + q;
        double* vc = p.v + q * p.ld;
        // L(c, k) = +0 for k < first(c): those terms subtract zeros.
        for (std::size_t k = first[c] > p.j0 ? first[c] - p.j0 : 0; k < q; ++k) {
            const double* vk = p.v + k * p.ld;
            if (p.reach[k] > q) sub_scaled(vc + q, vk + q, vk[q], p.reach[k] - q);
        }
        const double d = vc[q];
        if (d <= pivot_floor || !std::isfinite(d)) return c;
        const double lcc = std::sqrt(d);
        vc[q] = lcc;
        const double inv = 1.0 / lcc;
        for (std::size_t i = q + 1; i < p.reach[q]; ++i) vc[i] *= inv;
        const std::size_t imax = std::min(kd, n - 1 - c);
        flops += imax + 2 + imax * (imax + 1); // pivot + scaling, rank-1 update
    }
    return p.j1;
}

/// One tile of the trailing update at rows [r0, r0 + S::rows) of `cols`:
/// its terms start at the first k that reaches one of its rows and (kc)
/// one of its columns, and it masks by row only when some row's envelope
/// starts later still.
template <typename S, bool Diag>
[[gnu::always_inline]] inline void trailing_tile(double* a, std::size_t kd, const Panel& p,
                                                 const std::uint32_t* cols, std::size_t kc,
                                                 std::size_t r0, const Envelope& e) noexcept {
    std::size_t lo = p.j1, hi = 0;
    for (std::size_t r = r0; r < r0 + S::rows; ++r) {
        lo = std::min<std::size_t>(lo, e.first[r]);
        hi = std::max<std::size_t>(hi, e.first[r]);
    }
    const std::size_t k0 = std::max(kc, lo);
    const double* s = p.v + (cols - p.rows) + (k0 - p.j0) * p.ld;
    if (hi <= k0)
        tile_update<S, Diag, false>(a, kd, r0, cols, s, p.ld, k0, p.j1 - k0, e.firstd);
    else
        tile_update<S, Diag, true>(a, kd, r0, cols, s, p.ld, k0, p.j1 - k0, e.firstd);
}

/// Entry (r, cols[j]) of the trailing update, term by term.
inline void trailing_entry(double* a, std::size_t kd, const Panel& p, const std::uint32_t* cols,
                           std::size_t j, std::size_t r, const Envelope& e) noexcept {
    const std::size_t k0 = std::max({p.j0, std::size_t{e.first[r]}, std::size_t{e.first[cols[j]]}});
    if (k0 < p.j1)
        entry_update(a, kd, r, cols[j], p.v + (cols - p.rows) + j + (k0 - p.j0) * p.ld, p.ld, k0,
                     p.j1);
}

/// The panel's terms applied to every later entry they reach: the entries
/// of the panel's trailing rows, in column blocks of Shape::cols of those
/// rows and row tiles that start at a reached row.
template <typename Shape>
[[gnu::always_inline]] inline void trailing_update(double* a, std::size_t kd, const Panel& p,
                                                   const Envelope& e) noexcept {
    using Short = TileShape<Shape::width, 1, Shape::cols>; // one vector of rows
    constexpr std::size_t NR = Shape::cols;
    const std::size_t m = p.nrows, rmax = p.rows[m - 1];
    for (std::size_t b = p.j1 - p.j0; b < m; b += NR) {
        const std::size_t nc = std::min(NR, m - b);
        const std::uint32_t* cols = p.rows + b;
        std::size_t kc = p.j1;
        for (std::size_t j = 0; j < nc; ++j) kc = std::min<std::size_t>(kc, e.first[cols[j]]);
        kc = std::max(kc, p.j0);
        const std::size_t c0 = cols[0];
        std::size_t r; // the rows before r are done
        if (nc == NR && cols[NR - 1] == c0 + NR - 1 && Shape::rows >= NR &&
            c0 + Shape::rows - 1 <= rmax) {
            trailing_tile<Shape, true>(a, kd, p, cols, kc, c0, e);
            r = c0 + Shape::rows;
        } else {
            for (std::size_t j = 0; j < nc; ++j)
                for (std::size_t i = j; i < nc; ++i) trailing_entry(a, kd, p, cols, j, cols[i], e);
            r = cols[nc - 1] + 1;
        }
        for (std::size_t i = b + nc;;) {
            while (i < m && p.rows[i] < r) ++i;
            if (i == m) break;
            const std::size_t r0 = p.rows[i];
            bool tall = r0 + Shape::rows - 1 <= rmax;
            if constexpr (Shape::mv > 1) {
                // A tall tile only if its lower half holds a reached row.
                std::size_t i2 = i;
                while (tall && i2 < m && p.rows[i2] < r0 + Short::rows) ++i2;
                tall = tall && i2 < m && p.rows[i2] < r0 + Shape::rows;
            }
            if (tall) {
                trailing_tile<Shape, false>(a, kd, p, cols, kc, r0, e);
                r = r0 + Shape::rows;
            } else if (r0 + Short::rows - 1 <= rmax) {
                trailing_tile<Short, false>(a, kd, p, cols, kc, r0, e);
                r = r0 + Short::rows;
            } else {
                for (; i < m; ++i)
                    for (std::size_t j = 0; j < nc; ++j)
                        trailing_entry(a, kd, p, cols, j, p.rows[i], e);
                break;
            }
        }
    }
}

/// Factors the band in place inside the envelope with the given tile shape;
/// returns the column of the first non-positive (or non-finite) pivot, or n
/// on success.  `flops` gets the full band's column sweep count for the
/// columns factored.
template <typename Shape>
[[gnu::always_inline]] inline std::size_t factor_tiled(double* a, std::size_t n, std::size_t kd,
                                                       const Envelope& e, double pivot_floor,
                                                       std::size_t& flops) {
    std::vector<std::uint32_t> rows;
    std::size_t reach[kNB];
    for (std::size_t j0 = 0; j0 < n; j0 += kNB) {
        const std::size_t j1 = std::min(n, j0 + kNB), nk = j1 - j0;
        rows.clear();
        for (std::size_t c = j0; c < j1; ++c) rows.push_back(static_cast<std::uint32_t>(c));
        for (std::size_t t = e.col[j1 - 1]; t < e.col[j1]; ++t)
            for (std::uint32_t i = 0; i < e.run_len[t]; ++i) rows.push_back(e.run_row[t] + i);
        const std::size_t m = rows.size();
        for (std::size_t q = 0, i = 0; q < nk; ++q) {
            while (i < m && rows[i] <= j0 + q + kd) ++i;
            reach[q] = i;
        }
        Panel p{j0, j1, rows.data(), m, a + j0 * (kd + 1), kd, reach};
        const bool packed = rows[m - 1] - j0 + 1 != m;
        parallel::Scratch buf(packed ? m * nk : 0);
        if (packed) {
            p.v = buf.data();
            p.ld = m;
            for (std::size_t q = 0; q < nk; ++q)
                for (std::size_t i = 0; i < m; ++i)
                    p.v[i + q * m] = i >= q && i < reach[q] ? a[(j0 + q) * kd + rows[i]] : 0.0;
        }
        const std::size_t failed = panel_factor(p, n, kd, e.first, pivot_floor, flops);
        if (failed != j1) return failed;
        if (packed)
            for (std::size_t q = 0; q < nk; ++q)
                for (std::size_t i = q; i < reach[q]; ++i)
                    a[(j0 + q) * kd + rows[i]] = p.v[i + q * m];
        // The panel's columns of L are final: keep them.
        for (std::size_t c = j0; c < j1; ++c) {
            e.diag[c] = a[c * (kd + 1)];
            if (e.val == nullptr) continue;
            double* v = e.val + e.vcol[c];
            for (std::size_t t = e.col[c]; t < e.col[c + 1]; v += e.run_len[t++])
                std::memcpy(v, a + c * kd + e.run_row[t], e.run_len[t] * sizeof(double));
        }
        if (m > nk) trailing_update<Shape>(a, kd, p, e);
    }
    return n;
}

/// factor_tiled with the tile shape of ISA level `isa`, in one function per
/// clone.  Only speed depends on the shape; every shape applies the same
/// operations to every entry.
REPRO_MULTIVERSION
std::size_t factor_band(double* a, std::size_t n, std::size_t kd, const Envelope& e,
                        double pivot_floor, std::size_t& flops, blaslite::IsaLevel isa) {
    switch (isa) {
        case blaslite::IsaLevel::v4: return factor_tiled<TallTile>(a, n, kd, e, pivot_floor, flops);
        case blaslite::IsaLevel::v3: return factor_tiled<Avx2Tile>(a, n, kd, e, pivot_floor, flops);
        default: return factor_tiled<BaseTile>(a, n, kd, e, pivot_floor, flops);
    }
}

/// first(r) of every row, as a double: the first column c whose stored
/// A(r, c) is not +0 bitwise, r if none.  Returns whether some stored entry
/// below the diagonal is -0.
REPRO_MULTIVERSION
bool scan_envelope(const double* a, std::size_t n, std::size_t kd, double* first) noexcept {
    for (std::size_t r = 0; r < n; ++r) first[r] = static_cast<double>(r);
    bool negative_zero = false;
    BitVec neg{};
    for (std::size_t c = 0; c < n; ++c) {
        const double* col = a + c * kd;
        const double cd = static_cast<double>(c);
        const std::size_t end = std::min(n - 1, c + kd) + 1;
        const auto scalar = [&](std::size_t r) {
            const auto bits = std::bit_cast<std::uint64_t>(col[r]);
            if (bits != 0 && cd < first[r]) first[r] = cd;
            negative_zero |= bits == kNegZeroBits;
        };
        std::size_t r = c + 1;
        // Vectors at the same rows in every column, so each load of first
        // meets the previous column's store whole.
        for (; r < end && r % kMR != 0; ++r) scalar(r);
        using V = Lanes<kMR>::type;
        const V cv = V{} + cd;
        for (; r + kMR <= end; r += kMR) {
            const V v = *reinterpret_cast<const V*>(col + r);
            V& f = *reinterpret_cast<V*>(first + r);
            // Two selects: GCC scalarizes a select on a combined mask.  A
            // -0 (!= 0.0 is false) is caught by `neg` and widened later.
            const V g = v != 0.0 ? cv : f;
            f = g < f ? g : f;
            neg |= *reinterpret_cast<const BitVec*>(col + r) == kNegZeroBits;
        }
        for (; r < end; ++r) scalar(r);
    }
    for (std::size_t l = 0; l < kMR; ++l) negative_zero |= neg[l] != 0;
    return negative_zero;
}

/// L as the sweeps read it (see BandedCholesky's members).
struct LView {
    std::size_t n, kd;
    const std::uint32_t* first;
    const double* diag;
    const std::size_t* col;
    const std::size_t* vcol;
    const std::uint32_t* run_row;
    const std::uint32_t* run_len;
    const double* val;
};

/// Columns [jb, je) of the forward substitution L y = b or, in descending
/// order, of the back substitution L^T x = y, for K right-hand sides b[q]
/// of length n, disjoint from each other.  Per right-hand side the
/// operations and their order are those of the column sweep; the K sweeps
/// share each run of L while it is in cache, and the K back-substitution
/// dot products run as independent dependence chains.
template <std::size_t K>
[[gnu::always_inline]] inline void sweep_columns(const LView& L, std::size_t jb, std::size_t je,
                                                 bool forward, double* const* b) noexcept {
    // Locals, not L's fields: the vector stores may alias any memory.
    const double *const diag = L.diag, *const val = L.val;
    const std::size_t *const col = L.col, *const vcol = L.vcol;
    const std::uint32_t *const run_row = L.run_row, *const run_len = L.run_len;
    if (forward) {
        for (std::size_t j = jb; j < je; ++j) {
            double y[K];
            for (std::size_t q = 0; q < K; ++q) b[q][j] = y[q] = b[q][j] / diag[j];
            const double* v = val + vcol[j];
            for (std::size_t t = col[j]; t < col[j + 1]; v += run_len[t++])
                for (std::size_t q = 0; q < K; ++q) sub_scaled(b[q] + run_row[t], v, y[q], run_len[t]);
        }
        return;
    }
    for (std::size_t j = je; j-- > jb;) {
        double s[K];
        for (std::size_t q = 0; q < K; ++q) s[q] = b[q][j];
        const double* v = val + vcol[j];
        for (std::size_t t = col[j]; t < col[j + 1]; v += run_len[t++])
            for (std::size_t i = 0; i < run_len[t]; ++i) {
                const double l = v[i];
                for (std::size_t q = 0; q < K; ++q) s[q] -= l * b[q][run_row[t] + i];
            }
        for (std::size_t q = 0; q < K; ++q) b[q][j] = s[q] / diag[j];
    }
}

REPRO_MULTIVERSION
void sweep_one(const LView& L, std::size_t jb, std::size_t je, bool forward,
               double* const* b) noexcept {
    sweep_columns<1>(L, jb, je, forward, b);
}

REPRO_MULTIVERSION
void sweep_two(const LView& L, std::size_t jb, std::size_t je, bool forward,
               double* const* b) noexcept {
    sweep_columns<2>(L, jb, je, forward, b);
}

/// sweep_columns for W right-hand sides packed row by row: x[r * W + q] is
/// row r of right-hand side q.  Lane q applies exactly sweep_columns<1>'s
/// operations to right-hand side q, in its order; the W lanes share one
/// load of each L entry, and the back substitution's W dot products advance
/// together as one vector dependence chain.
template <std::size_t W>
[[gnu::always_inline]] inline void sweep_lanes(const LView& L, std::size_t jb, std::size_t je,
                                               bool forward, double* x) noexcept {
    using V = typename Lanes<W>::type;
    V* const row = reinterpret_cast<V*>(x); // element-aligned, like the tiles'
    const double *const diag = L.diag, *const val = L.val;
    const std::size_t *const col = L.col, *const vcol = L.vcol;
    const std::uint32_t *const run_row = L.run_row, *const run_len = L.run_len;
    if (forward) {
        for (std::size_t j = jb; j < je; ++j) {
            const V y = row[j] / diag[j];
            row[j] = y;
            const double* v = val + vcol[j];
            for (std::size_t t = col[j]; t < col[j + 1]; v += run_len[t++]) {
                V* const rt = row + run_row[t];
                for (std::size_t i = 0; i < run_len[t]; ++i) rt[i] -= v[i] * y;
            }
        }
        return;
    }
    for (std::size_t j = je; j-- > jb;) {
        V s = row[j];
        const double* v = val + vcol[j];
        for (std::size_t t = col[j]; t < col[j + 1]; v += run_len[t++]) {
            const V* const rt = row + run_row[t];
            for (std::size_t i = 0; i < run_len[t]; ++i) s -= v[i] * rt[i];
        }
        row[j] = s / diag[j];
    }
}

REPRO_MULTIVERSION
void sweep_four(const LView& L, std::size_t jb, std::size_t je, bool forward,
                double* const* x) noexcept {
    sweep_lanes<4>(L, jb, je, forward, x[0]);
}

REPRO_MULTIVERSION
void sweep_eight(const LView& L, std::size_t jb, std::size_t je, bool forward,
                 double* const* x) noexcept {
    sweep_lanes<8>(L, jb, je, forward, x[0]);
}

/// The right-hand sides of one sweep and its kernel: k of them, entry
/// (r, q) at at[q][r * stride], stored as `blocks` contiguous blocks of
/// block_len values from at[0], at[1], ... (one W-lane block, or one block
/// per right-hand side).
struct Sweep {
    void (*kernel)(const LView&, std::size_t, std::size_t, bool, double* const*) noexcept;
    double* at[8];
    std::size_t k, stride, blocks, block_len;

    [[nodiscard]] double& operator()(std::size_t r, std::size_t q) const noexcept {
        return at[q][r * stride];
    }
    void run(const LView& L, std::size_t jb, std::size_t je, bool forward) const noexcept {
        kernel(L, jb, je, forward, at);
    }
    [[nodiscard]] bool any_negative_zero() const noexcept {
        bool hit = false;
        for (std::size_t i = 0; i < blocks; ++i) hit |= ::la::any_negative_zero(at[i], block_len);
        return hit;
    }
};

/// Back substitution column j on every right-hand side, term for term as
/// the kernels do it, then the terms its runs leave out where one matters:
/// a chain still at -0 turns +0 at the first x_r with its sign bit set
/// (-0 - (+0 * x_r) = +0).
void back_column(const LView& L, const Sweep& x, std::size_t j) noexcept {
    const std::size_t hi = std::min(L.n - 1, j + L.kd);
    for (std::size_t q = 0; q < x.k; ++q) {
        double s = x(j, q);
        const double* v = L.val + L.vcol[j];
        for (std::size_t t = L.col[j]; t < L.col[j + 1]; v += L.run_len[t++])
            for (std::size_t i = 0; i < L.run_len[t]; ++i) s -= v[i] * x(L.run_row[t] + i, q);
        if (is_negative_zero(s)) {
            std::size_t t = L.col[j];
            for (std::size_t r = j + 1; r <= hi; ++r) {
                while (t < L.col[j + 1] && r >= std::size_t{L.run_row[t]} + L.run_len[t]) ++t;
                const bool swept = t < L.col[j + 1] && r >= L.run_row[t];
                if (!swept && std::signbit(x(r, q))) {
                    s = 0.0;
                    break;
                }
            }
        }
        x(j, q) = s / L.diag[j];
    }
}

/// Forward then back substitution.  Without a -0 in b or y (the common
/// case, checked in one pass each) the kernels run once over all columns.
/// Otherwise the sweeps stop where a left-out zero term could turn a -0
/// into +0: before column first(r) of a row r whose b_r is -0, to replay
/// its left-out terms (-0 - (+0 * y_c) for c < first(r)), and at each
/// column whose y_j is -0, which back_column takes.
void substitute(const LView& L, const Sweep& x) {
    struct Replay {
        std::size_t col, row, lane;
    };
    std::vector<Replay> replays;
    if (x.any_negative_zero())
        for (std::size_t q = 0; q < x.k; ++q)
            for (std::size_t r = 0; r < L.n; ++r)
                if (is_negative_zero(x(r, q)) && L.first[r] > band_start(r, L.kd))
                    replays.push_back({L.first[r], r, q});
    std::sort(replays.begin(), replays.end(),
              [](const Replay& u, const Replay& v) { return u.col < v.col; });
    std::size_t j = 0;
    for (const Replay& f : replays) {
        x.run(L, j, f.col, true);
        j = f.col;
        bool signed_term = false;
        for (std::size_t c = band_start(f.row, L.kd); c < L.first[f.row]; ++c)
            signed_term |= std::signbit(x(c, f.lane));
        x(f.row, f.lane) = signed_term ? 0.0 : -0.0;
    }
    x.run(L, j, L.n, true);

    std::vector<std::size_t> stops;
    if (x.any_negative_zero())
        for (std::size_t r = 0; r < L.n; ++r)
            for (std::size_t q = 0; q < x.k; ++q)
                if (is_negative_zero(x(r, q))) {
                    stops.push_back(r);
                    break;
                }
    std::size_t hi = L.n;
    for (auto it = stops.rbegin(); it != stops.rend(); ++it) {
        x.run(L, *it + 1, hi, false);
        back_column(L, x, *it);
        hi = *it;
    }
    x.run(L, 0, hi, false);
}

} // namespace

bool BandedCholesky::factor(SymBandedMatrix a) {
    if (a.n_ > std::numeric_limits<std::uint32_t>::max())
        throw std::length_error("BandedCholesky::factor: " + std::to_string(a.n_) +
                                " rows, more than the 2^32 - 1 supported");
    n_ = a.n_;
    kd_ = a.kd_;
    std::vector<double> band = std::move(a.band_);
    double* const ab = band.data();

    // Relative pivot threshold: a numerically singular matrix (e.g. an
    // all-Neumann Laplacian) must fail loudly rather than factor with a
    // roundoff-sized pivot.
    double scale = 0.0;
    for (std::size_t j = 0; j < n_; ++j) scale = std::max(scale, ab[j * (kd_ + 1)]);
    const double pivot_floor = 1e-12 * scale;

    // The envelope; a stored -0 widens both its rows to the full band.
    std::vector<double> firstd(n_);
    if (scan_envelope(ab, n_, kd_, firstd.data()))
        for (std::size_t c = 0; c < n_; ++c)
            for (std::size_t r = c + 1; r <= std::min(n_ - 1, c + kd_); ++r)
                if (is_negative_zero(ab[r + c * kd_])) {
                    firstd[r] = static_cast<double>(band_start(r, kd_));
                    firstd[c] = static_cast<double>(band_start(c, kd_));
                }
    first_.assign(firstd.begin(), firstd.end());

    // Column j's envelope rows, {r > j : first(r) <= j}, as runs.  Walking
    // the columns keeps them sorted in `live`: row j leaves at column j (it
    // is the smallest), and the rows whose envelope starts at j join.
    std::vector<std::size_t> start(n_ + 1, 0);
    for (std::size_t r = 0; r < n_; ++r)
        if (first_[r] < r) ++start[first_[r] + 1];
    for (std::size_t j = 0; j < n_; ++j) start[j + 1] += start[j];
    std::vector<std::uint32_t> joining(start[n_]);
    {
        std::vector<std::size_t> at(start.begin(), start.end() - 1);
        for (std::size_t r = 0; r < n_; ++r)
            if (first_[r] < r) joining[at[first_[r]]++] = static_cast<std::uint32_t>(r);
    }
    col_.assign(n_ + 1, 0);
    vcol_.assign(n_ + 1, 0);
    run_row_.clear();
    run_len_.clear();
    std::vector<std::uint32_t> live, merged;
    std::size_t head = 0;
    const auto add_run = [&](std::uint32_t row, std::uint32_t end) {
        run_row_.push_back(row);
        run_len_.push_back(end - row);
    };
    for (std::size_t j = 0; j < n_; ++j) {
        if (head < live.size() && live[head] == j) ++head;
        const auto jb = joining.begin() + static_cast<std::ptrdiff_t>(start[j]);
        const auto je = joining.begin() + static_cast<std::ptrdiff_t>(start[j + 1]);
        if (head == live.size() || (jb != je && *jb > live.back())) {
            live.insert(live.end(), jb, je);
        } else if (jb != je) {
            merged.resize(live.size() - head + static_cast<std::size_t>(je - jb));
            std::merge(live.begin() + static_cast<std::ptrdiff_t>(head), live.end(), jb, je,
                       merged.begin());
            live.swap(merged);
            head = 0;
        }
        if (head > 64 && 2 * head > live.size()) {
            live.erase(live.begin(), live.begin() + static_cast<std::ptrdiff_t>(head));
            head = 0;
        }
        col_[j] = run_row_.size();
        vcol_[j + 1] = vcol_[j];
        if (head == live.size()) continue;
        const std::uint32_t* rows = live.data() + head;
        const std::size_t m = live.size() - head;
        if (rows[m - 1] - rows[0] + 1 == m) {
            add_run(rows[0], rows[m - 1] + 1);
        } else {
            std::uint32_t row = rows[0], end = rows[0] + 1;
            for (std::size_t i = 1; i < m; ++i) {
                if (rows[i] - end > kGap) {
                    add_run(row, end);
                    row = rows[i];
                }
                end = rows[i] + 1;
            }
            add_run(row, end);
        }
        for (std::size_t t = col_[j]; t < run_row_.size(); ++t) vcol_[j + 1] += run_len_[t];
    }
    col_[n_] = run_row_.size();

    // An envelope of one run per column that fills most of the band (a
    // full band) keeps L where the factor leaves it: column j's run at
    // band[j * kd + row].  Any other is copied compactly, panel by panel.
    const std::size_t band_bytes = band.size() * sizeof(double);
    bool in_place = 4 * vcol_[n_] >= 3 * band.size();
    for (std::size_t j = 0; j < n_ && in_place; ++j) in_place = col_[j + 1] - col_[j] <= 1;
    if (in_place)
        for (std::size_t j = 0; j < n_; ++j)
            vcol_[j] = col_[j] < col_[j + 1] ? j * kd_ + run_row_[col_[j]] : 0;
    diag_.resize(n_);
    val_.assign(in_place ? 0 : vcol_[n_], 0.0);
    const Envelope env{first_.data(),   firstd.data(), col_.data(),  run_row_.data(),
                       run_len_.data(), vcol_.data(),  diag_.data(), in_place ? nullptr : val_.data()};
    std::size_t flops = 0;
    if (factor_band(ab, n_, kd_, env, pivot_floor, flops, blaslite::isa_level()) != n_) {
        n_ = 0;
        first_ = {};
        col_ = {};
        vcol_ = {};
        run_row_ = {};
        run_len_ = {};
        diag_ = {};
        val_ = {};
        return false;
    }
    if (in_place) val_ = std::move(band); // else the band goes with this frame
    compact_ = !in_place;
    blaslite::detail::charge(flops, band_bytes, band_bytes);
    return true;
}

double BandedCholesky::band(std::size_t d, std::size_t j) const noexcept {
    if (d == 0) return diag_[j];
    const std::size_t r = j + d;
    const double* v = val_.data() + vcol_[j];
    for (std::size_t t = col_[j]; t < col_[j + 1] && r >= run_row_[t]; v += run_len_[t++])
        if (r < std::size_t{run_row_[t]} + run_len_[t]) return v[r - run_row_[t]];
    return 0.0;
}

void BandedCholesky::solve(std::span<double> b) const {
    solve(std::span<const std::span<double>>(&b, 1));
}

void BandedCholesky::solve(std::span<const std::span<double>> rhs) const {
    assert(factored() && std::all_of(rhs.begin(), rhs.end(),
                                     [&](std::span<double> b) { return b.size() == n_; }));
    const LView L{n_,           kd_,          first_.data(),    diag_.data(), col_.data(),
                  vcol_.data(), run_row_.data(), run_len_.data(), val_.data()};
    std::size_t q = 0;
    // Three or more (two on a compact L, whose short runs leave the pair
    // sweep in its scalar tail): W = 4 lanes per sweep, or
    // blaslite::vector_lanes() for five or more, unused lanes zero.  What is
    // left over takes the pair and single sweeps, which are faster there.
    const std::size_t min_lanes = compact_ ? 2 : 3;
    if (rhs.size() >= min_lanes) {
        const std::size_t max_w = blaslite::vector_lanes();
        parallel::Scratch x(n_ * max_w);
        while (rhs.size() - q >= min_lanes) {
            const std::size_t w = rhs.size() - q <= 4 ? 4 : max_w;
            const std::size_t k = std::min(w, rhs.size() - q);
            for (std::size_t r = 0; r < n_; ++r)
                for (std::size_t i = 0; i < w; ++i) x[r * w + i] = i < k ? rhs[q + i][r] : 0.0;
            Sweep sweep{w == 4 ? sweep_four : sweep_eight, {}, k, w, 1, n_ * w};
            for (std::size_t i = 0; i < k; ++i) sweep.at[i] = x.data() + i;
            substitute(L, sweep);
            for (std::size_t i = 0; i < k; ++i)
                for (std::size_t r = 0; r < n_; ++r) rhs[q + i][r] = x[r * w + i];
            q += k;
        }
    }
    for (; q < rhs.size(); q += 2) {
        const std::size_t k = std::min<std::size_t>(2, rhs.size() - q);
        Sweep sweep{k == 2 ? sweep_two : sweep_one, {rhs[q].data()}, k, 1, k, n_};
        if (k == 2) sweep.at[1] = rhs[q + 1].data();
        substitute(L, sweep);
    }
    // One single-solve charge per right-hand side.
    for (std::size_t i = 0; i < rhs.size(); ++i)
        blaslite::detail::charge(solve_flops(), (kd_ + 1) * n_ * sizeof(double) * 2,
                                 2 * n_ * sizeof(double));
}

} // namespace la
