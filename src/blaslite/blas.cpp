#include "blaslite/blas.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

#include "blaslite/multiversion.hpp"
#include "parallel/scratch.hpp"
#include "parallel/thread_pool.hpp"

namespace blaslite {

namespace {

constexpr std::size_t kDouble = sizeof(double);
constexpr std::size_t kNR = 8; ///< packed-panel columns

/// Generic vectors of 8, 4 and 2 doubles.  Each kernel holds its register
/// tile in the vector its clone has registers for (zmm on v4, ymm on v3,
/// xmm below): a wider one lives in memory.
typedef double Vec8 __attribute__((vector_size(8 * sizeof(double))));
typedef double Vec4 __attribute__((vector_size(4 * sizeof(double))));
typedef double Vec2 __attribute__((vector_size(2 * sizeof(double))));

template <class V>
constexpr std::size_t kLanes = sizeof(V) / sizeof(double);

/// Copies the V at p, which need only be double-aligned (panels and C rows
/// come from generic buffers), in or out; memcpy keeps the access
/// alias-safe and compiles to one unaligned vector move.
template <class V>
[[gnu::always_inline]] inline void load(V& v, const double* p) noexcept {
    std::memcpy(&v, p, sizeof v);
}
template <class V>
[[gnu::always_inline]] inline void store(double* p, const V& v) noexcept {
    std::memcpy(p, &v, sizeof v);
}
/// acc += a * (the V at p).
template <class V>
[[gnu::always_inline]] inline void add_scaled(V& acc, double a, const double* p) noexcept {
    V b;
    load(b, p);
    acc += a * b;
}

/// Rows narrower than this keep their whole C row in registers through the
/// k loop; wider rows go through in column blocks of kRegisterRow - kNR.
constexpr std::size_t kRegisterRow = 4 * kNR;

/// Operands of one unblocked product, C (m x n) <- beta C + alpha A B.
struct SmallGemm {
    double alpha;
    const double* a;
    std::size_t lda;
    const double* b;
    std::size_t ldb;
    double beta;
    double* c;
    std::size_t ldc;
    std::size_t m, k;
};

/// The unblocked ikj product for rows of N columns, with each C row held
/// in registers for the whole k loop: N / W vectors of V (W lanes each),
/// then the other N % W columns as a 4-, a 2- and a 1-wide part (each
/// present when N % W has that bit).  The vector loops are force-unrolled,
/// so every vector gets its own register (at -O2 GCC keeps an indexed
/// array of vectors in memory).  Every element takes the plain loop's
/// operation sequence — beta applied in memory, then c += (alpha*a_ip)*b_pj
/// for p ascending — so the result is bitwise the plain loop's under the
/// same contraction rules, whatever V.
template <class V, std::size_t N>
[[gnu::always_inline]] inline void register_rows(const SmallGemm& g) noexcept {
    constexpr std::size_t W = kLanes<V>, NV = N / W, R = N % W;
    constexpr std::size_t t4 = NV * W;       // the 4-wide part
    constexpr std::size_t t2 = t4 + (R & 4); // the 2-wide part
    constexpr std::size_t t1 = t2 + (R & 2); // the last column
    for (std::size_t i = 0; i < g.m; ++i) {
        double* crow = g.c + i * g.ldc;
        const double* arow = g.a + i * g.lda;
        V v[NV + 1] = {};
        Vec4 q = {};
        Vec2 d = {};
        double s = 0.0;
        if (g.beta != 0.0) {
            if (g.beta != 1.0)
                for (std::size_t j = 0; j < N; ++j) crow[j] *= g.beta;
#pragma GCC unroll 16
            for (std::size_t u = 0; u != NV; ++u) load(v[u], crow + u * W);
            if constexpr ((R & 4) != 0) load(q, crow + t4);
            if constexpr ((R & 2) != 0) load(d, crow + t2);
            if constexpr ((R & 1) != 0) s = crow[t1];
        }
        for (std::size_t p = 0; p < g.k; ++p) {
            const double aip = g.alpha * arow[p];
            const double* brow = g.b + p * g.ldb;
#pragma GCC unroll 16
            for (std::size_t u = 0; u != NV; ++u) add_scaled(v[u], aip, brow + u * W);
            if constexpr ((R & 4) != 0) add_scaled(q, aip, brow + t4);
            if constexpr ((R & 2) != 0) add_scaled(d, aip, brow + t2);
            if constexpr ((R & 1) != 0) s += aip * brow[t1];
        }
#pragma GCC unroll 16
        for (std::size_t u = 0; u != NV; ++u) store(crow + u * W, v[u]);
        if constexpr ((R & 4) != 0) store(crow + t4, q);
        if constexpr ((R & 2) != 0) store(crow + t2, d);
        if constexpr ((R & 1) != 0) crow[t1] = s;
    }
}

/// register_rows for the runtime column count n < kRegisterRow (N counts
/// up to it).
template <class V, std::size_t N = 0>
[[gnu::always_inline]] inline void register_cols(std::size_t n, const SmallGemm& g) noexcept {
    if constexpr (N + 1 < kRegisterRow) {
        if (n != N) return register_cols<V, N + 1>(n, g);
    }
    register_rows<V, N>(g);
}

/// The unblocked product with V's register rows.
template <class V>
[[gnu::always_inline]] inline void small_rows(const SmallGemm& g, std::size_t n) noexcept {
    // Column blocks while kRegisterRow or more columns remain, then the
    // rest; each element's sequence does not depend on its block.
    constexpr std::size_t kBlock = kRegisterRow - kNR;
    std::size_t j0 = 0;
    for (; n - j0 >= kRegisterRow; j0 += kBlock) {
        SmallGemm blk = g;
        blk.b += j0;
        blk.c += j0;
        register_rows<V, kBlock>(blk);
    }
    SmallGemm rest = g;
    rest.b += j0;
    rest.c += j0;
    register_cols<V>(n - j0, rest);
}

/// Unblocked triple loop in ikj order: keeps a[i][p] in a register and the
/// C row, or a block of it, too.  Optimal for the tiny matrices (n <= 25)
/// that dominate spectral/hp elemental operations (paper, Figure 6).
REPRO_MULTIVERSION
void dgemm_small(double alpha, const double* a, std::size_t lda, const double* b,
                 std::size_t ldb, double beta, double* c, std::size_t ldc, std::size_t m,
                 std::size_t n, std::size_t k, IsaLevel isa) noexcept {
    const SmallGemm g{alpha, a, lda, b, ldb, beta, c, ldc, m, k};
    switch (isa) {
        case IsaLevel::v4: small_rows<Vec8>(g, n); break;
        case IsaLevel::v3: small_rows<Vec4>(g, n); break;
        default: small_rows<Vec2>(g, n); break;
    }
}

} // namespace

void dcopy(std::span<const double> x, std::span<double> y) noexcept {
    assert(x.size() == y.size());
    std::copy(x.begin(), x.end(), y.begin());
    detail::charge(0, x.size() * kDouble, x.size() * kDouble);
}

REPRO_MULTIVERSION
void daxpy(double alpha, std::span<const double> x, std::span<double> y) noexcept {
    assert(x.size() == y.size());
    const std::size_t n = x.size();
    for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
    detail::charge(2 * n, 2 * n * kDouble, n * kDouble);
}

REPRO_MULTIVERSION
double ddot(std::span<const double> x, std::span<const double> y) noexcept {
    assert(x.size() == y.size());
    const std::size_t n = x.size();
    // Four partial sums break the additive dependence chain so the loop is
    // limited by load bandwidth rather than FP-add latency.
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        s0 += x[i] * y[i];
        s1 += x[i + 1] * y[i + 1];
        s2 += x[i + 2] * y[i + 2];
        s3 += x[i + 3] * y[i + 3];
    }
    for (; i < n; ++i) s0 += x[i] * y[i];
    detail::charge(2 * n, 2 * n * kDouble, 0);
    return (s0 + s1) + (s2 + s3);
}

REPRO_MULTIVERSION
void dscal(double alpha, std::span<double> x) noexcept {
    for (double& v : x) v *= alpha;
    detail::charge(x.size(), x.size() * kDouble, x.size() * kDouble);
}

REPRO_MULTIVERSION
void dvmul(std::span<const double> x, std::span<const double> y, std::span<double> z) noexcept {
    assert(x.size() == y.size() && x.size() == z.size());
    const std::size_t n = x.size();
    for (std::size_t i = 0; i < n; ++i) z[i] = x[i] * y[i];
    detail::charge(n, 2 * n * kDouble, n * kDouble);
}

REPRO_MULTIVERSION
void dgemv(double alpha, const double* a, std::size_t lda, std::size_t m, std::size_t n,
           const double* x, double beta, double* y) noexcept {
    for (std::size_t i = 0; i < m; ++i) {
        const double* row = a + i * lda;
        double s0 = 0.0, s1 = 0.0;
        std::size_t j = 0;
        for (; j + 2 <= n; j += 2) {
            s0 += row[j] * x[j];
            s1 += row[j + 1] * x[j + 1];
        }
        if (j < n) s0 += row[j] * x[j];
        // beta = 0 never reads y, which may hold anything (NaN included).
        y[i] = beta == 0.0 ? alpha * (s0 + s1) : alpha * (s0 + s1) + beta * y[i];
    }
    detail::charge(2 * m * n + 3 * m, (m * n + n + m) * kDouble, m * kDouble);
}

REPRO_MULTIVERSION
void dgemv_t(double alpha, const double* a, std::size_t lda, std::size_t m, std::size_t n,
             const double* x, double beta, double* y) noexcept {
    // y' (1 x n) = beta y' + alpha x' (1 x m) A: the small product's row loop.
    dgemm_small(alpha, x, m, a, lda, beta, y, n, 1, n, m, isa_level());
    detail::charge(2 * m * n + m, (m * n + m + n) * kDouble, n * kDouble);
}

namespace {

// --------------------------------------------------------------------------
// Register-blocked micro-kernel engine.
//
// C rows are processed MR at a time against kNR-column panels of B that were
// packed (zero-padded) into contiguous micro-panels, so the inner loop is a
// rank-1 update of an MR x kNR accumulator tile held entirely in registers
// (MR per ISA level: see kernel_rows).  Every C element accumulates its k
// products in ascending-p order regardless of tiling, row blocking, or the
// thread count — the basis of the engine's bitwise-determinism guarantee.
// --------------------------------------------------------------------------

constexpr std::size_t kRowBlock = 128; ///< C rows per thread-pool work item
/// Below this flop count the unblocked ikj loop wins (no packing overhead);
/// this keeps the paper's small-n regime (Figure 6) on its dedicated path.
constexpr std::size_t kSmallFlops = 2 * 24 * 24 * 24;
/// Minimum whole-call flop count before the thread pool is worth waking.
constexpr std::size_t kParallelFlops = 1u << 21;

/// Packs b (k x n row-major, leading dimension ldb) into kNR-wide column
/// panels, zero-padded to a multiple of kNR columns.
REPRO_MULTIVERSION
void pack_b_panels(const double* b, std::size_t ldb, std::size_t k, std::size_t n,
                   double* bp) noexcept {
    const std::size_t npanels = (n + kNR - 1) / kNR;
    for (std::size_t j = 0; j < npanels; ++j) {
        const std::size_t j0 = j * kNR;
        const std::size_t nr = std::min(kNR, n - j0);
        double* panel = bp + j * k * kNR;
        if (nr == kNR) {
            // A constant-size copy: one vector move per row at -O2.
            for (std::size_t p = 0; p < k; ++p)
                std::memcpy(panel + p * kNR, b + p * ldb + j0, kNR * kDouble);
            continue;
        }
        for (std::size_t p = 0; p < k; ++p) {
            const double* brow = b + p * ldb + j0;
            double* prow = panel + p * kNR;
            for (std::size_t jj = 0; jj < nr; ++jj) prow[jj] = brow[jj];
            for (std::size_t jj = nr; jj < kNR; ++jj) prow[jj] = 0.0;
        }
    }
}

/// C tile (MR x nr) += alpha * A rows (MR x k, ld = lda) * packed panel.
/// Force-inlined so each multi-versioned caller compiles the tile with its
/// own ISA.  The accumulator tile is MR rows of kNR / W vectors of V (W
/// lanes each), and the rank-1 update body is MR broadcast-FMAs per vector
/// of the packed panel row: independent dependence chains enough to hide
/// FMA latency.  Its loops are force-unrolled so every accumulator gets
/// its own register (at -O2 GCC keeps an indexed array of vectors in
/// memory).  Each element sums a_ip*b_pj for p ascending from zero, then
/// takes c += alpha*acc.
template <class V, std::size_t MR>
[[gnu::always_inline]] inline void micro_kernel(std::size_t k, double alpha, const double* a,
                                                std::size_t lda, const double* bp, double* c,
                                                std::size_t ldc, std::size_t nr) noexcept {
    constexpr std::size_t W = kLanes<V>, NV = kNR / W;
    V acc[MR][NV] = {};
    for (std::size_t p = 0; p < k; ++p) {
        V brow[NV];
#pragma GCC unroll 16
        for (std::size_t u = 0; u < NV; ++u) load(brow[u], bp + p * kNR + u * W);
#pragma GCC unroll 16
        for (std::size_t ii = 0; ii < MR; ++ii) {
            const double aip = a[ii * lda + p];
#pragma GCC unroll 16
            for (std::size_t u = 0; u < NV; ++u) acc[ii][u] += aip * brow[u];
        }
    }
#pragma GCC unroll 16
    for (std::size_t ii = 0; ii < MR; ++ii) {
        double* crow = c + ii * ldc;
        if (nr == kNR) {
#pragma GCC unroll 16
            for (std::size_t u = 0; u < NV; ++u) {
                V cv;
                load(cv, crow + u * W);
                store(crow + u * W, cv + alpha * acc[ii][u]);
            }
        } else {
            double row[kNR];
#pragma GCC unroll 16
            for (std::size_t u = 0; u < NV; ++u) store(row + u * W, acc[ii][u]);
            for (std::size_t jj = 0; jj < nr; ++jj) crow[jj] += alpha * row[jj];
        }
    }
}

/// micro_kernel<V, R> for the runtime row count r < MR (R counts down
/// from MR - 1 to it).
template <class V, std::size_t MR, std::size_t R = MR - 1>
[[gnu::always_inline]] inline void remainder_kernel(std::size_t r, std::size_t k, double alpha,
                                                    const double* a, std::size_t lda,
                                                    const double* bp, double* c,
                                                    std::size_t ldc, std::size_t nr) noexcept {
    if constexpr (R > 1) {
        if (r != R) return remainder_kernel<V, MR, R - 1>(r, k, alpha, a, lda, bp, c, ldc, nr);
    }
    if constexpr (R > 0) micro_kernel<V, R>(k, alpha, a, lda, bp, c, ldc, nr);
}

/// Accumulates alpha * A * B into rows [0, mb) of C in MR x kNR tiles of
/// V, the last tile row taking the mb % MR rows left.
template <class V, std::size_t MR>
[[gnu::always_inline]] inline void tile_rows(double alpha, const double* a, std::size_t lda,
                                             const double* bp, double* c, std::size_t ldc,
                                             std::size_t mb, std::size_t n,
                                             std::size_t k) noexcept {
    const std::size_t npanels = (n + kNR - 1) / kNR;
    std::size_t i = 0;
    for (; i + MR <= mb; i += MR) {
        for (std::size_t j = 0; j < npanels; ++j) {
            const std::size_t nr = std::min(kNR, n - j * kNR);
            micro_kernel<V, MR>(k, alpha, a + i * lda, lda, bp + j * k * kNR,
                                c + i * ldc + j * kNR, ldc, nr);
        }
    }
    if (i == mb) return;
    for (std::size_t j = 0; j < npanels; ++j) {
        const std::size_t nr = std::min(kNR, n - j * kNR);
        remainder_kernel<V, MR>(mb - i, k, alpha, a + i * lda, lda, bp + j * k * kNR,
                                c + i * ldc + j * kNR, ldc, nr);
    }
}

/// Applies beta to rows [0, mb) of C, then accumulates alpha * A * B using
/// the packed panels of B, in the register tile of ISA level `isa`: an
/// MR x kNR accumulator tile plus one packed panel row must fit the
/// clone's 32 zmm (v4), 16 ymm (v3) or 16 xmm registers.
REPRO_MULTIVERSION
void kernel_rows(double alpha, const double* a, std::size_t lda, const double* bp,
                 double beta, double* c, std::size_t ldc, std::size_t mb, std::size_t n,
                 std::size_t k, IsaLevel isa) noexcept {
    for (std::size_t i = 0; i < mb; ++i) {
        double* crow = c + i * ldc;
        if (beta == 0.0) {
            std::fill(crow, crow + n, 0.0);
        } else if (beta != 1.0) {
            for (std::size_t j = 0; j < n; ++j) crow[j] *= beta;
        }
    }
    switch (isa) {
        case IsaLevel::v4: tile_rows<Vec8, 8>(alpha, a, lda, bp, c, ldc, mb, n, k); break;
        case IsaLevel::v3: tile_rows<Vec4, 4>(alpha, a, lda, bp, c, ldc, mb, n, k); break;
        default: tile_rows<Vec2, 2>(alpha, a, lda, bp, c, ldc, mb, n, k); break;
    }
}

/// Packed-panel dgemm body shared by dgemm and the batched entry point:
/// assumes non-degenerate sizes and pre-packed B panels.
void dgemm_packed(double alpha, const double* a, std::size_t lda, const double* bp,
                  double beta, double* c, std::size_t ldc, std::size_t m, std::size_t n,
                  std::size_t k) noexcept {
    const std::size_t nblocks = (m + kRowBlock - 1) / kRowBlock;
    if (nblocks > 1 && parallel::num_threads() > 1 && 2 * m * n * k >= kParallelFlops) {
        // Split C rows across the pool; each row's accumulation order is
        // unchanged, so results are bitwise identical at any thread count.
        parallel::pool().parallel_for(nblocks, [&](std::size_t b0, std::size_t b1) {
            const std::size_t i0 = b0 * kRowBlock;
            const std::size_t i1 = std::min(m, b1 * kRowBlock);
            kernel_rows(alpha, a + i0 * lda, lda, bp, beta, c + i0 * ldc, ldc, i1 - i0, n, k,
                        isa_level());
        });
        return;
    }
    kernel_rows(alpha, a, lda, bp, beta, c, ldc, m, n, k, isa_level());
}

} // namespace

void dgemm(double alpha, const double* a, std::size_t lda, const double* b, std::size_t ldb,
           double beta, double* c, std::size_t ldc, std::size_t m, std::size_t n,
           std::size_t k) noexcept {
    detail::charge(2 * m * n * k + m * n, (m * k + k * n + m * n) * kDouble, m * n * kDouble);
    if (m == 0 || n == 0) return;
    if (k == 0 || n < kNR || 2 * m * n * k <= kSmallFlops) {
        dgemm_small(alpha, a, lda, b, ldb, beta, c, ldc, m, n, k, isa_level());
        return;
    }
    const std::size_t npanels = (n + kNR - 1) / kNR;
    parallel::Scratch bp(npanels * kNR * k);
    pack_b_panels(b, ldb, k, n, bp.data());
    dgemm_packed(alpha, a, lda, bp.data(), beta, c, ldc, m, n, k);
}

void dgemm_cm(double alpha, const double* a, std::size_t lda, const double* b,
              std::size_t ldb, double beta, double* c, std::size_t ldc, std::size_t m,
              std::size_t n, std::size_t k) noexcept {
    // A column-major product is the row-major product of the transposed
    // views: C_cm(m x n) = A_cm(m x k) B_cm(k x n) is computed as
    // C'(n x m) = B'(n x k) A'(k x m) on the same buffers.
    dgemm(alpha, b, ldb, a, lda, beta, c, ldc, n, m, k);
}

void dgemm_batch_same_a(double alpha, const double* a, std::size_t lda, std::size_t m,
                        std::size_t k, std::span<const GemmBatchItem> items, std::size_t n,
                        std::size_t ldb, std::size_t ldc, double beta) noexcept {
    if (items.empty() || m == 0) return;
    // Charged exactly as the equivalent sequence of dgemm_cm calls, so the
    // op stream (and with it the virtual-clock pricing) does not depend on
    // whether a caller batches or loops.
    for (std::size_t i = 0; i < items.size(); ++i)
        detail::charge(2 * m * n * k + m * n, (m * k + k * n + m * n) * kDouble,
                       m * n * kDouble);
    if (n == 0) return;
    if (k == 0 || m < kNR) {
        // Degenerate or narrow-output batches take the same unblocked path the
        // per-item column-major call would (row-major views swap operands).
        for (const GemmBatchItem& it : items)
            dgemm_small(alpha, it.b, ldb, a, lda, beta, it.c, ldc, n, m, k, isa_level());
        return;
    }
    // Row-major view of the shared operator: A_cm(m x k, lda) is A'(k x m)
    // row-major — the right operand of every item's row-major product
    // C'_i(n x m) = B'_i(n x k) A'(k x m).  Pack it once for all items.
    const std::size_t npanels = (m + kNR - 1) / kNR;
    parallel::Scratch ap(npanels * kNR * k);
    pack_b_panels(a, lda, k, m, ap.data());

    const auto run_item = [&](const GemmBatchItem& it) {
        kernel_rows(alpha, it.b, ldb, ap.data(), beta, it.c, ldc, n, m, k, isa_level());
    };
    const std::size_t total_flops = 2 * m * n * k * items.size();
    if (items.size() > 1 && parallel::num_threads() > 1 && total_flops >= kParallelFlops) {
        parallel::pool().parallel_for(items.size(), [&](std::size_t i0, std::size_t i1) {
            for (std::size_t i = i0; i < i1; ++i) run_item(items[i]);
        });
    } else {
        for (const GemmBatchItem& it : items) run_item(it);
    }
}

void dgemm_batch_same_b(double alpha, std::span<const GemmBatchItem> items, std::size_t lda,
                        const double* b, std::size_t ldb, std::size_t ldc, std::size_t m,
                        std::size_t n, std::size_t k, double beta) noexcept {
    if (items.empty() || n == 0) return;
    // Same charging contract as dgemm_batch_same_a: the op stream matches the
    // equivalent loop of dgemm_cm calls.
    for (std::size_t i = 0; i < items.size(); ++i)
        detail::charge(2 * m * n * k + m * n, (m * k + k * n + m * n) * kDouble,
                       m * n * kDouble);
    if (m == 0) return;
    // Row-major transposed views: C'_i(n x m) = B'(n x k, ld = ldb) A'_i(k x m,
    // ld = lda).  The shared B' is the unpacked left factor of every product;
    // each item's A'_i packs into kNR-wide panels exactly as a standalone
    // dgemm call would.
    if (k == 0 || m < kNR) {
        for (const GemmBatchItem& it : items)
            dgemm_small(alpha, b, ldb, it.b, lda, beta, it.c, ldc, n, m, k, isa_level());
        return;
    }
    const std::size_t npanels = (m + kNR - 1) / kNR;
    const auto run_item = [&](const GemmBatchItem& it) {
        parallel::Scratch ap(npanels * kNR * k);
        pack_b_panels(it.b, lda, k, m, ap.data());
        kernel_rows(alpha, b, ldb, ap.data(), beta, it.c, ldc, n, m, k, isa_level());
    };
    const std::size_t total_flops = 2 * m * n * k * items.size();
    if (items.size() > 1 && parallel::num_threads() > 1 && total_flops >= kParallelFlops) {
        parallel::pool().parallel_for(items.size(), [&](std::size_t i0, std::size_t i1) {
            for (std::size_t i = i0; i < i1; ++i) run_item(items[i]);
        });
    } else {
        for (const GemmBatchItem& it : items) run_item(it);
    }
}

void dgemm_square(double alpha, const double* a, const double* b, double beta, double* c,
                  std::size_t n) noexcept {
    dgemm(alpha, a, n, b, n, beta, c, n, n, n, n);
}

double max_abs_diff(std::span<const double> x, std::span<const double> y) noexcept {
    assert(x.size() == y.size());
    double m = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) m = std::max(m, std::abs(x[i] - y[i]));
    return m;
}

} // namespace blaslite
