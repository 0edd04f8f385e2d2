#include "blaslite/blas.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "blaslite/multiversion.hpp"
#include "parallel/scratch.hpp"
#include "parallel/thread_pool.hpp"

namespace blaslite {

namespace {

constexpr std::size_t kDouble = sizeof(double);
constexpr std::size_t kNR = 8; ///< register tile columns: one PanelVec

#if defined(__GNUC__) || defined(__clang__)
/// One packed-panel row: a kNR-wide vector.  Element-aligned (packed panels
/// come from generic scratch buffers) and may_alias (it is loaded straight
/// from double arrays).  The compiler lowers it to whatever the active clone
/// has — one zmm, two ymm, or four xmm.
typedef double PanelVec
    __attribute__((vector_size(kNR * sizeof(double)), aligned(alignof(double)), may_alias));

/// Rows narrower than this keep their whole C row in registers through the
/// k loop: up to three PanelVecs plus up to kNR - 1 scalar tail columns.
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

/// The unblocked ikj product for rows of n = NV*kNR + NT columns, with each
/// C row held in NV named vectors and NT named scalars for the whole k loop.
/// (Named, not an array: GCC spills an indexed array of vectors at -O2.)
/// Every element takes the plain loop's operation sequence — beta applied in
/// memory, then c += (alpha*a_ip)*b_pj for p ascending — so the result is
/// bitwise the plain loop's under the same contraction rules.
template <std::size_t NV, std::size_t NT>
[[gnu::always_inline]] inline void register_rows(const SmallGemm& g) noexcept {
    constexpr std::size_t t = NV * kNR; // first tail column
    for (std::size_t i = 0; i < g.m; ++i) {
        double* crow = g.c + i * g.ldc;
        const double* arow = g.a + i * g.lda;
        PanelVec v0 = {}, v1 = {}, v2 = {};
        double t0 = 0.0, t1 = 0.0, t2 = 0.0, t3 = 0.0, t4 = 0.0, t5 = 0.0, t6 = 0.0;
        if (g.beta != 0.0) {
            if (g.beta != 1.0)
                for (std::size_t j = 0; j < t + NT; ++j) crow[j] *= g.beta;
            if constexpr (NV > 0) v0 = *reinterpret_cast<const PanelVec*>(crow);
            if constexpr (NV > 1) v1 = *reinterpret_cast<const PanelVec*>(crow + kNR);
            if constexpr (NV > 2) v2 = *reinterpret_cast<const PanelVec*>(crow + 2 * kNR);
            if constexpr (NT > 0) t0 = crow[t];
            if constexpr (NT > 1) t1 = crow[t + 1];
            if constexpr (NT > 2) t2 = crow[t + 2];
            if constexpr (NT > 3) t3 = crow[t + 3];
            if constexpr (NT > 4) t4 = crow[t + 4];
            if constexpr (NT > 5) t5 = crow[t + 5];
            if constexpr (NT > 6) t6 = crow[t + 6];
        }
        for (std::size_t p = 0; p < g.k; ++p) {
            const double aip = g.alpha * arow[p];
            const double* brow = g.b + p * g.ldb;
            if constexpr (NV > 0) v0 += aip * *reinterpret_cast<const PanelVec*>(brow);
            if constexpr (NV > 1) v1 += aip * *reinterpret_cast<const PanelVec*>(brow + kNR);
            if constexpr (NV > 2) v2 += aip * *reinterpret_cast<const PanelVec*>(brow + 2 * kNR);
            if constexpr (NT > 0) t0 += aip * brow[t];
            if constexpr (NT > 1) t1 += aip * brow[t + 1];
            if constexpr (NT > 2) t2 += aip * brow[t + 2];
            if constexpr (NT > 3) t3 += aip * brow[t + 3];
            if constexpr (NT > 4) t4 += aip * brow[t + 4];
            if constexpr (NT > 5) t5 += aip * brow[t + 5];
            if constexpr (NT > 6) t6 += aip * brow[t + 6];
        }
        if constexpr (NV > 0) *reinterpret_cast<PanelVec*>(crow) = v0;
        if constexpr (NV > 1) *reinterpret_cast<PanelVec*>(crow + kNR) = v1;
        if constexpr (NV > 2) *reinterpret_cast<PanelVec*>(crow + 2 * kNR) = v2;
        if constexpr (NT > 0) crow[t] = t0;
        if constexpr (NT > 1) crow[t + 1] = t1;
        if constexpr (NT > 2) crow[t + 2] = t2;
        if constexpr (NT > 3) crow[t + 3] = t3;
        if constexpr (NT > 4) crow[t + 4] = t4;
        if constexpr (NT > 5) crow[t + 5] = t5;
        if constexpr (NT > 6) crow[t + 6] = t6;
    }
}

/// register_rows for the runtime tail width nt (NT counts up to it).
template <std::size_t NV, std::size_t NT = 0>
[[gnu::always_inline]] inline void dispatch_tail(std::size_t nt, const SmallGemm& g) noexcept {
    if constexpr (NT + 1 < kNR) {
        if (nt != NT) return dispatch_tail<NV, NT + 1>(nt, g);
    }
    register_rows<NV, NT>(g);
}
#endif

/// Unblocked triple loop in ikj order: keeps a[i][p] in a register and, for
/// rows narrower than kRegisterRow, the whole C row too.  Optimal for the
/// tiny matrices (n <= 25) that dominate spectral/hp elemental operations
/// (paper, Figure 6).
REPRO_MULTIVERSION
void dgemm_small(double alpha, const double* a, std::size_t lda, const double* b,
                 std::size_t ldb, double beta, double* c, std::size_t ldc, std::size_t m,
                 std::size_t n, std::size_t k) noexcept {
#if defined(__GNUC__) || defined(__clang__)
    if (n < kRegisterRow) {
        const SmallGemm g{alpha, a, lda, b, ldb, beta, c, ldc, m, k};
        switch (n / kNR) {
            case 0: dispatch_tail<0>(n % kNR, g); break;
            case 1: dispatch_tail<1>(n % kNR, g); break;
            case 2: dispatch_tail<2>(n % kNR, g); break;
            default: dispatch_tail<3>(n % kNR, g); break;
        }
        return;
    }
#endif
    for (std::size_t i = 0; i < m; ++i) {
        double* crow = c + i * ldc;
        if (beta == 0.0) {
            std::fill(crow, crow + n, 0.0);
        } else if (beta != 1.0) {
            for (std::size_t j = 0; j < n; ++j) crow[j] *= beta;
        }
        const double* arow = a + i * lda;
        for (std::size_t p = 0; p < k; ++p) {
            const double aip = alpha * arow[p];
            const double* brow = b + p * ldb;
            for (std::size_t j = 0; j < n; ++j) crow[j] += aip * brow[j];
        }
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
void dvvtvp(std::span<const double> x, std::span<const double> y, std::span<double> z) noexcept {
    assert(x.size() == y.size() && x.size() == z.size());
    const std::size_t n = x.size();
    for (std::size_t i = 0; i < n; ++i) z[i] += x[i] * y[i];
    detail::charge(2 * n, 3 * n * kDouble, n * kDouble);
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
    dgemm_small(alpha, x, m, a, lda, beta, y, n, 1, n, m);
    detail::charge(2 * m * n + m, (m * n + m + n) * kDouble, n * kDouble);
}

namespace {

// --------------------------------------------------------------------------
// Register-blocked micro-kernel engine.
//
// C rows are processed kMR at a time against kNR-column panels of B that were
// packed (zero-padded) into contiguous micro-panels, so the inner loop is a
// rank-1 update of a kMR x kNR accumulator tile held entirely in registers.
// Every C element accumulates its k products in ascending-p order regardless
// of tiling, row blocking, or the thread count — the basis of the engine's
// bitwise-determinism guarantee.
// --------------------------------------------------------------------------

constexpr std::size_t kMR = 8;        ///< register tile rows
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
/// own ISA.  The accumulator block is MR named kNR-wide vectors — one
/// AVX-512 register per tile row — and the rank-1 update body is MR
/// broadcast-FMAs per packed panel row: MR independent dependence chains,
/// enough to hide FMA latency.  (Written with vector extensions rather than
/// a scalar array because the auto-vectorizer spills the scalar tile.)
template <std::size_t MR>
[[gnu::always_inline]] inline void micro_kernel(std::size_t k, double alpha, const double* a,
                                                std::size_t lda, const double* bp, double* c,
                                                std::size_t ldc, std::size_t nr) noexcept {
#if defined(__GNUC__) || defined(__clang__)
    PanelVec acc[MR] = {};
    for (std::size_t p = 0; p < k; ++p) {
        const PanelVec brow = *reinterpret_cast<const PanelVec*>(bp + p * kNR);
        for (std::size_t ii = 0; ii < MR; ++ii) acc[ii] += a[ii * lda + p] * brow;
    }
    for (std::size_t ii = 0; ii < MR; ++ii) {
        double* crow = c + ii * ldc;
        for (std::size_t jj = 0; jj < nr; ++jj) crow[jj] += alpha * acc[ii][jj];
    }
#else
    double acc[MR][kNR] = {};
    for (std::size_t p = 0; p < k; ++p) {
        const double* brow = bp + p * kNR;
        for (std::size_t ii = 0; ii < MR; ++ii) {
            const double aip = a[ii * lda + p];
            for (std::size_t jj = 0; jj < kNR; ++jj) acc[ii][jj] += aip * brow[jj];
        }
    }
    for (std::size_t ii = 0; ii < MR; ++ii) {
        double* crow = c + ii * ldc;
        for (std::size_t jj = 0; jj < nr; ++jj) crow[jj] += alpha * acc[ii][jj];
    }
#endif
}

/// Applies beta to rows [0, mb) of C, then accumulates alpha * A * B using
/// the packed panels of B.
REPRO_MULTIVERSION
void kernel_rows(double alpha, const double* a, std::size_t lda, const double* bp,
                 double beta, double* c, std::size_t ldc, std::size_t mb, std::size_t n,
                 std::size_t k) noexcept {
    for (std::size_t i = 0; i < mb; ++i) {
        double* crow = c + i * ldc;
        if (beta == 0.0) {
            std::fill(crow, crow + n, 0.0);
        } else if (beta != 1.0) {
            for (std::size_t j = 0; j < n; ++j) crow[j] *= beta;
        }
    }
    const std::size_t npanels = (n + kNR - 1) / kNR;
    std::size_t i = 0;
    for (; i + kMR <= mb; i += kMR) {
        for (std::size_t j = 0; j < npanels; ++j) {
            const std::size_t nr = std::min(kNR, n - j * kNR);
            micro_kernel<kMR>(k, alpha, a + i * lda, lda, bp + j * k * kNR,
                              c + i * ldc + j * kNR, ldc, nr);
        }
    }
    const std::size_t mr = mb - i;
    if (mr == 0) return;
    for (std::size_t j = 0; j < npanels; ++j) {
        const std::size_t nr = std::min(kNR, n - j * kNR);
        const double* arow = a + i * lda;
        double* crow = c + i * ldc + j * kNR;
        const double* panel = bp + j * k * kNR;
        switch (mr) {
            case 1: micro_kernel<1>(k, alpha, arow, lda, panel, crow, ldc, nr); break;
            case 2: micro_kernel<2>(k, alpha, arow, lda, panel, crow, ldc, nr); break;
            case 3: micro_kernel<3>(k, alpha, arow, lda, panel, crow, ldc, nr); break;
            case 4: micro_kernel<4>(k, alpha, arow, lda, panel, crow, ldc, nr); break;
            case 5: micro_kernel<5>(k, alpha, arow, lda, panel, crow, ldc, nr); break;
            case 6: micro_kernel<6>(k, alpha, arow, lda, panel, crow, ldc, nr); break;
            default: micro_kernel<7>(k, alpha, arow, lda, panel, crow, ldc, nr); break;
        }
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
            kernel_rows(alpha, a + i0 * lda, lda, bp, beta, c + i0 * ldc, ldc, i1 - i0, n,
                        k);
        });
        return;
    }
    kernel_rows(alpha, a, lda, bp, beta, c, ldc, m, n, k);
}

} // namespace

void dgemm(double alpha, const double* a, std::size_t lda, const double* b, std::size_t ldb,
           double beta, double* c, std::size_t ldc, std::size_t m, std::size_t n,
           std::size_t k) noexcept {
    detail::charge(2 * m * n * k + m * n, (m * k + k * n + m * n) * kDouble, m * n * kDouble);
    if (m == 0 || n == 0) return;
    if (k == 0 || n < kNR || 2 * m * n * k <= kSmallFlops) {
        dgemm_small(alpha, a, lda, b, ldb, beta, c, ldc, m, n, k);
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
            dgemm_small(alpha, it.b, ldb, a, lda, beta, it.c, ldc, n, m, k);
        return;
    }
    // Row-major view of the shared operator: A_cm(m x k, lda) is A'(k x m)
    // row-major — the right operand of every item's row-major product
    // C'_i(n x m) = B'_i(n x k) A'(k x m).  Pack it once for all items.
    const std::size_t npanels = (m + kNR - 1) / kNR;
    parallel::Scratch ap(npanels * kNR * k);
    pack_b_panels(a, lda, k, m, ap.data());

    const auto run_item = [&](const GemmBatchItem& it) {
        kernel_rows(alpha, it.b, ldb, ap.data(), beta, it.c, ldc, n, m, k);
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
            dgemm_small(alpha, b, ldb, it.b, lda, beta, it.c, ldc, n, m, k);
        return;
    }
    const std::size_t npanels = (m + kNR - 1) / kNR;
    const auto run_item = [&](const GemmBatchItem& it) {
        parallel::Scratch ap(npanels * kNR * k);
        pack_b_panels(it.b, lda, k, m, ap.data());
        kernel_rows(alpha, b, ldb, ap.data(), beta, it.c, ldc, n, m, k);
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
