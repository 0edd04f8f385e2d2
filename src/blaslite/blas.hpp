#pragma once

#include <cstddef>
#include <span>

#include "blaslite/counters.hpp"

/// \file blas.hpp
/// A from-scratch subset of the BLAS used by the NekTar-style solvers.
///
/// The paper's kernel-level evaluation (Figures 1-6) times dcopy, daxpy,
/// ddot, dgemv and dgemm; those five routines "account for most of the work"
/// in the application codes.  This module implements them (plus the few
/// helpers the solvers need) with plain, cache-aware C++ so the whole
/// reproduction is self-contained.  All kernels charge the thread-local
/// operation counters (see counters.hpp).
///
/// Matrices are dense row-major unless stated otherwise; `lda` is the leading
/// (row) stride in elements.
namespace blaslite {

/// y <- x (BLAS dcopy).  Vectors must have equal length.
void dcopy(std::span<const double> x, std::span<double> y) noexcept;

/// y <- alpha*x + y (BLAS daxpy).
void daxpy(double alpha, std::span<const double> x, std::span<double> y) noexcept;

/// Returns x . y (BLAS ddot).
[[nodiscard]] double ddot(std::span<const double> x, std::span<const double> y) noexcept;

/// x <- alpha*x (BLAS dscal).
void dscal(double alpha, std::span<double> x) noexcept;

/// z <- x*y elementwise (NekTar's vmul; dominates the nonlinear step).
void dvmul(std::span<const double> x, std::span<const double> y, std::span<double> z) noexcept;

/// y <- alpha*A*x + beta*y with A m-by-n row-major (BLAS dgemv, no transpose).
void dgemv(double alpha, const double* a, std::size_t lda, std::size_t m, std::size_t n,
           const double* x, double beta, double* y) noexcept;

/// y <- alpha*A^T*x + beta*y with A m-by-n row-major (BLAS dgemv, transpose).
void dgemv_t(double alpha, const double* a, std::size_t lda, std::size_t m, std::size_t n,
             const double* x, double beta, double* y) noexcept;

/// C <- alpha*A*B + beta*C with A m-by-k, B k-by-n, C m-by-n, all row-major
/// (BLAS dgemm, NN case).  Runs a register-blocked (MR x 8 accumulator
/// tile, MR per ISA level) micro-kernel over packed panels of B; the
/// small-n regime the paper highlights (n <= 20, Figure 6) takes a
/// dedicated unblocked path that keeps each C row narrower than 32 columns,
/// or each 24-column block of a wider one, in registers.  Large
/// row counts split across the parallel thread pool by blocks of C rows,
/// which is bitwise deterministic: each C element accumulates its k-products
/// in the same order regardless of tiling or thread count.
void dgemm(double alpha, const double* a, std::size_t lda, const double* b, std::size_t ldb,
           double beta, double* c, std::size_t ldc, std::size_t m, std::size_t n,
           std::size_t k) noexcept;

/// Convenience dgemm for tightly packed square matrices.
void dgemm_square(double alpha, const double* a, const double* b, double beta, double* c,
                  std::size_t n) noexcept;

/// C <- alpha*A*B + beta*C, all COLUMN-major: A m-by-k (lda >= m), B k-by-n
/// (ldb >= k), C m-by-n (ldc >= m).  The batched elemental engine packs
/// per-element coefficient blocks as columns, which makes the whole-group
/// operand a column-major panel; this entry point runs it through the same
/// micro-kernel (a column-major product is the row-major product of the
/// transposed views, so no data movement is needed).
void dgemm_cm(double alpha, const double* a, std::size_t lda, const double* b,
              std::size_t ldb, double beta, double* c, std::size_t ldc, std::size_t m,
              std::size_t n, std::size_t k) noexcept;

/// One batch item of the batched GEMMs: a per-item input panel and its
/// output panel (both column-major).  `b` is the right operand for
/// dgemm_batch_same_a and the left operand for dgemm_batch_same_b.
struct GemmBatchItem {
    const double* b = nullptr;
    double* c = nullptr;
};

/// Batched column-major GEMM sharing the left operand:
///   C_i <- alpha * A * B_i + beta * C_i     for every item i,
/// with A m-by-k (lda >= m) and every B_i k-by-n (ldb), C_i m-by-n (ldc).
/// This is the dgemv -> dgemm batching step of the elemental engine: one
/// operator matrix (basis, derivative, or Helmholtz block) multiplies many
/// element/plane panels in a single call.  A is packed into micro-panels
/// once and reused for every item; items split across the thread pool
/// (bitwise deterministic — items are independent).  Operation counters are
/// charged exactly as the equivalent sequence of dgemm_cm calls.
void dgemm_batch_same_a(double alpha, const double* a, std::size_t lda, std::size_t m,
                        std::size_t k, std::span<const GemmBatchItem> items, std::size_t n,
                        std::size_t ldb, std::size_t ldc, double beta) noexcept;

/// Batched column-major GEMM sharing the RIGHT operand:
///   C_i <- alpha * A_i * B + beta * C_i     for every item i,
/// with every A_i m-by-k (item.b, lda), B k-by-n (ldb >= k) and C_i m-by-n
/// (item.c, ldc).  This is the second contraction stage of sum-factorised
/// operator evaluation: each element's intermediate panel multiplies the
/// shared transposed 1-D basis from the right.  The shared operand needs no
/// packing (it is the row-major left factor of every item's transposed-view
/// product); items split across the thread pool, each packing its own panel
/// into thread-local scratch (bitwise deterministic — items are
/// independent).  Counters are charged exactly as the equivalent sequence of
/// dgemm_cm calls.
void dgemm_batch_same_b(double alpha, std::span<const GemmBatchItem> items, std::size_t lda,
                        const double* b, std::size_t ldb, std::size_t ldc, std::size_t m,
                        std::size_t n, std::size_t k, double beta) noexcept;

/// Infinity norm of x - y; handy for tests.
[[nodiscard]] double max_abs_diff(std::span<const double> x, std::span<const double> y) noexcept;

} // namespace blaslite
