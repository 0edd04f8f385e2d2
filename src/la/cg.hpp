#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

/// \file cg.hpp
/// Diagonally preconditioned conjugate gradient.
///
/// "Instead of direct solvers, a diagonally preconditioned conjugate gradient
/// iterative solver is predominantly used" in the NekTar-ALE simulations
/// (paper §4.2.2).  The operator and the (optional) parallel reduction are
/// injected so the same driver runs serially and under the simulated MPI
/// runtime with gather-scatter assembly.
namespace la {

/// How a CG solve ended.
enum class CgStatus {
    Converged,     ///< ||r||_2 reached the tolerance
    MaxIterations, ///< the iteration budget ran out first
    Breakdown,     ///< p^T A p <= 0: the operator is not positive definite
};

struct CgResult {
    std::size_t iterations = 0;    ///< iterations actually performed
    double residual_norm = 0.0;    ///< final ||r||_2
    CgStatus status = CgStatus::MaxIterations;
    [[nodiscard]] bool converged() const noexcept { return status == CgStatus::Converged; }
};

/// "converged", "max-iterations" or "breakdown" (error messages).
[[nodiscard]] const char* to_string(CgStatus s) noexcept;

struct CgOptions {
    std::size_t max_iterations = 1000;
    double tolerance = 1e-10;      ///< absolute tolerance on ||r||_2
};

/// Operator application y = A x.
using ApplyFn = std::function<void(std::span<const double>, std::span<double>)>;
/// Global dot product; defaults to the local one.  Parallel callers supply an
/// allreduce-backed version.
using DotFn = std::function<double(std::span<const double>, std::span<const double>)>;

/// Solves A x = b with Jacobi (diagonal) preconditioning.
/// `inv_diag` holds 1/diag(A); x holds the initial guess on entry.
CgResult pcg(const ApplyFn& apply, std::span<const double> inv_diag, std::span<const double> b,
             std::span<double> x, const CgOptions& opts = {}, const DotFn& dot = {});

} // namespace la
