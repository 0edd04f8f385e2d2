#include "la/cg.hpp"

#include <cassert>
#include <cmath>

#include "blaslite/blas.hpp"

namespace la {

const char* to_string(CgStatus s) noexcept {
    switch (s) {
    case CgStatus::Converged: return "converged";
    case CgStatus::MaxIterations: return "max-iterations";
    case CgStatus::Breakdown: return "breakdown";
    }
    return "unknown";
}

CgResult pcg(const ApplyFn& apply, std::span<const double> inv_diag, std::span<const double> b,
             std::span<double> x, const CgOptions& opts, const DotFn& dot_in) {
    const std::size_t n = b.size();
    assert(x.size() == n && inv_diag.size() == n);
    const DotFn dot = dot_in ? dot_in : DotFn{[](std::span<const double> u,
                                                 std::span<const double> v) {
        return blaslite::ddot(u, v);
    }};

    std::vector<double> r(n), z(n), p(n), ap(n);
    apply(x, std::span<double>(ap));
    for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - ap[i];
    blaslite::dvmul(r, inv_diag, z);
    blaslite::dcopy(z, p);

    double rz = dot(r, z);
    CgResult res;
    res.residual_norm = std::sqrt(std::max(0.0, dot(r, r)));
    if (res.residual_norm <= opts.tolerance) {
        res.status = CgStatus::Converged;
        return res;
    }

    for (std::size_t it = 0; it < opts.max_iterations; ++it) {
        apply(p, std::span<double>(ap));
        const double pap = dot(p, ap);
        if (pap <= 0.0) { // lost positive definiteness
            res.status = CgStatus::Breakdown;
            return res;
        }
        const double alpha = rz / pap;
        blaslite::daxpy(alpha, p, x);
        blaslite::daxpy(-alpha, ap, r);
        res.iterations = it + 1;
        res.residual_norm = std::sqrt(std::max(0.0, dot(r, r)));
        if (res.residual_norm <= opts.tolerance) {
            res.status = CgStatus::Converged;
            return res;
        }
        blaslite::dvmul(r, inv_diag, z);
        const double rz_next = dot(r, z);
        const double beta = rz_next / rz;
        rz = rz_next;
        for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
    }
    return res;
}

} // namespace la
