#pragma once

#include <cstddef>
#include <vector>

#include "nektar/transpose.hpp"

/// Closed-form reference for the distributed transpose.  Test planes hold a
/// function of (global plane, point) only, so the lines buffer every rank
/// must end up with — padding zeros included — can be written down without
/// running any exchange, for either TransposeKind.
namespace transpose_oracle {

/// Value at global plane `gp`, point `i`; never 0, which marks padding.
inline double value(std::size_t gp, std::size_t i) {
    return 1000.0 * static_cast<double>(gp) + static_cast<double>(i) + 1.0;
}

/// `rank`'s planes buffer: planes[lp * nq + i] = value(rank * nplanes + lp, i).
inline std::vector<double> planes(const nektar::Transpose& tr, std::size_t nq, int rank) {
    const std::size_t npl = tr.total_planes() / tr.num_ranks();
    std::vector<double> p(tr.planes_buffer_size());
    for (std::size_t lp = 0; lp < npl; ++lp)
        for (std::size_t i = 0; i < nq; ++i)
            p[lp * nq + i] = value(static_cast<std::size_t>(rank) * npl + lp, i);
    return p;
}

/// The lines buffer to_lines must deliver on `rank` from planes() inputs.
inline std::vector<double> lines(const nektar::Transpose& tr, std::size_t nq, int rank) {
    const std::size_t tp = tr.total_planes();
    std::vector<double> l(tr.lines_buffer_size());
    for (std::size_t i = 0; i < tr.chunk(); ++i) {
        const std::size_t gi = tr.global_point(i, rank);
        for (std::size_t gp = 0; gp < tp; ++gp) l[i * tp + gp] = gi < nq ? value(gp, gi) : 0.0;
    }
    return l;
}

} // namespace transpose_oracle
