#include "nektar/static_condensation.hpp"

#include <algorithm>
#include <cstdlib>
#include <cassert>
#include <deque>
#include <set>
#include <stdexcept>

#include "blaslite/blas.hpp"

namespace nektar {

namespace {

/// Reverse Cuthill-McKee over the boundary dofs, adjacency given by shared
/// elements (same algorithm as the full dof map, restricted to the Schur
/// system).
std::vector<int> boundary_rcm(const std::vector<std::vector<int>>& elem_bdofs,
                              std::size_t n_dofs) {
    std::vector<std::vector<int>> dof_elems(n_dofs);
    for (std::size_t e = 0; e < elem_bdofs.size(); ++e)
        for (int d : elem_bdofs[e]) dof_elems[static_cast<std::size_t>(d)].push_back(static_cast<int>(e));
    const auto neighbours = [&](int d) {
        std::set<int> nb;
        for (int e : dof_elems[static_cast<std::size_t>(d)])
            for (int u : elem_bdofs[static_cast<std::size_t>(e)])
                if (u != d) nb.insert(u);
        return nb;
    };
    std::vector<int> order;
    order.reserve(n_dofs);
    std::vector<char> seen(n_dofs, 0);
    for (std::size_t start = 0; start < n_dofs; ++start) {
        if (seen[start]) continue;
        std::deque<int> queue{static_cast<int>(start)};
        seen[start] = 1;
        while (!queue.empty()) {
            const int d = queue.front();
            queue.pop_front();
            order.push_back(d);
            for (int u : neighbours(d)) {
                if (seen[static_cast<std::size_t>(u)]) continue;
                seen[static_cast<std::size_t>(u)] = 1;
                queue.push_back(u);
            }
        }
    }
    std::vector<int> perm(n_dofs);
    for (std::size_t i = 0; i < n_dofs; ++i)
        perm[static_cast<std::size_t>(order[n_dofs - 1 - i])] = static_cast<int>(i);
    return perm;
}

} // namespace

SchurBlocks condense(const ElemMatrices& mats, double lambda, std::size_t nb) {
    const std::size_t nm = mats.lap.rows();
    const std::size_t ni = nm - nb;
    la::DenseMatrix h = mats.lap;
    blaslite::daxpy(lambda, std::span<const double>(mats.mass.data(), nm * nm),
                    std::span<double>(h.data(), nm * nm));
    SchurBlocks sb{.schur = la::DenseMatrix(nb, nb), .k = la::DenseMatrix(ni, nb),
                   .hii_inv = la::DenseMatrix(ni, ni)};
    la::DenseMatrix hib(ni, nb);
    for (std::size_t i = 0; i < ni; ++i) {
        for (std::size_t j = 0; j < ni; ++j) sb.hii_inv(i, j) = h(nb + i, nb + j);
        for (std::size_t j = 0; j < nb; ++j) hib(i, j) = h(nb + i, j);
    }
    for (std::size_t i = 0; i < nb; ++i)
        for (std::size_t j = 0; j < nb; ++j) sb.schur(i, j) = h(i, j);
    if (ni == 0) return sb;
    if (!la::spd_inverse(sb.hii_inv))
        throw std::runtime_error("condense: interior block not SPD");
    sb.k = la::matmul(sb.hii_inv, hib);
    // S -= H_bi K, H_bi being the top-right block of h.
    blaslite::dgemm(-1.0, h.data() + nb, nm, sb.k.data(), nb, 1.0, sb.schur.data(), nb, nb, nb,
                    ni);
    for (std::size_t i = 0; i < nb; ++i)
        for (std::size_t j = 0; j < i; ++j)
            sb.schur(i, j) = sb.schur(j, i) = 0.5 * (sb.schur(i, j) + sb.schur(j, i));
    blaslite::detail::charge(nb * (nb - 1), nb * (nb - 1) * sizeof(double),
                             nb * (nb - 1) * sizeof(double));
    return sb;
}

CondensedHelmholtz::CondensedHelmholtz(std::shared_ptr<const Discretization> disc,
                                       double lambda, HelmholtzBC bc)
    : disc_(std::move(disc)),
      lambda_(lambda),
      bc_(std::move(bc)),
      flat_map_(disc_->mesh(), disc_->order(), /*renumber=*/false) {
    const std::size_t P = disc_->order();
    const mesh::Mesh& m = disc_->mesh();
    nb_ = m.num_vertices() + m.num_edges() * (P - 1);

    // Boundary dof lists per element (flat ids; boundary modes come first in
    // the expansion ordering and map below nb_ in the flat numbering).
    std::vector<std::vector<int>> elem_bdofs(disc_->num_elements());
    for (std::size_t e = 0; e < disc_->num_elements(); ++e) {
        const auto& map = flat_map_.element_map(e);
        const std::size_t nmb = disc_->ops(e).expansion().num_boundary_modes();
        for (std::size_t i = 0; i < nmb; ++i) {
            assert(map[i].global < static_cast<int>(nb_));
            elem_bdofs[e].push_back(map[i].global);
        }
    }
    bperm_ = boundary_rcm(elem_bdofs, nb_);

    std::size_t kd = 0;
    for (const auto& bd : elem_bdofs)
        for (int a : bd)
            for (int b : bd)
                kd = std::max(kd, static_cast<std::size_t>(
                                      std::abs(bperm_[static_cast<std::size_t>(a)] -
                                               bperm_[static_cast<std::size_t>(b)])));

    la::SymBandedMatrix schur(nb_, kd);
    elems_.resize(disc_->num_elements());
    for (std::size_t e = 0; e < disc_->num_elements(); ++e) {
        const ElemMatrices* mats = disc_->ops(e).matrix_identity();
        auto it = blocks_.find(mats);
        if (it == blocks_.end())
            it = blocks_.emplace(mats, condense(*mats, lambda_, elem_bdofs[e].size())).first;
        elems_[e] = &it->second;
        // Assemble in the global orientation: S_glob = D S D with D the
        // element's boundary-mode signs.
        const la::DenseMatrix& s = it->second.schur;
        const auto& map = flat_map_.element_map(e);
        for (std::size_t i = 0; i < s.rows(); ++i) {
            const int gi = bperm_[static_cast<std::size_t>(elem_bdofs[e][i])];
            for (std::size_t j = 0; j <= i; ++j) {
                const int gj = bperm_[static_cast<std::size_t>(elem_bdofs[e][j])];
                schur.add(static_cast<std::size_t>(gi), static_cast<std::size_t>(gj),
                          map[i].sign * map[j].sign * s(i, j));
            }
        }
    }

    // Dirichlet reduction, as in HelmholtzDirect.
    for (int d : flat_map_.boundary_dofs([&](mesh::BoundaryTag t) { return bc_.is_dirichlet(t); }))
        dirichlet_dofs_.push_back(bperm_[static_cast<std::size_t>(d)]);
    if (bc_.pin_first_dof && dirichlet_dofs_.empty())
        dirichlet_dofs_.push_back(bperm_[static_cast<std::size_t>(
            flat_map_.element_map(0)[disc_->ops(0).expansion().vertex_mode(0)].global)]);
    std::sort(dirichlet_dofs_.begin(), dirichlet_dofs_.end());
    is_dirichlet_.assign(nb_, 0);
    for (int d : dirichlet_dofs_) is_dirichlet_[static_cast<std::size_t>(d)] = 1;
    for (int d : dirichlet_dofs_) {
        const auto du = static_cast<std::size_t>(d);
        const std::size_t lo = du > kd ? du - kd : 0;
        const std::size_t hi = std::min(nb_ - 1, du + kd);
        for (std::size_t r = lo; r <= hi; ++r) {
            if (is_dirichlet_[r]) continue;
            const double v = schur.at(r, du);
            if (v != 0.0) lift_.emplace_back(static_cast<int>(r), d, v);
        }
    }
    for (int d : dirichlet_dofs_) {
        const auto du = static_cast<std::size_t>(d);
        const std::size_t lo = du > kd ? du - kd : 0;
        const std::size_t hi = std::min(nb_ - 1, du + kd);
        for (std::size_t r = lo; r <= hi; ++r) {
            if (r == du) continue;
            const double v = schur.at(r, du);
            if (v != 0.0) schur.add(r, du, -v);
        }
        schur.band(0, du) = 1.0;
    }
    if (!chol_.factor(std::move(schur)))
        throw std::runtime_error("CondensedHelmholtz: Schur complement not SPD");
}

std::vector<double> CondensedHelmholtz::solve(
    std::span<const double> f_quad, const std::function<double(double, double)>& g) const {
    // Local weak RHS per element, condensed: l_b - D K^T l_i (H_bi H_ii^-1
    // is K^T; interior modes carry sign +1).
    std::vector<double> rhs(nb_, 0.0);
    std::vector<std::vector<double>> li(disc_->num_elements()); // interior rhs
    std::vector<double> cb;
    for (std::size_t e = 0; e < disc_->num_elements(); ++e) {
        const ElementOps& ops = disc_->ops(e);
        const auto& map = flat_map_.element_map(e);
        const SchurBlocks& sb = *elems_[e];
        const std::size_t nmb = sb.k.cols();
        const std::size_t nmi = sb.k.rows();
        std::vector<double> l(ops.num_modes(), 0.0);
        ops.weak_inner(disc_->quad_block(f_quad, e), l);
        li[e].assign(l.begin() + static_cast<std::ptrdiff_t>(nmb), l.end());
        cb.assign(nmb, 0.0);
        if (nmi > 0)
            blaslite::dgemv_t(1.0, sb.k.data(), nmb, nmi, nmb, li[e].data(), 0.0, cb.data());
        for (std::size_t i = 0; i < nmb; ++i)
            rhs[static_cast<std::size_t>(bperm_[static_cast<std::size_t>(map[i].global)])] +=
                map[i].sign * (l[i] - cb[i]);
    }

    // Dirichlet data on the condensed system.
    std::vector<double> bvals(nb_, 0.0);
    if (g) {
        for (const auto& [dof, v] : flat_map_.dirichlet_values(
                 [&](mesh::BoundaryTag t) { return bc_.is_dirichlet(t); }, g))
            bvals[static_cast<std::size_t>(bperm_[static_cast<std::size_t>(dof)])] = v;
    }
    for (const auto& [r, d, v] : lift_)
        rhs[static_cast<std::size_t>(r)] -= v * bvals[static_cast<std::size_t>(d)];
    for (int d : dirichlet_dofs_) rhs[static_cast<std::size_t>(d)] = bvals[static_cast<std::size_t>(d)];
    chol_.solve(rhs);

    // Interior back-substitution: u_i = H_ii^-1 l_i - K u_b, u_b in the
    // element's own orientation.
    std::vector<double> modal(disc_->modal_size(), 0.0);
    std::vector<double> ub;
    for (std::size_t e = 0; e < disc_->num_elements(); ++e) {
        const auto& map = flat_map_.element_map(e);
        const SchurBlocks& sb = *elems_[e];
        const std::size_t nmb = sb.k.cols();
        const std::size_t nmi = sb.k.rows();
        auto out = disc_->modal_block(std::span<double>(modal), e);
        ub.resize(nmb);
        for (std::size_t i = 0; i < nmb; ++i)
            ub[i] = out[i] = map[i].sign * rhs[static_cast<std::size_t>(
                                               bperm_[static_cast<std::size_t>(map[i].global)])];
        if (nmi == 0) continue;
        blaslite::dgemv(1.0, sb.hii_inv.data(), nmi, nmi, nmi, li[e].data(), 0.0,
                        out.data() + nmb);
        blaslite::dgemv(-1.0, sb.k.data(), nmb, nmi, nmb, ub.data(), 1.0, out.data() + nmb);
    }
    return modal;
}

} // namespace nektar
