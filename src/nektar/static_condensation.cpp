#include "nektar/static_condensation.hpp"

#include <algorithm>
#include <cstdlib>
#include <cassert>
#include <deque>
#include <stdexcept>

#include "blaslite/blas.hpp"

namespace nektar {

namespace {

/// Reversed breadth-first numbering of the boundary dofs, adjacency given
/// by shared elements.  Unlike the full dof map's RCM there is no degree
/// sort: each dof's unvisited neighbours enter the queue in ascending id,
/// and each component starts from its lowest unvisited id.
std::vector<int> boundary_rcm(const std::vector<std::vector<int>>& elem_bdofs,
                              std::size_t n_dofs) {
    std::vector<std::vector<int>> dof_elems(n_dofs);
    for (std::size_t e = 0; e < elem_bdofs.size(); ++e)
        for (int d : elem_bdofs[e]) dof_elems[static_cast<std::size_t>(d)].push_back(static_cast<int>(e));
    std::vector<int> order;
    order.reserve(n_dofs);
    std::vector<char> seen(n_dofs, 0);
    std::vector<int> nb;
    for (std::size_t start = 0; start < n_dofs; ++start) {
        if (seen[start]) continue;
        std::deque<int> queue{static_cast<int>(start)};
        seen[start] = 1;
        while (!queue.empty()) {
            const int d = queue.front();
            queue.pop_front();
            order.push_back(d);
            // Unvisited neighbours in ascending order (repeats are skipped
            // below, once the first copy is marked seen).
            nb.clear();
            for (int e : dof_elems[static_cast<std::size_t>(d)])
                for (int u : elem_bdofs[static_cast<std::size_t>(e)])
                    if (!seen[static_cast<std::size_t>(u)]) nb.push_back(u);
            std::sort(nb.begin(), nb.end());
            for (int u : nb) {
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
    : disc_(std::move(disc)), lambda_(lambda), bc_(std::move(bc)) {
    const DofMap& dm = disc_->dofmap();
    // The boundary (vertex and edge) dofs are the ones some element maps a
    // boundary mode to.  Number them in the dof map's order, then renumber
    // by a boundary-only RCM pass.
    std::vector<int> local(dm.num_global(), -1);
    std::vector<std::vector<int>> elem_bdofs(disc_->num_elements());
    for (std::size_t e = 0; e < disc_->num_elements(); ++e) {
        const auto& map = dm.element_map(e);
        for (std::size_t i = 0; i < disc_->ops(e).expansion().num_boundary_modes(); ++i) {
            local[static_cast<std::size_t>(map[i].global)] = 0;
            elem_bdofs[e].push_back(map[i].global);
        }
    }
    std::size_t nb = 0;
    for (int& l : local)
        if (l == 0) l = static_cast<int>(nb++);
    for (auto& bd : elem_bdofs)
        for (int& d : bd) d = local[static_cast<std::size_t>(d)];
    const std::vector<int> bperm = boundary_rcm(elem_bdofs, nb);
    bidx_.assign(dm.num_global(), -1);
    bglobal_.resize(nb);
    for (std::size_t g = 0; g < dm.num_global(); ++g) {
        if (local[g] < 0) continue;
        const int b = bperm[static_cast<std::size_t>(local[g])];
        bidx_[g] = b;
        bglobal_[static_cast<std::size_t>(b)] = static_cast<int>(g);
    }
    for (const auto& bd : elem_bdofs)
        for (int a : bd)
            for (int b : bd)
                kd_ = std::max(kd_, static_cast<std::size_t>(
                                        std::abs(bperm[static_cast<std::size_t>(a)] -
                                                 bperm[static_cast<std::size_t>(b)])));

    elems_.resize(disc_->num_elements());
    for (std::size_t e = 0; e < disc_->num_elements(); ++e) {
        const ElemMatrices* mats = disc_->ops(e).matrix_identity();
        auto it = blocks_.find(mats);
        if (it == blocks_.end())
            it = blocks_.emplace(mats, condense(*mats, lambda_, elem_bdofs[e].size())).first;
        elems_[e] = &it->second;
    }
    la::SymBandedMatrix schur = assemble_schur();
    dirichlet_ = DirichletReduction(schur, dirichlet_rows());
    if (!chol_.factor(std::move(schur)))
        throw std::runtime_error("CondensedHelmholtz: Schur complement not SPD");
}

la::SymBandedMatrix CondensedHelmholtz::assemble_schur() const {
    const DofMap& dm = disc_->dofmap();
    la::SymBandedMatrix schur(bglobal_.size(), kd_);
    const auto row = [&](const LocalDof& ld) {
        return static_cast<std::size_t>(bidx_[static_cast<std::size_t>(ld.global)]);
    };
    for (std::size_t e = 0; e < disc_->num_elements(); ++e) {
        // Assemble in the global orientation: S_glob = D S D with D the
        // element's boundary-mode signs.
        const la::DenseMatrix& s = elems_[e]->schur;
        const auto& map = dm.element_map(e);
        for (std::size_t i = 0; i < s.rows(); ++i)
            for (std::size_t j = 0; j <= i; ++j)
                schur.add(row(map[i]), row(map[j]), map[i].sign * map[j].sign * s(i, j));
    }
    return schur;
}

std::vector<int> CondensedHelmholtz::dirichlet_rows() const {
    // Every constrained dof is a vertex or edge dof, so a Schur row.
    std::vector<int> rows;
    for (int d : constrained_dofs(*disc_, bc_)) rows.push_back(bidx_[static_cast<std::size_t>(d)]);
    std::sort(rows.begin(), rows.end());
    return rows;
}

la::SymBandedMatrix CondensedHelmholtz::schur_matrix() const {
    la::SymBandedMatrix schur = assemble_schur();
    (void)DirichletReduction(schur, dirichlet_rows());
    return schur;
}

void CondensedHelmholtz::condense_rhs(std::span<const double> rhs,
                                      std::span<const double> dirichlet,
                                      std::span<double> rb) const {
    const std::size_t nb = bglobal_.size();
    std::vector<double> values(nb);
    for (std::size_t b = 0; b < nb; ++b) {
        const auto g = static_cast<std::size_t>(bglobal_[b]);
        rb[b] = rhs[g];
        values[b] = dirichlet[g];
    }
    // H_bi H_ii^-1 is K^T; interior modes carry sign +1.
    std::vector<double> fi, cb;
    for (std::size_t e = 0; e < disc_->num_elements(); ++e) {
        const SchurBlocks& sb = *elems_[e];
        const std::size_t nbe = sb.k.cols(), ni = sb.k.rows();
        if (ni == 0) continue;
        const auto& map = disc_->dofmap().element_map(e);
        fi.resize(ni);
        for (std::size_t i = 0; i < ni; ++i)
            fi[i] = rhs[static_cast<std::size_t>(map[nbe + i].global)];
        cb.resize(nbe);
        blaslite::dgemv_t(1.0, sb.k.data(), nbe, ni, nbe, fi.data(), 0.0, cb.data());
        for (std::size_t i = 0; i < nbe; ++i)
            rb[static_cast<std::size_t>(bidx_[static_cast<std::size_t>(map[i].global)])] -=
                map[i].sign * cb[i];
    }
    dirichlet_.impose(rb, values);
}

std::vector<double> CondensedHelmholtz::back_solve(std::span<const double> rhs,
                                                   std::span<const double> xb) const {
    std::vector<double> modal(disc_->modal_size(), 0.0);
    std::vector<double> fi, ub;
    for (std::size_t e = 0; e < disc_->num_elements(); ++e) {
        const SchurBlocks& sb = *elems_[e];
        const std::size_t nbe = sb.k.cols(), ni = sb.k.rows();
        const auto& map = disc_->dofmap().element_map(e);
        auto out = disc_->modal_block(std::span<double>(modal), e);
        ub.resize(nbe);
        for (std::size_t i = 0; i < nbe; ++i)
            ub[i] = out[i] =
                map[i].sign * xb[static_cast<std::size_t>(bidx_[static_cast<std::size_t>(map[i].global)])];
        if (ni == 0) continue;
        fi.resize(ni);
        for (std::size_t i = 0; i < ni; ++i)
            fi[i] = rhs[static_cast<std::size_t>(map[nbe + i].global)];
        blaslite::dgemv(1.0, sb.hii_inv.data(), ni, ni, ni, fi.data(), 0.0, out.data() + nbe);
        blaslite::dgemv(-1.0, sb.k.data(), nbe, ni, nbe, ub.data(), 1.0, out.data() + nbe);
    }
    return modal;
}

std::vector<double> CondensedHelmholtz::solve_global(std::span<const double> rhs,
                                                     std::span<const double> dirichlet) const {
    std::vector<double> rb(bglobal_.size());
    condense_rhs(rhs, dirichlet, rb);
    chol_.solve(rb);
    return back_solve(rhs, rb);
}

std::vector<std::vector<double>> CondensedHelmholtz::solve_global(
    const std::vector<std::vector<double>>& rhs,
    const std::vector<std::span<const double>>& dirichlet) const {
    assert(rhs.size() == dirichlet.size());
    std::vector<std::vector<double>> rb(rhs.size(), std::vector<double>(bglobal_.size()));
    for (std::size_t q = 0; q < rhs.size(); ++q) condense_rhs(rhs[q], dirichlet[q], rb[q]);
    const std::vector<std::span<double>> views(rb.begin(), rb.end());
    chol_.solve(views);
    std::vector<std::vector<double>> modal;
    modal.reserve(rhs.size());
    for (std::size_t q = 0; q < rhs.size(); ++q) modal.push_back(back_solve(rhs[q], rb[q]));
    return modal;
}

std::vector<double> CondensedHelmholtz::solve(
    std::span<const double> f_quad, const std::function<double(double, double)>& g) const {
    return solve_global(weak_rhs(*disc_, f_quad), dirichlet_vector(g));
}

} // namespace nektar
