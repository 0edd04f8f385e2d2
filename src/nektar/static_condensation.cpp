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
        const ElementOps& ops = disc_->ops(e);
        const auto& map = flat_map_.element_map(e);
        const std::size_t nm = ops.num_modes();
        const std::size_t nmb = ops.expansion().num_boundary_modes();
        const std::size_t nmi = nm - nmb;
        // Signed elemental Helmholtz matrix (global-orientation basis).
        la::DenseMatrix h(nm, nm);
        for (std::size_t i = 0; i < nm; ++i)
            for (std::size_t j = 0; j < nm; ++j)
                h(i, j) = map[i].sign * map[j].sign *
                          (ops.laplacian()(i, j) + lambda_ * ops.mass()(i, j));
        ElemData& ed = elems_[e];
        ed.a_bi = la::DenseMatrix(nmb, nmi);
        la::DenseMatrix a_ii(nmi, nmi);
        for (std::size_t i = 0; i < nmb; ++i)
            for (std::size_t j = 0; j < nmi; ++j) ed.a_bi(i, j) = h(i, nmb + j);
        for (std::size_t i = 0; i < nmi; ++i)
            for (std::size_t j = 0; j < nmi; ++j) a_ii(i, j) = h(nmb + i, nmb + j);
        ed.a_ii_chol = a_ii;
        if (nmi > 0 && !la::cholesky_factor(ed.a_ii_chol))
            throw std::runtime_error("CondensedHelmholtz: interior block not SPD");

        // X = A_ii^{-1} A_ib, column by column; S = A_bb - A_bi X.
        la::DenseMatrix x(nmi, nmb);
        std::vector<double> col(nmi);
        for (std::size_t j = 0; j < nmb; ++j) {
            for (std::size_t i = 0; i < nmi; ++i) col[i] = ed.a_bi(j, i); // A_ib col j
            if (nmi > 0) la::cholesky_solve(ed.a_ii_chol, col);
            for (std::size_t i = 0; i < nmi; ++i) x(i, j) = col[i];
        }
        for (std::size_t i = 0; i < nmb; ++i) {
            const int gi = bperm_[static_cast<std::size_t>(elem_bdofs[e][i])];
            for (std::size_t j = 0; j <= i; ++j) {
                const int gj = bperm_[static_cast<std::size_t>(elem_bdofs[e][j])];
                double s = h(i, j);
                for (std::size_t k = 0; k < nmi; ++k) s -= ed.a_bi(i, k) * x(k, j);
                schur.add(static_cast<std::size_t>(gi), static_cast<std::size_t>(gj), s);
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
    // Signed local weak RHS per element, then condensation of the interiors.
    std::vector<double> rhs(nb_, 0.0);
    std::vector<std::vector<double>> li(disc_->num_elements()); // signed interior rhs
    for (std::size_t e = 0; e < disc_->num_elements(); ++e) {
        const ElementOps& ops = disc_->ops(e);
        const auto& map = flat_map_.element_map(e);
        const std::size_t nm = ops.num_modes();
        const std::size_t nmb = ops.expansion().num_boundary_modes();
        const std::size_t nmi = nm - nmb;
        std::vector<double> l(nm, 0.0);
        ops.weak_inner(disc_->quad_block(f_quad, e), l);
        for (std::size_t i = 0; i < nm; ++i) l[i] *= map[i].sign;
        li[e].assign(l.begin() + static_cast<std::ptrdiff_t>(nmb), l.end());
        std::vector<double> w = li[e];
        if (nmi > 0) la::cholesky_solve(elems_[e].a_ii_chol, w);
        for (std::size_t i = 0; i < nmb; ++i) {
            double s = l[i];
            for (std::size_t k = 0; k < nmi; ++k) s -= elems_[e].a_bi(i, k) * w[k];
            rhs[static_cast<std::size_t>(
                bperm_[static_cast<std::size_t>(map[i].global)])] += s;
        }
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

    // Interior back-substitution: u_i = A_ii^{-1} (l_i - A_ib u_b).
    std::vector<double> modal(disc_->modal_size(), 0.0);
    for (std::size_t e = 0; e < disc_->num_elements(); ++e) {
        const ElementOps& ops = disc_->ops(e);
        const auto& map = flat_map_.element_map(e);
        const std::size_t nm = ops.num_modes();
        const std::size_t nmb = ops.expansion().num_boundary_modes();
        const std::size_t nmi = nm - nmb;
        auto out = disc_->modal_block(std::span<double>(modal), e);
        std::vector<double> ub(nmb);
        for (std::size_t i = 0; i < nmb; ++i) {
            ub[i] = rhs[static_cast<std::size_t>(
                bperm_[static_cast<std::size_t>(map[i].global)])];
            out[i] = map[i].sign * ub[i];
        }
        if (nmi == 0) continue;
        std::vector<double> w = li[e];
        for (std::size_t k = 0; k < nmi; ++k) {
            double s = w[k];
            for (std::size_t i = 0; i < nmb; ++i) s -= elems_[e].a_bi(i, k) * ub[i];
            w[k] = s;
        }
        la::cholesky_solve(elems_[e].a_ii_chol, w);
        for (std::size_t k = 0; k < nmi; ++k) out[nmb + k] = map[nmb + k].sign * w[k];
    }
    return modal;
}

} // namespace nektar
