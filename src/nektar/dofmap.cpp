#include "nektar/dofmap.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <numeric>
#include <set>

#include "la/dense.hpp"
#include "spectral/basis1d.hpp"
#include "spectral/jacobi.hpp"

namespace nektar {

namespace {

/// Reverse Cuthill-McKee over an implicit dof graph given by dof -> elements
/// incidence: two dofs are adjacent iff they appear in a common element.
/// Only O(n_dofs) scratch is kept (no global adjacency): each dof's
/// neighbours are collected from its elements when it is needed.
std::vector<int> rcm_permutation(const std::vector<std::vector<LocalDof>>& maps,
                                 std::size_t n_dofs) {
    // dof -> elements in ascending element order (CSR).
    std::vector<std::size_t> first(n_dofs + 1, 0);
    for (const auto& map : maps)
        for (const LocalDof& ld : map) ++first[static_cast<std::size_t>(ld.global) + 1];
    std::partial_sum(first.begin(), first.end(), first.begin());
    std::vector<std::size_t> dof_elems(first[n_dofs]);
    {
        std::vector<std::size_t> next(first.begin(), first.end() - 1);
        for (std::size_t e = 0; e < maps.size(); ++e)
            for (const LocalDof& ld : maps[e])
                dof_elems[next[static_cast<std::size_t>(ld.global)]++] = e;
    }
    const auto for_each_incident = [&](std::size_t d, auto&& visit) {
        for (std::size_t k = first[d]; k < first[d + 1]; ++k)
            for (const LocalDof& ld : maps[dof_elems[k]])
                visit(static_cast<std::size_t>(ld.global));
    };

    // Degree: distinct dofs sharing an element with d, d itself included.
    std::vector<int> degree(n_dofs, 0);
    {
        std::vector<std::size_t> stamp(n_dofs, n_dofs);
        for (std::size_t d = 0; d < n_dofs; ++d)
            for_each_incident(d, [&](std::size_t u) {
                if (stamp[u] != d) {
                    stamp[u] = d;
                    ++degree[d];
                }
            });
    }

    // Breadth-first; `order` doubles as the queue.  Each dof's unvisited
    // neighbours are sorted by id, then by degree with std::sort: that sort
    // is not stable, so the ascending input is what fixes the order of
    // equal degrees.
    std::vector<int> order;
    order.reserve(n_dofs);
    std::vector<char> seen(n_dofs, 0);
    std::vector<int> nb;
    for (std::size_t start = 0; start < n_dofs; ++start) {
        if (seen[start]) continue;
        seen[start] = 1;
        order.push_back(static_cast<int>(start));
        for (std::size_t head = order.size() - 1; head < order.size(); ++head) {
            nb.clear();
            for_each_incident(static_cast<std::size_t>(order[head]), [&](std::size_t u) {
                if (!seen[u]) {
                    seen[u] = 1;
                    nb.push_back(static_cast<int>(u));
                }
            });
            std::sort(nb.begin(), nb.end());
            std::sort(nb.begin(), nb.end(), [&](int a, int b) {
                return degree[static_cast<std::size_t>(a)] < degree[static_cast<std::size_t>(b)];
            });
            order.insert(order.end(), nb.begin(), nb.end());
        }
    }
    // Reverse (the "R" of RCM) and invert into a permutation old -> new.
    std::vector<int> perm(n_dofs, -1);
    for (std::size_t i = 0; i < n_dofs; ++i)
        perm[static_cast<std::size_t>(order[n_dofs - 1 - i])] = static_cast<int>(i);
    return perm;
}

} // namespace

DofMap::DofMap(const mesh::Mesh& m, std::size_t order, bool renumber)
    : mesh_(&m), order_(order) {
    const std::size_t P = order;
    const std::size_t em = P - 1; // interior modes per edge
    vertex_dof_.resize(m.num_vertices());
    std::iota(vertex_dof_.begin(), vertex_dof_.end(), 0);
    edge_dof_base_.resize(m.num_edges());
    int next = static_cast<int>(m.num_vertices());
    for (std::size_t ed = 0; ed < m.num_edges(); ++ed) {
        edge_dof_base_[ed] = next;
        next += static_cast<int>(em);
    }

    maps_.resize(m.num_elements());
    for (std::size_t e = 0; e < m.num_elements(); ++e) {
        const mesh::Element& el = m.element(e);
        const auto exp = spectral::make_expansion(el.shape, P);
        std::vector<LocalDof>& map = maps_[e];
        map.resize(exp->num_modes());
        const std::size_t nv = exp->num_vertices();
        for (std::size_t v = 0; v < nv; ++v)
            map[exp->vertex_mode(v)] = {vertex_dof_[static_cast<std::size_t>(el.v[v])], 1.0};
        for (std::size_t le = 0; le < exp->num_edges(); ++le) {
            const int edge_id = m.element_edge(e, le);
            const mesh::Edge& edge = m.edge(static_cast<std::size_t>(edge_id));
            const auto [a, b] = exp->edge_vertices(le);
            // Our local direction runs a -> b; the global direction runs from
            // the smaller to the larger vertex id.
            const bool reversed = el.v[a] != edge.v0;
            assert(reversed ? (el.v[a] == edge.v1 && el.v[b] == edge.v0)
                            : (el.v[b] == edge.v1));
            for (std::size_t j = 1; j <= em; ++j) {
                const double sign = reversed ? spectral::edge_reversal_sign(j) : 1.0;
                map[exp->edge_mode(le, j)] = {
                    edge_dof_base_[static_cast<std::size_t>(edge_id)] + static_cast<int>(j - 1),
                    sign};
            }
        }
        for (std::size_t i = exp->interior_begin(); i < exp->num_modes(); ++i)
            map[i] = {next++, 1.0};
    }
    num_global_ = static_cast<std::size_t>(next);

    if (renumber) {
        perm_ = rcm_permutation(maps_, num_global_);
    } else {
        perm_.resize(num_global_);
        std::iota(perm_.begin(), perm_.end(), 0);
    }
    for (auto& map : maps_)
        for (LocalDof& ld : map) ld.global = perm_[static_cast<std::size_t>(ld.global)];

    bandwidth_ = 0;
    for (const auto& map : maps_) {
        const auto [lo, hi] = std::minmax_element(
            map.begin(), map.end(),
            [](const LocalDof& a, const LocalDof& b) { return a.global < b.global; });
        bandwidth_ = std::max(bandwidth_, static_cast<std::size_t>(hi->global - lo->global));
    }
    build_edge_projection();
}

std::vector<int> DofMap::boundary_dofs(
    const std::function<bool(mesh::BoundaryTag)>& pred) const {
    std::set<int> dofs;
    const std::size_t em = order_ - 1;
    for (std::size_t ed = 0; ed < mesh_->num_edges(); ++ed) {
        const mesh::Edge& edge = mesh_->edge(ed);
        if (!edge.is_boundary() || !pred(edge.tag)) continue;
        dofs.insert(perm_[static_cast<std::size_t>(vertex_dof_[static_cast<std::size_t>(edge.v0)])]);
        dofs.insert(perm_[static_cast<std::size_t>(vertex_dof_[static_cast<std::size_t>(edge.v1)])]);
        for (std::size_t j = 0; j < em; ++j)
            dofs.insert(perm_[static_cast<std::size_t>(edge_dof_base_[ed]) + j]);
    }
    return {dofs.begin(), dofs.end()};
}

void DofMap::build_edge_projection() {
    const std::size_t P = order_;
    const std::size_t em = P - 1;
    // 1-D bubble mass matrix and quadrature, shared across edges (the edge
    // length scales both sides of the projection and cancels).
    edge_rule_ = spectral::gauss_lobatto(P + 2);
    const std::size_t nq = edge_rule_.size();
    edge_phi_ = la::DenseMatrix(nq, em);
    for (std::size_t q = 0; q < nq; ++q)
        for (std::size_t i = 1; i <= em; ++i)
            edge_phi_(q, i - 1) = spectral::modal_basis(i, P, edge_rule_.points[q]);
    edge_mass_chol_ = la::DenseMatrix(em, em);
    for (std::size_t i = 0; i < em; ++i)
        for (std::size_t j = 0; j < em; ++j) {
            double s = 0.0;
            for (std::size_t q = 0; q < nq; ++q)
                s += edge_rule_.weights[q] * edge_phi_(q, i) * edge_phi_(q, j);
            edge_mass_chol_(i, j) = s;
        }
    [[maybe_unused]] const bool ok = la::cholesky_factor(edge_mass_chol_);
    assert(ok);
}

std::vector<std::pair<int, double>> DofMap::dirichlet_values(
    const std::function<bool(mesh::BoundaryTag)>& pred,
    const std::function<double(double, double)>& g) const {
    const std::size_t em = order_ - 1;
    const spectral::QuadratureRule& rule = edge_rule_;
    std::map<int, double> values;
    for (std::size_t ed = 0; ed < mesh_->num_edges(); ++ed) {
        const mesh::Edge& edge = mesh_->edge(ed);
        if (!edge.is_boundary() || !pred(edge.tag)) continue;
        const mesh::Vertex& a = mesh_->vertex(static_cast<std::size_t>(edge.v0));
        const mesh::Vertex& b = mesh_->vertex(static_cast<std::size_t>(edge.v1));
        const double ga = g(a.x, a.y);
        const double gb = g(b.x, b.y);
        values[perm_[static_cast<std::size_t>(vertex_dof_[static_cast<std::size_t>(edge.v0)])]] = ga;
        values[perm_[static_cast<std::size_t>(vertex_dof_[static_cast<std::size_t>(edge.v1)])]] = gb;
        if (em == 0) continue;
        std::vector<double> rhs(em, 0.0);
        for (std::size_t q = 0; q < rule.size(); ++q) {
            const double t = rule.points[q];
            const double x = 0.5 * (1.0 - t) * a.x + 0.5 * (1.0 + t) * b.x;
            const double y = 0.5 * (1.0 - t) * a.y + 0.5 * (1.0 + t) * b.y;
            const double resid = g(x, y) - (0.5 * (1.0 - t) * ga + 0.5 * (1.0 + t) * gb);
            for (std::size_t i = 0; i < em; ++i)
                rhs[i] += rule.weights[q] * edge_phi_(q, i) * resid;
        }
        la::cholesky_solve(edge_mass_chol_, rhs);
        for (std::size_t j = 0; j < em; ++j)
            values[perm_[static_cast<std::size_t>(edge_dof_base_[ed]) + j]] = rhs[j];
    }
    return {values.begin(), values.end()};
}

} // namespace nektar
