#include "nektar/helmholtz.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "blaslite/blas.hpp"
#include "parallel/scratch.hpp"

namespace nektar {

std::vector<double> weak_rhs(const Discretization& disc, std::span<const double> f_quad) {
    std::vector<double> rhs(disc.dofmap().num_global(), 0.0);
    std::vector<double> local(disc.modal_size(), 0.0);
    disc.weak_inner(f_quad, local);
    disc.gather_add(local, rhs);
    return rhs;
}

std::vector<int> constrained_dofs(const Discretization& disc, const HelmholtzBC& bc) {
    std::vector<int> dofs = disc.dofmap().boundary_dofs(
        [&](mesh::BoundaryTag t) { return bc.is_dirichlet(t); });
    if (bc.pin_first_dof && dofs.empty()) {
        // Pin a *vertex* dof: the Neumann Laplacian's null space (constants)
        // has nonzero components only on vertex dofs, so pinning a bubble or
        // edge dof would leave the matrix singular.
        const auto& map0 = disc.dofmap().element_map(0);
        dofs.push_back(map0[disc.ops(0).expansion().vertex_mode(0)].global);
    }
    return dofs;
}

std::vector<double> dirichlet_data(const Discretization& disc, const HelmholtzBC& bc,
                                   const std::function<double(double, double)>& g) {
    std::vector<double> bvals(disc.dofmap().num_global(), 0.0);
    if (g) {
        const auto vals = disc.dofmap().dirichlet_values(
            [&](mesh::BoundaryTag t) { return bc.is_dirichlet(t); }, g);
        for (const auto& [dof, v] : vals) bvals[static_cast<std::size_t>(dof)] = v;
    }
    return bvals;
}

DirichletReduction::DirichletReduction(la::SymBandedMatrix& h, std::vector<int> dofs)
    : dofs_(std::move(dofs)) {
    const std::size_t n = h.size();
    const std::size_t kd = h.bandwidth();
    std::vector<char> constrained(n, 0);
    for (int d : dofs_) constrained[static_cast<std::size_t>(d)] = 1;
    for (int d : dofs_) {
        const auto du = static_cast<std::size_t>(d);
        const std::size_t lo = du > kd ? du - kd : 0;
        const std::size_t hi = std::min(n - 1, du + kd);
        for (std::size_t r = lo; r <= hi; ++r) {
            if (constrained[r]) continue;
            const double v = h.at(r, du);
            if (v != 0.0) lift_.emplace_back(static_cast<int>(r), d, v);
        }
    }
    for (int d : dofs_) {
        const auto du = static_cast<std::size_t>(d);
        const std::size_t lo = du > kd ? du - kd : 0;
        const std::size_t hi = std::min(n - 1, du + kd);
        for (std::size_t r = lo; r <= hi; ++r) {
            if (r == du) continue;
            const double v = h.at(r, du);
            if (v != 0.0) h.add(r, du, -v);
        }
        h.band(0, du) = 1.0;
    }
}

void DirichletReduction::impose(std::span<double> rhs, std::span<const double> values) const {
    for (const auto& [r, d, v] : lift_)
        rhs[static_cast<std::size_t>(r)] -= v * values[static_cast<std::size_t>(d)];
    for (int d : dofs_) rhs[static_cast<std::size_t>(d)] = values[static_cast<std::size_t>(d)];
}

HelmholtzDirect::HelmholtzDirect(std::shared_ptr<const Discretization> disc, double lambda,
                                 HelmholtzBC bc)
    : disc_(std::move(disc)), lambda_(lambda), bc_(std::move(bc)) {
    const DofMap& dm = disc_->dofmap();
    la::SymBandedMatrix h(dm.num_global(), dm.bandwidth());
    for (std::size_t e = 0; e < disc_->num_elements(); ++e) {
        const ElementOps& ops = disc_->ops(e);
        const auto& map = dm.element_map(e);
        const std::size_t nm = ops.num_modes();
        for (std::size_t i = 0; i < nm; ++i) {
            for (std::size_t j = 0; j <= i; ++j) {
                const double v = map[i].sign * map[j].sign *
                                 (ops.laplacian()(i, j) + lambda_ * ops.mass()(i, j));
                h.add(static_cast<std::size_t>(map[i].global),
                      static_cast<std::size_t>(map[j].global),
                      (map[i].global == map[j].global && i != j) ? 2.0 * v : v);
            }
        }
    }
    dirichlet_ = DirichletReduction(h, constrained_dofs(*disc_, bc_));
    if (!chol_.factor(std::move(h)))
        throw std::runtime_error("HelmholtzDirect: matrix not positive definite "
                                 "(all-Neumann Poisson needs pin_first_dof)");
}

std::vector<double> HelmholtzDirect::to_modal(std::span<const double> x) const {
    std::vector<double> modal(disc_->modal_size());
    disc_->scatter(x, modal);
    return modal;
}

std::vector<double> HelmholtzDirect::solve_global(std::vector<double> rhs,
                                                  std::span<const double> dirichlet) const {
    dirichlet_.impose(rhs, dirichlet);
    chol_.solve(rhs);
    return to_modal(rhs);
}

std::vector<std::vector<double>> HelmholtzDirect::solve_global(
    std::vector<std::vector<double>> rhs,
    const std::vector<std::span<const double>>& dirichlet) const {
    assert(rhs.size() == dirichlet.size());
    for (std::size_t q = 0; q < rhs.size(); ++q) dirichlet_.impose(rhs[q], dirichlet[q]);
    const std::vector<std::span<double>> views(rhs.begin(), rhs.end());
    chol_.solve(views);
    std::vector<std::vector<double>> modal;
    modal.reserve(rhs.size());
    for (const std::vector<double>& x : rhs) modal.push_back(to_modal(x));
    return modal;
}

std::vector<double> HelmholtzDirect::solve(std::span<const double> f_quad,
                                           const std::function<double(double, double)>& g) const {
    return solve_global(weak_rhs(*disc_, f_quad), dirichlet_vector(g));
}

// ---------------------------------------------------------------------------
// Matrix-free apply
// ---------------------------------------------------------------------------

void helmholtz_apply(const Discretization& disc,
                     const std::function<const la::DenseMatrix&(const ElemMatrices&)>& stiff_of,
                     double lambda, std::span<const double> x, std::span<double> y,
                     std::span<const char> mask,
                     const std::function<void(std::span<double>)>& assemble) {
    assert(x.size() == y.size() && (mask.empty() || mask.size() == x.size()));
    std::fill(y.begin(), y.end(), 0.0);
    const DofMap& dm = disc.dofmap();
    const std::vector<ElemGroup>& groups = disc.groups();
    // One batch's panels: a contiguous run's blocks, or a single element's.
    std::size_t panel = 0;
    for (const ElemGroup& g : groups)
        for (const ElemGroup::MatrixRun& run : g.runs)
            panel = std::max(panel, g.exp->num_modes() * (g.contiguous ? run.count : 1));
    parallel::Scratch xs(panel), ys(panel);
    const bool masked = !mask.empty();
    const auto gather = [&](std::size_t e, double* xe, std::size_t nm) {
        const std::vector<LocalDof>& map = dm.element_map(e);
        for (std::size_t i = 0; i < nm; ++i) {
            const auto gi = static_cast<std::size_t>(map[i].global);
            xe[i] = map[i].sign * (masked && mask[gi] ? 0.0 : x[gi]);
        }
    };
    const auto scatter_add = [&](std::size_t e, const double* ye, std::size_t nm) {
        const std::vector<LocalDof>& map = dm.element_map(e);
        for (std::size_t i = 0; i < nm; ++i)
            y[static_cast<std::size_t>(map[i].global)] += map[i].sign * ye[i];
    };

    // Batches go in ascending element order, so every global dof sums its
    // element contributions in gather_add's order even where groups
    // interleave (mixed meshes).  A contiguous group's run covers adjacent
    // elements that no other group owns, so it is one batch; a
    // non-contiguous group advances one element at a time.
    struct Cursor {
        std::size_t run = 0, j = 0;
    };
    std::vector<Cursor> at(groups.size());
    for (;;) {
        std::size_t gi = groups.size(), e0 = 0;
        for (std::size_t h = 0; h < groups.size(); ++h) {
            const ElemGroup& g = groups[h];
            if (at[h].run == g.runs.size()) continue;
            const std::size_t e = g.elems[g.runs[at[h].run].first + at[h].j];
            if (gi == groups.size() || e < e0) {
                gi = h;
                e0 = e;
            }
        }
        if (gi == groups.size()) break;
        const ElemGroup& g = groups[gi];
        Cursor& c = at[gi];
        const ElemGroup::MatrixRun& run = g.runs[c.run];
        const la::DenseMatrix& op = stiff_of(*run.mats);
        const std::size_t nm = op.rows();
        assert(nm <= g.exp->num_modes() && (lambda == 0.0 || nm == g.exp->num_modes()));
        const double* stiff = op.data();
        const double* mass = run.mats->mass.data();
        if (g.contiguous) {
            for (std::size_t j = 0; j < run.count; ++j) gather(e0 + j, xs.data() + j * nm, nm);
            blaslite::dgemm_cm(1.0, stiff, nm, xs.data(), nm, 0.0, ys.data(), nm, nm,
                               run.count, nm);
            if (lambda != 0.0)
                blaslite::dgemm_cm(lambda, mass, nm, xs.data(), nm, 1.0, ys.data(), nm, nm,
                                   run.count, nm);
            for (std::size_t j = 0; j < run.count; ++j)
                scatter_add(e0 + j, ys.data() + j * nm, nm);
            ++c.run;
        } else {
            gather(e0, xs.data(), nm);
            blaslite::dgemv(1.0, stiff, nm, nm, nm, xs.data(), 0.0, ys.data());
            if (lambda != 0.0)
                blaslite::dgemv(lambda, mass, nm, nm, nm, xs.data(), 1.0, ys.data());
            scatter_add(e0, ys.data(), nm);
            if (++c.j == run.count) {
                c.j = 0;
                ++c.run;
            }
        }
    }
    if (assemble) assemble(y);
    if (masked)
        for (std::size_t i = 0; i < y.size(); ++i)
            if (mask[i]) y[i] = x[i];
}

// ---------------------------------------------------------------------------
// PCG path
// ---------------------------------------------------------------------------

HelmholtzPCG::HelmholtzPCG(std::shared_ptr<const Discretization> disc, double lambda,
                           HelmholtzBC bc, la::CgOptions opts)
    : disc_(std::move(disc)), lambda_(lambda), bc_(std::move(bc)), opts_(opts) {
    is_dirichlet_.assign(disc_->dofmap().num_global(), 0);
    for (int d : constrained_dofs(*disc_, bc_)) is_dirichlet_[static_cast<std::size_t>(d)] = 1;
    // Assembled diagonal for the Jacobi preconditioner.
    const DofMap& dm = disc_->dofmap();
    std::vector<double> diag(dm.num_global(), 0.0);
    for (std::size_t e = 0; e < disc_->num_elements(); ++e) {
        const ElementOps& ops = disc_->ops(e);
        const auto& map = dm.element_map(e);
        for (std::size_t i = 0; i < ops.num_modes(); ++i)
            diag[static_cast<std::size_t>(map[i].global)] +=
                ops.laplacian()(i, i) + lambda_ * ops.mass()(i, i);
    }
    inv_diag_.resize(diag.size());
    for (std::size_t i = 0; i < diag.size(); ++i)
        inv_diag_[i] = is_dirichlet_[i] ? 1.0 : 1.0 / diag[i];

    // Fuse L + lambda*M once per matrix class: the per-CG-iteration apply
    // then runs one matrix product per congruent-element run instead of two
    // dgemvs per element.
    for (const ElemGroup& g : disc_->groups()) {
        for (const ElemGroup::MatrixRun& run : g.runs) {
            if (fused_.count(run.mats)) continue;
            la::DenseMatrix h = run.mats->lap;
            const la::DenseMatrix& mass = run.mats->mass;
            for (std::size_t i = 0; i < h.rows() * h.cols(); ++i)
                h.data()[i] += lambda_ * mass.data()[i];
            fused_.emplace(run.mats, std::move(h));
        }
    }
}

void HelmholtzPCG::apply(std::span<const double> x, std::span<double> y,
                         std::span<const char> mask) const {
    helmholtz_apply(
        *disc_,
        [this](const ElemMatrices& m) -> const la::DenseMatrix& { return fused_.at(&m); },
        0.0, x, y, mask);
}

std::vector<double> HelmholtzPCG::solve(std::span<const double> f_quad,
                                        const std::function<double(double, double)>& g) const {
    const std::size_t n = disc_->dofmap().num_global();
    std::vector<double> rhs = weak_rhs(*disc_, f_quad);
    std::vector<double> x = dirichlet_data(*disc_, bc_, g);
    // Lift: rhs <- rhs - H x0 on free dofs, then solve for the correction
    // with homogeneous constraints.
    std::vector<double> hx(n);
    apply(x, hx);
    for (std::size_t i = 0; i < n; ++i) rhs[i] = is_dirichlet_[i] ? 0.0 : rhs[i] - hx[i];

    const auto masked_apply = [&](std::span<const double> in, std::span<double> out) {
        apply(in, out, is_dirichlet_);
    };
    std::vector<double> dx(n, 0.0);
    const la::CgResult res = la::pcg(masked_apply, inv_diag_, rhs, dx, opts_);
    last_iters_ = res.iterations;
    if (!res.converged())
        throw std::runtime_error(std::string("HelmholtzPCG: CG stopped (") +
                                 la::to_string(res.status) + ") after " +
                                 std::to_string(res.iterations) + " iterations at residual " +
                                 std::to_string(res.residual_norm));
    blaslite::daxpy(1.0, dx, x);

    std::vector<double> modal(disc_->modal_size());
    disc_->scatter(x, modal);
    return modal;
}

} // namespace nektar
