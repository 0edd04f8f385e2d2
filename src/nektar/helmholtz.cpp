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

la::SymBandedMatrix assemble_helmholtz(const Discretization& disc, double lambda) {
    const DofMap& dm = disc.dofmap();
    la::SymBandedMatrix h(dm.num_global(), dm.bandwidth());
    for (std::size_t e = 0; e < disc.num_elements(); ++e) {
        const ElementOps& ops = disc.ops(e);
        const auto& map = dm.element_map(e);
        const std::size_t nm = ops.num_modes();
        for (std::size_t i = 0; i < nm; ++i) {
            for (std::size_t j = 0; j <= i; ++j) {
                const double v = map[i].sign * map[j].sign *
                                 (ops.laplacian()(i, j) + lambda * ops.mass()(i, j));
                h.add(static_cast<std::size_t>(map[i].global),
                      static_cast<std::size_t>(map[j].global),
                      (map[i].global == map[j].global && i != j) ? 2.0 * v : v);
            }
        }
    }
    return h;
}

HelmholtzDirect::HelmholtzDirect(std::shared_ptr<const Discretization> disc, double lambda,
                                 HelmholtzBC bc)
    : disc_(std::move(disc)), lambda_(lambda), bc_(std::move(bc)) {
    la::SymBandedMatrix h = assemble_helmholtz(*disc_, lambda_);
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

std::vector<const la::DenseMatrix*> run_operators(
    const Discretization& disc,
    const std::function<const la::DenseMatrix&(const ElemMatrices&)>& stiff_of) {
    std::vector<const la::DenseMatrix*> ops;
    for (const ElemGroup& g : disc.groups())
        for (const ElemGroup::MatrixRun& run : g.runs) ops.push_back(&stiff_of(*run.mats));
    return ops;
}

void helmholtz_apply(const Discretization& disc, std::span<const la::DenseMatrix* const> ops,
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
        std::size_t first = 0; ///< the group's first run in `ops`
    };
    std::vector<Cursor> at(groups.size());
    for (std::size_t h = 1; h < groups.size(); ++h)
        at[h].first = at[h - 1].first + groups[h - 1].runs.size();
    assert(ops.size() == (groups.empty() ? 0 : at.back().first + groups.back().runs.size()));
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
        const la::DenseMatrix& op = *ops[c.first + c.run];
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

DofAssembly::DofAssembly(std::size_t n, simmpi::Comm* comm, std::unique_ptr<gs::GatherScatter> gs)
    : comm_(comm), gs_(std::move(gs)), weights_(n, 1.0) {
    if (!gs_) return;
    std::vector<double> mult(n, 1.0);
    sum(mult);
    for (std::size_t i = 0; i < n; ++i) weights_[i] = 1.0 / mult[i];
}

double DofAssembly::dot(std::span<const double> a, std::span<const double> b) const {
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) s += weights_[i] * a[i] * b[i];
    blaslite::detail::charge(3 * a.size(), 3 * a.size() * sizeof(double), 0);
    return comm_ ? comm_->allreduce_sum(s) : s;
}

HelmholtzPCG::HelmholtzPCG(std::shared_ptr<const Discretization> disc, double lambda,
                           HelmholtzBC bc, la::CgOptions opts, System system,
                           const DofAssembly* assembly)
    : disc_(std::move(disc)),
      lambda_(lambda),
      bc_(std::move(bc)),
      opts_(opts),
      system_(system),
      assembly_(assembly) {
    if (bc_.pin_first_dof && assembly_ && assembly_->ranks() > 1)
        throw std::invalid_argument("HelmholtzPCG: pin_first_dof on " +
                                    std::to_string(assembly_->ranks()) +
                                    " ranks would pin every rank's element 0");
    const DofMap& dm = disc_->dofmap();
    mask_.assign(dm.num_global(), 0);
    for (int d : constrained_dofs(*disc_, bc_)) mask_[static_cast<std::size_t>(d)] = 1;

    // The condensed unknowns are the leading global dofs: every dof but the
    // elements' interiors, which the non-renumbered map numbers last.
    n_ = dm.num_global();
    if (system_ == System::Condensed)
        for (std::size_t e = 0; e < disc_->num_elements(); ++e) {
            const spectral::Expansion& exp = disc_->ops(e).expansion();
            n_ -= exp.num_modes() - exp.num_boundary_modes();
        }

    // Assembled diagonal for the Jacobi preconditioner.
    std::vector<double> diag(n_, 0.0);
    for (std::size_t e = 0; e < disc_->num_elements(); ++e) {
        const ElementOps& ops = disc_->ops(e);
        const auto& map = dm.element_map(e);
        if (system_ == System::Full) {
            for (std::size_t i = 0; i < ops.num_modes(); ++i)
                diag[static_cast<std::size_t>(map[i].global)] +=
                    ops.laplacian()(i, i) + lambda_ * ops.mass()(i, i);
            continue;
        }
        const ElemMatrices* mats = ops.matrix_identity();
        const std::size_t nbe = ops.expansion().num_boundary_modes();
        assert(nbe == ops.num_modes() || static_cast<std::size_t>(map[nbe].global) >= n_);
        auto it = blocks_.find(mats);
        if (it == blocks_.end()) it = blocks_.emplace(mats, condense(*mats, lambda_, nbe)).first;
        const la::DenseMatrix& s = it->second.schur;
        for (std::size_t i = 0; i < s.rows(); ++i)
            diag[static_cast<std::size_t>(map[i].global)] += s(i, i);
    }
    if (assembly_) assembly_->sum(diag);
    inv_diag_.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) inv_diag_[i] = mask_[i] ? 1.0 : 1.0 / diag[i];
    // L and lambda M stay separate terms; a Schur complement has lambda
    // folded in.
    ops_ = run_operators(*disc_, [this](const ElemMatrices& m) -> const la::DenseMatrix& {
        return system_ == System::Full ? m.lap : blocks_.at(&m).schur;
    });
}

void HelmholtzPCG::apply(std::span<const double> x, std::span<double> y,
                         std::span<const char> mask, bool assemble) const {
    std::function<void(std::span<double>)> sum;
    if (assemble && assembly_) sum = [this](std::span<double> v) { assembly_->sum(v); };
    helmholtz_apply(*disc_, ops_, system_ == System::Full ? lambda_ : 0.0, x, y, mask, sum);
}

std::vector<double> HelmholtzPCG::solve(std::span<const double> f_quad,
                                        const std::function<double(double, double)>& g) const {
    std::vector<double> rhs = weak_rhs(*disc_, f_quad);
    if (assembly_) assembly_->sum(rhs);
    const std::vector<double> x = solve_global(rhs, dirichlet_vector(g));
    std::vector<double> modal(disc_->modal_size());
    disc_->scatter(x, modal);
    return modal;
}

std::vector<double> HelmholtzPCG::solve_global(std::span<const double> rhs,
                                               std::vector<double> x,
                                               std::string_view what) const {
    assert(rhs.size() == x.size() && x.size() == mask_.size());
    const std::span<double> xs(x.data(), n_);
    const DofMap& dm = disc_->dofmap();
    // Lift: r = f - H x0 on free rows.  The condensed system also moves the
    // interiors' forcing onto the boundary, f_b - sum_e D K^T f_i, and
    // parks w = H_ii^-1 f_i in x_i for the back-solve (x0 is zero there).
    std::vector<double> y(n_), cb;
    apply(xs, y, {}, false);
    if (system_ == System::Condensed) {
        for (std::size_t e = 0; e < disc_->num_elements(); ++e) {
            const SchurBlocks& sb = blocks(e);
            const std::size_t nbe = sb.k.cols(), ni = sb.k.rows();
            if (ni == 0) continue;
            const auto& map = dm.element_map(e);
            const auto i0 = static_cast<std::size_t>(map[nbe].global);
            blaslite::dgemv(1.0, sb.hii_inv.data(), ni, ni, ni, rhs.data() + i0, 0.0,
                            x.data() + i0);
            cb.resize(nbe);
            blaslite::dgemv_t(1.0, sb.k.data(), nbe, ni, nbe, rhs.data() + i0, 0.0, cb.data());
            for (std::size_t i = 0; i < nbe; ++i)
                y[static_cast<std::size_t>(map[i].global)] += map[i].sign * cb[i];
        }
    }
    if (assembly_) assembly_->sum(y);
    std::vector<double> r(n_);
    for (std::size_t i = 0; i < n_; ++i) r[i] = mask_[i] ? 0.0 : rhs[i] - y[i];

    // With the interiors eliminated exactly, the Schur residual is the full
    // system's boundary residual: the tolerance keeps its meaning.
    const std::span<const char> mask(mask_.data(), n_);
    const auto masked_apply = [&](std::span<const double> in, std::span<double> out) {
        apply(in, out, mask);
    };
    la::DotFn dot; // la::pcg's local ddot without an assembly
    if (assembly_) dot = [this](auto a, auto b) { return assembly_->dot(a, b); };
    std::vector<double> dx(n_, 0.0);
    const la::CgResult res = la::pcg(masked_apply, inv_diag_, r, dx, opts_, dot);
    last_iters_ = res.iterations;
    if (!res.converged())
        throw std::runtime_error(std::string(what) + " stopped (" + la::to_string(res.status) +
                                 ") after " + std::to_string(res.iterations) +
                                 " iterations at residual " + std::to_string(res.residual_norm));
    blaslite::daxpy(1.0, dx, xs);

    // Interior back-solve: x_i = w - K D x_b, element by element.
    if (system_ == System::Condensed) {
        std::vector<double> ub;
        for (std::size_t e = 0; e < disc_->num_elements(); ++e) {
            const SchurBlocks& sb = blocks(e);
            const std::size_t nbe = sb.k.cols(), ni = sb.k.rows();
            if (ni == 0) continue;
            const auto& map = dm.element_map(e);
            ub.resize(nbe);
            for (std::size_t i = 0; i < nbe; ++i)
                ub[i] = map[i].sign * x[static_cast<std::size_t>(map[i].global)];
            blaslite::dgemv(-1.0, sb.k.data(), nbe, ni, nbe, ub.data(), 1.0,
                            x.data() + static_cast<std::size_t>(map[nbe].global));
        }
    }
    return x;
}

} // namespace nektar
