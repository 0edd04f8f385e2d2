#include "nektar/ns_ale.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <stdexcept>
#include <string>

#include "blaslite/blas.hpp"

namespace nektar {

namespace {

/// Local element selection and vertex renumbering for one rank's sub-mesh.
/// The vertex renumbering is monotone in the original ids so that edge
/// directions (smaller id first) are preserved, keeping edge-mode signs
/// identical between the full and local dof maps.
struct SubMesh {
    std::vector<std::size_t> elements;          ///< original element ids
    std::vector<int> vertex_of_original;        ///< orig vid -> local vid (-1)
    std::shared_ptr<mesh::Mesh> mesh;
};

SubMesh build_submesh(const mesh::Mesh& full, const std::vector<int>& part, int rank) {
    SubMesh sub;
    sub.vertex_of_original.assign(full.num_vertices(), -1);
    std::vector<int> used;
    for (std::size_t e = 0; e < full.num_elements(); ++e) {
        if (part[e] != rank) continue;
        sub.elements.push_back(e);
        const auto& el = full.element(e);
        for (int k = 0; k < el.num_vertices(); ++k) used.push_back(el.v[static_cast<std::size_t>(k)]);
    }
    std::sort(used.begin(), used.end());
    used.erase(std::unique(used.begin(), used.end()), used.end());
    std::vector<mesh::Vertex> verts;
    verts.reserve(used.size());
    for (std::size_t i = 0; i < used.size(); ++i) {
        sub.vertex_of_original[static_cast<std::size_t>(used[i])] = static_cast<int>(i);
        verts.push_back(full.vertex(static_cast<std::size_t>(used[i])));
    }
    std::vector<mesh::Element> elems;
    for (std::size_t e : sub.elements) {
        mesh::Element el = full.element(e);
        for (int k = 0; k < el.num_vertices(); ++k)
            el.v[static_cast<std::size_t>(k)] =
                sub.vertex_of_original[static_cast<std::size_t>(el.v[static_cast<std::size_t>(k)])];
        elems.push_back(el);
    }
    sub.mesh = std::make_shared<mesh::Mesh>(std::move(verts), std::move(elems));
    // Transfer boundary tags by original vertex pair.
    std::map<std::pair<int, int>, mesh::BoundaryTag> tags;
    for (const auto& ed : full.edges())
        if (ed.tag != mesh::BoundaryTag::None) tags[{ed.v0, ed.v1}] = ed.tag;
    auto& m = *sub.mesh;
    // Edges of the sub-mesh reference local vids; map back through `used`.
    for (std::size_t i = 0; i < m.num_edges(); ++i) {
        const auto& ed = m.edge(i);
        const int o0 = used[static_cast<std::size_t>(ed.v0)];
        const int o1 = used[static_cast<std::size_t>(ed.v1)];
        const auto it = tags.find({std::min(o0, o1), std::max(o0, o1)});
        if (it != tags.end()) {
            const auto& a = m.vertex(static_cast<std::size_t>(ed.v0));
            const auto& b = m.vertex(static_cast<std::size_t>(ed.v1));
            const double mx = 0.5 * (a.x + b.x), my = 0.5 * (a.y + b.y);
            const auto tag = it->second;
            m.tag_boundary(tag, [&](double x, double y) {
                return std::abs(x - mx) < 1e-12 && std::abs(y - my) < 1e-12;
            });
        }
    }
    return sub;
}

} // namespace

AleNS2d::AleNS2d(const mesh::Mesh& full_mesh, std::size_t order, AleOptions opts,
                 simmpi::Comm* comm, const std::vector<int>* elem_part)
    : SolverCore(opts.time_order, opts.dt, /*num_fields=*/2),
      opts_(std::move(opts)),
      comm_(comm),
      order_(order) {
    const int rank = comm_ ? comm_->rank() : 0;
    std::vector<int> part(full_mesh.num_elements(), 0);
    if (comm_ && comm_->size() > 1) {
        if (!elem_part) throw std::invalid_argument("AleNS2d: parallel run needs a partition");
        part = *elem_part;
    }
    SubMesh sub = build_submesh(full_mesh, part, rank);
    if (sub.elements.empty()) throw std::invalid_argument("AleNS2d: rank owns no elements");
    local_mesh_ = sub.mesh;
    backend_ = compute::resolve(opts_.backend, compute::default_backend());
    disc_ = std::make_shared<Discretization>(local_mesh_, order_, /*renumber=*/false,
                                             backend_);

    // Global dof ids for gather-scatter: derived from a dof map of the full
    // mesh (identical on every rank).
    if (comm_ && comm_->size() > 1) {
        const DofMap full_dm(full_mesh, order_, /*renumber=*/false);
        std::vector<std::int64_t> gids(disc_->dofmap().num_global(), -1);
        for (std::size_t le = 0; le < sub.elements.size(); ++le) {
            const auto& fmap = full_dm.element_map(sub.elements[le]);
            const auto& lmap = disc_->dofmap().element_map(le);
            for (std::size_t i = 0; i < fmap.size(); ++i) {
                gids[static_cast<std::size_t>(lmap[i].global)] = fmap[i].global;
                assert(fmap[i].sign == lmap[i].sign && "orientation must be preserved");
            }
        }
        gs_ = std::make_unique<gs::GatherScatter>(*comm_, gids, gs::GatherScatter::Strategy::Auto,
                                                  opts_.overlap_gs
                                                      ? gs::GatherScatter::Exchange::Nonblocking
                                                      : gs::GatherScatter::Exchange::Blocking);
    }

    // Dot-product weights: 1 / multiplicity so shared dofs count once.
    dot_weights_.assign(disc_->dofmap().num_global(), 1.0);
    if (gs_) {
        std::vector<double> mult(dot_weights_.size(), 1.0);
        gs_->sum(*comm_, mult);
        for (std::size_t i = 0; i < mult.size(); ++i) dot_weights_[i] = 1.0 / mult[i];
    }

    const auto mask_for = [&](const HelmholtzBC& bc) {
        std::vector<char> mask(disc_->dofmap().num_global(), 0);
        for (int d : disc_->dofmap().boundary_dofs(
                 [&](mesh::BoundaryTag t) { return bc.is_dirichlet(t); }))
            mask[static_cast<std::size_t>(d)] = 1;
        return mask;
    };
    vel_dirichlet_ = mask_for(opts_.velocity_bc);
    p_dirichlet_ = mask_for(opts_.pressure_bc);
    HelmholtzBC mesh_bc{.dirichlet = {mesh::BoundaryTag::Inflow, mesh::BoundaryTag::Outflow,
                                      mesh::BoundaryTag::Side, mesh::BoundaryTag::Wall,
                                      mesh::BoundaryTag::Body}};
    mesh_dirichlet_ = mask_for(mesh_bc);

    const std::size_t nm = disc_->modal_size();
    const std::size_t nq = disc_->quad_size();
    u_modal_.assign(nm, 0.0);
    v_modal_.assign(nm, 0.0);
    p_modal_.assign(nm, 0.0);
    uq_.assign(nq, 0.0);
    vq_.assign(nq, 0.0);
    wq_.assign(nq, 0.0);
    reset_state(nq);
    set_checkpoint_cadence(opts_.checkpoint_every);
    if (opts_.trace) {
        std::string lane = opts_.trace_lane;
        if (lane.empty()) lane = comm_ ? "rank " + std::to_string(comm_->rank()) : "solver";
        // Comm-backed ranks stamp stage spans on the seeded virtual clock so
        // the trace stream is bit-deterministic; serial runs use host time.
        if (comm_ != nullptr)
            configure_trace(lane, [c = comm_]() { return c->wall_time(); });
        else
            configure_trace(lane);
    }
}

void AleNS2d::rebuild_discretization() {
    // The per-step rebuild keeps the same compute backend: a Discretization
    // built with backend_ resolves Auto call sites to it.
    disc_ = std::make_shared<Discretization>(local_mesh_, order_, /*renumber=*/false,
                                             backend_);
    condensed_.reset();
}

std::uint64_t AleNS2d::options_fingerprint() const {
    ckpt::Fingerprint fp;
    fp.add("AleNS2d")
        .add(compute::to_string(backend_))
        .add(opts_.dt)
        .add(opts_.viscosity)
        .add(static_cast<std::uint64_t>(opts_.time_order))
        .add(static_cast<std::uint64_t>(order_))
        .add(static_cast<std::uint64_t>(local_mesh_->num_vertices()))
        .add(static_cast<std::uint64_t>(local_mesh_->num_elements()))
        .add(opts_.cg.tolerance)
        .add(static_cast<std::uint64_t>(opts_.cg.max_iterations))
        .add(static_cast<std::uint64_t>(comm_ ? comm_->size() : 1));
    return fp.value();
}

void AleNS2d::save_state(ckpt::Checkpoint& c) const {
    auto& w = c.add("fields");
    w.f64v(u_modal_);
    w.f64v(v_modal_);
    w.f64v(p_modal_);
    w.f64v(uq_);
    w.f64v(vq_);
    w.f64v(wq_);
    // Vertex positions: the mesh moves every step, so the geometry is state.
    // The topology (elements, tags, gather-scatter pattern, Dirichlet masks)
    // is construction-time constant and fingerprinted instead.
    auto& m = c.add("mesh");
    m.u64(local_mesh_->num_vertices());
    for (std::size_t i = 0; i < local_mesh_->num_vertices(); ++i) {
        const auto& v = local_mesh_->vertex(i);
        m.f64(v.x);
        m.f64(v.y);
    }
    if (comm_ != nullptr) comm_->save_state(c.add("comm"));
}

void AleNS2d::restore_state(const ckpt::Checkpoint& c) {
    auto r = c.open("fields");
    auto take = [&](std::vector<double>& dst) {
        std::vector<double> v = r.f64v();
        if (v.size() != dst.size()) r.fail("field size out of range");
        dst = std::move(v);
    };
    take(u_modal_);
    take(v_modal_);
    take(p_modal_);
    take(uq_);
    take(vq_);
    take(wq_);
    r.expect_end();

    auto m = c.open("mesh");
    if (m.u64() != local_mesh_->num_vertices()) m.fail("vertex count out of range");
    for (std::size_t i = 0; i < local_mesh_->num_vertices(); ++i) {
        mesh::Vertex v = local_mesh_->vertex(i);
        v.x = m.f64();
        v.y = m.f64();
        local_mesh_->set_vertex(i, v);
    }
    m.expect_end();
    // Geometry factors and operators follow the restored vertex positions.
    rebuild_discretization();

    if (comm_ != nullptr) {
        auto cr = c.open("comm");
        comm_->restore_state(cr);
    }
}

void AleNS2d::gs_assemble(std::span<double> global) const {
    if (gs_) gs_->sum(*comm_, global);
}

double AleNS2d::global_dot(std::span<const double> a, std::span<const double> b) const {
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) s += dot_weights_[i] * a[i] * b[i];
    blaslite::detail::charge(3 * a.size(), 3 * a.size() * sizeof(double), 0);
    return comm_ ? comm_->allreduce_sum(s) : s;
}

std::vector<double> AleNS2d::weak_rhs(std::span<const double> quad) const {
    std::vector<double> local(disc_->modal_size(), 0.0);
    disc_->weak_inner(quad, local);
    std::vector<double> rhs(disc_->dofmap().num_global(), 0.0);
    disc_->gather_add(local, rhs);
    gs_assemble(rhs);
    return rhs;
}

std::vector<double> AleNS2d::dirichlet_x(const HelmholtzBC& bc,
                                         const std::function<double(double, double)>& g) const {
    std::vector<double> x(disc_->dofmap().num_global(), 0.0);
    const auto vals = disc_->dofmap().dirichlet_values(
        [&](mesh::BoundaryTag t) { return bc.is_dirichlet(t); }, g);
    for (const auto& [dof, v] : vals) x[static_cast<std::size_t>(dof)] = v;
    return x;
}

void AleNS2d::check(AleSolve which, const la::CgResult& res) const {
    last_iters_[static_cast<std::size_t>(which)] = res.iterations;
    if (res.converged()) return;
    static constexpr std::array<const char*, 4> kName = {"mesh", "pressure", "u", "v"};
    throw std::runtime_error(
        std::string("AleNS2d: ") + kName[static_cast<std::size_t>(which)] +
        " PCG solve of step " + std::to_string(steps_taken()) + " stopped (" +
        la::to_string(res.status) + ") after " + std::to_string(res.iterations) +
        " iterations at residual " + std::to_string(res.residual_norm));
}

void AleNS2d::pcg_solve(AleSolve which, double lambda, const std::vector<char>& dirichlet,
                        std::span<const double> rhs, std::span<double> x) const {
    const std::size_t n = x.size();
    // Assembled diagonal for the Jacobi preconditioner.
    std::vector<double> diag(n, 0.0);
    for (std::size_t e = 0; e < disc_->num_elements(); ++e) {
        const ElementOps& ops = disc_->ops(e);
        const auto& map = disc_->dofmap().element_map(e);
        for (std::size_t i = 0; i < ops.num_modes(); ++i)
            diag[static_cast<std::size_t>(map[i].global)] +=
                ops.laplacian()(i, i) + lambda * ops.mass()(i, i);
    }
    gs_assemble(diag);
    std::vector<double> inv_diag(n);
    for (std::size_t i = 0; i < n; ++i) inv_diag[i] = dirichlet[i] ? 1.0 : 1.0 / diag[i];

    // Elemental L and lambda M stay separate terms: lambda varies between
    // solves here (ALE rebuilds each step).  Interface dofs accumulate the
    // neighbour ranks' element contributions before the masked rows are set.
    const std::function<const la::DenseMatrix&(const ElemMatrices&)> lap =
        [](const ElemMatrices& m) -> const la::DenseMatrix& { return m.lap; };
    const std::function<void(std::span<double>)> assemble = [this](std::span<double> y) {
        gs_assemble(y);
    };
    std::vector<double> hx(n);
    helmholtz_apply(*disc_, lap, lambda, x, hx, {}, assemble);
    std::vector<double> r(n);
    for (std::size_t i = 0; i < n; ++i) r[i] = dirichlet[i] ? 0.0 : rhs[i] - hx[i];

    const auto masked_apply = [&](std::span<const double> in, std::span<double> out) {
        helmholtz_apply(*disc_, lap, lambda, in, out, dirichlet, assemble);
    };
    const auto dot = [&](std::span<const double> a, std::span<const double> b) {
        return global_dot(a, b);
    };
    std::vector<double> dx(n, 0.0);
    check(which, la::pcg(masked_apply, inv_diag, r, dx, opts_.cg, dot));
    blaslite::daxpy(1.0, dx, x);
}

const AleNS2d::CondensedVelocity& AleNS2d::condensed(double lambda) const {
    if (condensed_ && condensed_->lambda == lambda) return *condensed_;
    CondensedVelocity cv;
    cv.lambda = lambda;
    cv.nb = local_mesh_->num_vertices() + local_mesh_->num_edges() * (order_ - 1);
    std::vector<double> diag(cv.nb, 0.0);
    for (std::size_t e = 0; e < disc_->num_elements(); ++e) {
        const ElemMatrices* mats = disc_->ops(e).matrix_identity();
        const std::size_t nbe = disc_->ops(e).expansion().num_boundary_modes();
        auto it = cv.blocks.find(mats);
        if (it == cv.blocks.end()) it = cv.blocks.emplace(mats, condense(*mats, lambda, nbe)).first;
        const la::DenseMatrix& s = it->second.schur;
        const auto& map = disc_->dofmap().element_map(e);
        for (std::size_t i = 0; i < s.rows(); ++i) {
            assert(static_cast<std::size_t>(map[i].global) < cv.nb);
            diag[static_cast<std::size_t>(map[i].global)] += s(i, i);
        }
    }
    gs_assemble(diag);
    cv.inv_diag.resize(cv.nb);
    for (std::size_t i = 0; i < cv.nb; ++i)
        cv.inv_diag[i] = vel_dirichlet_[i] ? 1.0 : 1.0 / diag[i];
    condensed_ = std::move(cv);
    return *condensed_;
}

void AleNS2d::condensed_solve(AleSolve which, double lambda, std::span<const double> rhs,
                              std::span<double> x) const {
    const CondensedVelocity& cv = condensed(lambda);
    const std::size_t nb = cv.nb;
    const std::function<const la::DenseMatrix&(const ElemMatrices&)> schur_of =
        [&cv](const ElemMatrices& m) -> const la::DenseMatrix& { return cv.blocks.at(&m).schur; };
    const std::function<void(std::span<double>)> assemble = [this](std::span<double> y) {
        gs_assemble(y);
    };
    // The non-renumbered dof map puts an element's interiors after every
    // vertex and edge dof, consecutively in mode order.
    const auto interior_begin = [&](std::size_t e, std::size_t nbe) {
        return static_cast<std::size_t>(disc_->dofmap().element_map(e)[nbe].global);
    };

    // Condensed residual r_b = f_b - sum_e K^T f_i - S x0 (H_bi H_ii^-1 is
    // K^T; x0 is the Dirichlet data, zero on the interiors), and x_i keeps
    // w = H_ii^-1 f_i for the back-solve.
    std::vector<double> y(nb), cb;
    helmholtz_apply(*disc_, schur_of, 0.0, x.first(nb), y);
    for (std::size_t e = 0; e < disc_->num_elements(); ++e) {
        const SchurBlocks& sb = cv.blocks.at(disc_->ops(e).matrix_identity());
        const std::size_t nbe = sb.k.cols(), ni = sb.k.rows();
        if (ni == 0) continue;
        const auto& map = disc_->dofmap().element_map(e);
        const std::size_t i0 = interior_begin(e, nbe);
        blaslite::dgemv(1.0, sb.hii_inv.data(), ni, ni, ni, rhs.data() + i0, 0.0, x.data() + i0);
        cb.resize(nbe);
        blaslite::dgemv_t(1.0, sb.k.data(), nbe, ni, nbe, rhs.data() + i0, 0.0, cb.data());
        for (std::size_t i = 0; i < nbe; ++i)
            y[static_cast<std::size_t>(map[i].global)] += map[i].sign * cb[i];
    }
    gs_assemble(y);
    std::vector<double> r(nb);
    for (std::size_t i = 0; i < nb; ++i) r[i] = vel_dirichlet_[i] ? 0.0 : rhs[i] - y[i];

    // With the interiors eliminated exactly, the Schur residual is the full
    // system's boundary residual: the tolerance keeps its meaning.
    const std::span<const char> mask(vel_dirichlet_.data(), nb);
    const auto masked_apply = [&](std::span<const double> in, std::span<double> out) {
        helmholtz_apply(*disc_, schur_of, 0.0, in, out, mask, assemble);
    };
    const auto dot = [&](std::span<const double> a, std::span<const double> b) {
        return global_dot(a, b);
    };
    std::vector<double> dx(nb, 0.0);
    check(which, la::pcg(masked_apply, cv.inv_diag, r, dx, opts_.cg, dot));
    blaslite::daxpy(1.0, dx, x.first(nb));

    // Interior back-solve: x_i = w - K x_b, element by element.
    std::vector<double> ub;
    for (std::size_t e = 0; e < disc_->num_elements(); ++e) {
        const SchurBlocks& sb = cv.blocks.at(disc_->ops(e).matrix_identity());
        const std::size_t nbe = sb.k.cols(), ni = sb.k.rows();
        if (ni == 0) continue;
        const auto& map = disc_->dofmap().element_map(e);
        ub.resize(nbe);
        for (std::size_t i = 0; i < nbe; ++i)
            ub[i] = map[i].sign * x[static_cast<std::size_t>(map[i].global)];
        blaslite::dgemv(-1.0, sb.k.data(), nbe, ni, nbe, ub.data(), 1.0,
                        x.data() + interior_begin(e, nbe));
    }
}

std::vector<double> AleNS2d::velocity_helmholtz(double lambda, std::span<const double> f_quad,
                                                const std::function<double(double, double)>& g,
                                                Path path) const {
    const std::vector<double> rhs = weak_rhs(f_quad);
    std::vector<double> x = dirichlet_x(opts_.velocity_bc, g);
    if (path == Path::Condensed)
        condensed_solve(AleSolve::U, lambda, rhs, x);
    else
        pcg_solve(AleSolve::U, lambda, vel_dirichlet_, rhs, x);
    return x;
}

void AleNS2d::load_state(const std::function<double(double, double)>& u0,
                         const std::function<double(double, double)>& v0) {
    disc_->eval_at_quad(u0, uq_);
    disc_->eval_at_quad(v0, vq_);
    disc_->project(uq_, u_modal_);
    disc_->project(vq_, v_modal_);
    disc_->to_quad(u_modal_, uq_);
    disc_->to_quad(v_modal_, vq_);
}

void AleNS2d::set_initial(const std::function<double(double, double)>& u0,
                          const std::function<double(double, double)>& v0) {
    load_state(u0, v0);
    reset_state(disc_->quad_size());
}

void AleNS2d::set_initial_exact(const VelocityBC& u, const VelocityBC& v) {
    const std::size_t nq = disc_->quad_size();
    reset_state(nq);
    // Seed the history oldest-first: t = -(Je-1) dt, ..., -dt.  The mesh (and
    // wq_ = 0) is the start-of-run configuration for every level.
    for (int q = time_order() - 1; q >= 1; --q) {
        const double t = -static_cast<double>(q) * opts_.dt;
        load_state([&](double x, double y) { return u(x, y, t); },
                   [&](double x, double y) { return v(x, y, t); });
        std::vector<std::vector<double>> nl(2, std::vector<double>(nq));
        nonlinear(nl);
        push_history({uq_, vq_}, std::move(nl));
    }
    load_state([&](double x, double y) { return u(x, y, 0.0); },
               [&](double x, double y) { return v(x, y, 0.0); });
}

// ALE extras, before the shared splitting stages run.
void AleNS2d::begin_step(const StepContext& ctx) {
    // --- Extra Helmholtz solve of step 7: the mesh velocity (Laplacian
    // smoothing of the prescribed boundary motion).
    std::vector<double> wglob(disc_->dofmap().num_global(), 0.0);
    {
        perf::StageScope scope(breakdown(), 7);
        const double vb = opts_.body_velocity(time());
        // Body edges move at vb; the outer boundary stays put.  The L2 edge
        // projection of the constant vb puts vb on the vertex dofs and zero
        // on the edge bubbles.
        std::vector<double> x(disc_->dofmap().num_global(), 0.0);
        const auto vals = disc_->dofmap().dirichlet_values(
            [&](mesh::BoundaryTag t) { return t == mesh::BoundaryTag::Body; },
            [&](double, double) { return vb; });
        for (const auto& [dof, v] : vals) x[static_cast<std::size_t>(dof)] = v;
        std::vector<double> zero_rhs(disc_->dofmap().num_global(), 0.0);
        pcg_solve(AleSolve::Mesh, 0.0, mesh_dirichlet_, zero_rhs, x);
        wglob = std::move(x);
    }

    // --- Step 2 extra: update the vertex positions with the mesh velocity
    // and rebuild the geometry factors.
    {
        perf::StageScope scope(breakdown(), 2);
        // Vertex dof value = mesh velocity at the vertex (hierarchical basis).
        for (std::size_t le = 0; le < disc_->num_elements(); ++le) {
            const auto& map = disc_->dofmap().element_map(le);
            const auto& el = local_mesh_->element(le);
            const auto& exp = disc_->ops(le).expansion();
            for (std::size_t v = 0; v < exp.num_vertices(); ++v) {
                const auto vid = static_cast<std::size_t>(el.v[v]);
                const double wv = wglob[static_cast<std::size_t>(map[exp.vertex_mode(v)].global)];
                mesh::Vertex p = local_mesh_->vertex(vid);
                p.y += ctx.dt * wv;
                local_mesh_->set_vertex(vid, p);
            }
        }
        rebuild_discretization();
        // Mesh velocity at the (new) quadrature points for the ALE advection.
        std::vector<double> wmodal(disc_->modal_size());
        disc_->scatter(wglob, wmodal);
        disc_->to_quad(wmodal, wq_);
    }
}

// Stage 1: transform to quadrature space on the new geometry.
void AleNS2d::stage_transform(const StepContext&) {
    disc_->to_quad(u_modal_, uq_);
    disc_->to_quad(v_modal_, vq_);
}

// Stage 2: ALE nonlinear terms, advecting velocity (u, v - w_mesh).
void AleNS2d::stage_nonlinear(const StepContext&, std::vector<std::vector<double>>& nl) {
    nonlinear(nl);
}

void AleNS2d::nonlinear(std::vector<std::vector<double>>& nl) const {
    const std::size_t nq = disc_->quad_size();
    // Advecting velocity is (u, v - w_mesh); the differentiated fields stay
    // (u, v).  Derivatives, chain rule, products and sign run fused in
    // compute::Backend::convect_planes.  The discretization was built with
    // backend_, so Auto resolves to it.
    std::vector<double> vrel(nq);
    for (std::size_t i = 0; i < nq; ++i) vrel[i] = vq_[i] - wq_[i];
    disc_->convect_planes(uq_, vrel, uq_, vq_, nl[0], nl[1], 1);
}

// Stage 4: pressure RHS.
void AleNS2d::stage_pressure_rhs(const StepContext& ctx,
                                 const std::vector<std::vector<double>>& hat) {
    const std::size_t nq = disc_->quad_size();
    std::vector<double> div(nq), dx(nq), dy(nq);
    for (std::size_t e = 0; e < disc_->num_elements(); ++e)
        disc_->ops(e).grad_collocation(disc_->quad_block(std::span<const double>(hat[0]), e),
                                       disc_->quad_block(std::span<double>(div), e),
                                       disc_->quad_block(std::span<double>(dy), e));
    for (std::size_t e = 0; e < disc_->num_elements(); ++e)
        disc_->ops(e).grad_collocation(disc_->quad_block(std::span<const double>(hat[1]), e),
                                       disc_->quad_block(std::span<double>(dx), e),
                                       disc_->quad_block(std::span<double>(dy), e));
    blaslite::daxpy(1.0, dy, div);
    blaslite::dscal(-1.0 / ctx.dt, div);
    prhs_ = weak_rhs(div);
}

// Stage 5: pressure PCG solve.
void AleNS2d::stage_pressure_solve(const StepContext&) {
    std::vector<double> pglob(disc_->dofmap().num_global(), 0.0);
    if (comm_) comm_->set_stage(5);
    pcg_solve(AleSolve::Pressure, 0.0, p_dirichlet_, prhs_, pglob);
    if (comm_) comm_->set_stage(-1);
    disc_->scatter(pglob, p_modal_);
}

// Stage 6: Helmholtz RHS.
void AleNS2d::stage_viscous_rhs(const StepContext& ctx,
                                std::vector<std::vector<double>>& hat) {
    const std::size_t nq = disc_->quad_size();
    auto& uhat = hat[0];
    auto& vhat = hat[1];
    std::vector<double> px(nq), py(nq);
    for (std::size_t e = 0; e < disc_->num_elements(); ++e)
        disc_->ops(e).grad_from_modal(
            disc_->modal_block(std::span<const double>(p_modal_), e),
            disc_->quad_block(std::span<double>(px), e),
            disc_->quad_block(std::span<double>(py), e));
    blaslite::daxpy(-ctx.dt, px, uhat);
    blaslite::daxpy(-ctx.dt, py, vhat);
    const double scale = 1.0 / (opts_.viscosity * ctx.dt);
    blaslite::dscal(scale, uhat);
    blaslite::dscal(scale, vhat);
    urhs_ = weak_rhs(uhat);
    vrhs_ = weak_rhs(vhat);
}

// Stage 7: condensed velocity PCG solves with lambda from the step's
// *effective* gamma0, so the implicit operator matches the explicit
// weights.  u and v share the step's condensed operator.
void AleNS2d::stage_viscous_solve(const StepContext& ctx) {
    const double tn1 = ctx.t_new;
    if (comm_) comm_->set_stage(7);
    const double lambda = ctx.scheme.gamma0 / (opts_.viscosity * ctx.dt);
    record_velocity_lambda(lambda);
    auto xu = dirichlet_x(opts_.velocity_bc,
                          [&](double x, double y) { return opts_.u_bc(x, y, tn1); });
    auto xv = dirichlet_x(opts_.velocity_bc,
                          [&](double x, double y) { return opts_.v_bc(x, y, tn1); });
    condensed_solve(AleSolve::U, lambda, urhs_, xu);
    condensed_solve(AleSolve::V, lambda, vrhs_, xv);
    if (comm_) comm_->set_stage(-1);
    disc_->scatter(xu, u_modal_);
    disc_->scatter(xv, v_modal_);
}

void AleNS2d::end_step(const StepContext&) {
    disc_->to_quad(u_modal_, uq_);
    disc_->to_quad(v_modal_, vq_);
}

} // namespace nektar
