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
    : SolverCore(opts.time_order, opts.dt, /*num_fields=*/2, comm, opts.trace),
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
    std::unique_ptr<gs::GatherScatter> plan;
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
        plan = std::make_unique<gs::GatherScatter>(*comm_, gids, gs::GatherScatter::Strategy::Auto,
                                                 opts_.overlap_gs
                                                     ? gs::GatherScatter::Exchange::Nonblocking
                                                     : gs::GatherScatter::Exchange::Blocking);
    }
    assembly_ = std::make_unique<const DofAssembly>(disc_->dofmap().num_global(), comm_,
                                                    std::move(plan));

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
}

std::size_t AleNS2d::working_set_bytes() const noexcept {
    std::size_t bytes = 0;
    for (std::size_t e = 0; e < disc_->num_elements(); ++e) {
        const std::size_t nm = disc_->ops(e).num_modes();
        bytes += 2 * nm * nm * sizeof(double);
    }
    return bytes;
}

void AleNS2d::rebuild_discretization() {
    // The per-step rebuild keeps the same compute backend: a Discretization
    // built with backend_ resolves Auto call sites to it.
    disc_ = std::make_shared<Discretization>(local_mesh_, order_, /*renumber=*/false,
                                             backend_);
    velocity_pcg_.reset();
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

std::vector<double> AleNS2d::solve(const HelmholtzPCG& pcg, AleSolve which,
                                   std::span<const double> rhs, std::vector<double> x) const {
    static constexpr std::array<const char*, 4> kName = {"mesh", "pressure", "u", "v"};
    const auto w = static_cast<std::size_t>(which);
    try {
        x = pcg.solve_global(rhs, std::move(x),
                             std::string("AleNS2d: ") + kName[w] + " PCG solve of step " +
                                 std::to_string(steps_taken()));
    } catch (const std::runtime_error&) {
        last_iters_[w] = pcg.last_iterations(); // an unconverged solve's count too
        throw;
    }
    last_iters_[w] = pcg.last_iterations();
    return x;
}

const HelmholtzPCG& AleNS2d::condensed_velocity(double lambda) const {
    if (!velocity_pcg_ || velocity_pcg_->lambda() != lambda)
        velocity_pcg_.emplace(disc_, lambda, opts_.velocity_bc, opts_.cg,
                              HelmholtzPCG::System::Condensed, assembly_.get());
    return *velocity_pcg_;
}

std::vector<double> AleNS2d::velocity_helmholtz(double lambda, std::span<const double> f_quad,
                                                const std::function<double(double, double)>& g,
                                                Path path) const {
    std::vector<double> rhs = weak_rhs(*disc_, f_quad);
    assembly_->sum(rhs);
    std::vector<double> x = dirichlet_data(*disc_, opts_.velocity_bc, g);
    if (path == Path::Condensed) return solve(condensed_velocity(lambda), AleSolve::U, rhs, x);
    const HelmholtzPCG full(disc_, lambda, opts_.velocity_bc, opts_.cg,
                            HelmholtzPCG::System::Full, assembly_.get());
    return solve(full, AleSolve::U, rhs, std::move(x));
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
    const std::size_t n = disc_->dofmap().num_global();
    std::vector<double> wglob;
    {
        const StageGuard guard(*this, 7);
        const double vb = opts_.body_velocity(time());
        // Body edges move at vb; the outer boundary stays put.  The L2 edge
        // projection of the constant vb puts vb on the vertex dofs and zero
        // on the edge bubbles.
        std::vector<double> x = dirichlet_data(*disc_, {.dirichlet = {mesh::BoundaryTag::Body}},
                                               [vb](double, double) { return vb; });
        const HelmholtzPCG pcg(disc_, 0.0,
                               {.dirichlet = {mesh::BoundaryTag::Inflow,
                                              mesh::BoundaryTag::Outflow, mesh::BoundaryTag::Side,
                                              mesh::BoundaryTag::Wall, mesh::BoundaryTag::Body}},
                               opts_.cg, HelmholtzPCG::System::Full, assembly_.get());
        wglob = solve(pcg, AleSolve::Mesh, std::vector<double>(n, 0.0), std::move(x));
    }

    // --- Step 2 extra: update the vertex positions with the mesh velocity
    // and rebuild the geometry factors.
    {
        const StageGuard guard(*this, 2);
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
        redo_stage_transform(); // end_step transformed on the old geometry
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
    prhs_ = weak_rhs(*disc_, div);
    assembly_->sum(prhs_);
}

// Stage 5: pressure PCG solve.
void AleNS2d::stage_pressure_solve(const StepContext&) {
    const HelmholtzPCG pcg(disc_, 0.0, opts_.pressure_bc, opts_.cg, HelmholtzPCG::System::Full,
                           assembly_.get());
    const std::vector<double> pglob =
        solve(pcg, AleSolve::Pressure, prhs_, pcg.dirichlet_vector({}));
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
    urhs_ = weak_rhs(*disc_, uhat);
    assembly_->sum(urhs_);
    vrhs_ = weak_rhs(*disc_, vhat);
    assembly_->sum(vrhs_);
}

// Stage 7: condensed velocity PCG solves with lambda from the step's
// *effective* gamma0, so the implicit operator matches the explicit
// weights.  u and v share the step's condensed operator.
void AleNS2d::stage_viscous_solve(const StepContext& ctx) {
    const double tn1 = ctx.t_new;
    const double lambda = ctx.scheme.gamma0 / (opts_.viscosity * ctx.dt);
    record_velocity_lambda(lambda);
    auto xu = dirichlet_data(*disc_, opts_.velocity_bc,
                             [&](double x, double y) { return opts_.u_bc(x, y, tn1); });
    auto xv = dirichlet_data(*disc_, opts_.velocity_bc,
                             [&](double x, double y) { return opts_.v_bc(x, y, tn1); });
    const HelmholtzPCG& pcg = condensed_velocity(lambda);
    xu = solve(pcg, AleSolve::U, urhs_, std::move(xu));
    xv = solve(pcg, AleSolve::V, vrhs_, std::move(xv));
    disc_->scatter(xu, u_modal_);
    disc_->scatter(xv, v_modal_);
}

void AleNS2d::end_step(const StepContext&) {
    disc_->to_quad(u_modal_, uq_);
    disc_->to_quad(v_modal_, vq_);
}

} // namespace nektar
