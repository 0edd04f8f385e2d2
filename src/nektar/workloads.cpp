#include "nektar/workloads.hpp"

#include <cmath>
#include <memory>

#include "mesh/generators.hpp"
#include "partition/partition.hpp"

namespace nektar::workloads {

namespace {

constexpr double kDt = 2e-3;
constexpr double kViscosity = 0.01;

double at_rest(double, double) { return 0.0; }
double free_stream(double, double) { return 1.0; }

} // namespace

mesh::Mesh table1_mesh() {
    mesh::BluffBodyParams p;
    p.n_upstream = 6;
    p.n_wake = 10;
    p.n_body = 3;
    p.n_side = 4;
    return mesh::bluff_body_mesh(p);
}

mesh::Mesh table2_mesh() {
    mesh::BluffBodyParams p;
    p.n_upstream = 4;
    p.n_wake = 6;
    p.n_body = 2;
    p.n_side = 3;
    return mesh::bluff_body_mesh(p);
}

mesh::Mesh table3_mesh() { return mesh::flapping_body_mesh(3); }

bool on_body(double x) { return std::abs(x) <= 0.5 + 1e-6; }

double inflow_u(double x, double, double) { return on_body(x) ? 0.0 : 1.0; }

void heave_body(AleOptions& opts, std::function<double(double)> body_velocity) {
    opts.u_bc = inflow_u;
    opts.v_bc = [body_velocity](double x, double, double t) {
        return on_body(x) ? body_velocity(t) : 0.0;
    };
    opts.body_velocity = std::move(body_velocity);
}

void start_free_stream(SerialNS2d& ns) { ns.set_initial(free_stream, at_rest); }
void start_free_stream(AleNS2d& ns) { ns.set_initial(free_stream, at_rest); }

void start_perturbed(FourierNS& ns, double amplitude) {
    ns.set_initial([=](double, double, double z) { return 1.0 + amplitude * std::sin(z); },
                   [](double, double, double) { return 0.0; },
                   [=](double, double, double z) { return amplitude * std::cos(z); });
}

netsim::NetworkModel probe_net() {
    netsim::NetworkModel probe;
    probe.name = "probe";
    probe.latency_us = 10.0;
    probe.bandwidth_mbps = 100.0;
    return probe;
}

AleOptions table3_options() {
    AleOptions opts;
    opts.dt = kDt;
    opts.viscosity = kViscosity;
    opts.cg.tolerance = 1e-8;
    heave_body(opts, [](double t) { return 0.3 * std::sin(4.0 * t); });
    return opts;
}

Run table1_serial(bool trace, int steady_steps, compute::BackendKind backend) {
    const auto disc = std::make_shared<Discretization>(
        std::make_shared<mesh::Mesh>(table1_mesh()), kTable1Order);
    SerialNsOptions opts;
    opts.dt = kDt;
    opts.viscosity = kViscosity;
    opts.backend = backend;
    opts.trace = trace;
    opts.u_bc = inflow_u;
    SerialNS2d ns(disc, opts);
    start_free_stream(ns);
    ns.step(); // bootstrap (first-order start) excluded, as in steady-state timing
    ns.breakdown() = {};
    for (int s = 0; s < steady_steps; ++s) ns.step();

    Run run;
    run.bd = ns.breakdown();
    run.rank_bds = {run.bd};
    run.field_bytes = disc->quad_size() * sizeof(double);
    run.solver_bytes = ns.working_set_bytes();
    run.dof = disc->dofmap().num_global();
    return run;
}

Run table2_fourier(int nprocs, bool overlap_transpose, bool trace, int steady_steps,
                   compute::BackendKind backend) {
    const auto base_mesh = std::make_shared<mesh::Mesh>(table2_mesh());
    Run run;
    run.rank_bds.resize(static_cast<std::size_t>(nprocs));
    simmpi::World world(nprocs, probe_net());
    const auto reports = world.run([&](simmpi::Comm& c) {
        const auto disc = std::make_shared<Discretization>(base_mesh, kTable2Order);
        FourierNsOptions opts;
        opts.dt = kDt;
        opts.viscosity = kViscosity;
        opts.num_modes = static_cast<std::size_t>(c.size()); // 2 planes per rank
        opts.overlap_transpose = overlap_transpose;
        opts.trace = trace;
        opts.backend = backend;
        opts.u_bc = inflow_u;
        FourierNS ns(disc, opts, &c);
        start_perturbed(ns);
        ns.step(); // bootstrap (first-order start) excluded
        ns.breakdown() = {};
        c.clear_logs();
        for (int s = 0; s < steady_steps; ++s) ns.step();
        run.rank_bds[static_cast<std::size_t>(c.rank())] = ns.breakdown();
        if (c.rank() == 0) {
            run.field_bytes = 2 * disc->quad_size() * sizeof(double);
            run.solver_bytes = ns.working_set_bytes();
            run.dof = disc->dofmap().num_global();
        }
    });
    run.bd = run.rank_bds[0];
    run.rank0 = reports[0];
    return run;
}

Run table3_ale(int nprocs, bool overlap_gs, bool trace) {
    const mesh::Mesh m = table3_mesh();
    partition::Graph g;
    m.dual_graph(g.xadj, g.adjncy);
    const auto part = partition::partition_graph(g, nprocs);
    Run run;
    run.rank_bds.resize(static_cast<std::size_t>(nprocs));
    simmpi::World world(nprocs, probe_net());
    const auto reports = world.run([&](simmpi::Comm& c) {
        AleOptions opts = table3_options();
        opts.overlap_gs = overlap_gs;
        opts.trace = trace;
        AleNS2d ns(m, kTable3Order, opts, &c, &part);
        start_free_stream(ns);
        ns.step(); // bootstrap (first-order start) excluded
        ns.breakdown() = {};
        c.clear_logs();
        for (int s = 0; s < kParallelSteadySteps; ++s) ns.step();
        run.rank_bds[static_cast<std::size_t>(c.rank())] = ns.breakdown();
        if (c.rank() == 0) {
            run.field_bytes = ns.disc().quad_size() * sizeof(double);
            run.solver_bytes = ns.working_set_bytes();
            run.dof = ns.disc().dofmap().num_global();
        }
    });
    run.bd = run.rank_bds[0];
    run.rank0 = reports[0];
    return run;
}

} // namespace nektar::workloads
