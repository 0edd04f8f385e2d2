#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <memory>
#include <numbers>
#include <optional>
#include <span>
#include <stdexcept>

#include "ledger.hpp"
#include "mesh/generators.hpp"
#include "nektar/ns_ale.hpp"
#include "nektar/ns_fourier.hpp"
#include "nektar/ns_serial.hpp"
#include "obs/trace.hpp"
#include "partition/partition.hpp"

namespace perfbench {

namespace {

// Every workload integrates at the SolverOptions default order 2, so the
// startup ramp (orders 1, 2, each lazily factoring its velocity operators
// on the direct paths) is the first two steps.
constexpr int kTimeOrder = 2;
constexpr double kDt = 2e-3;
constexpr double kViscosity = 0.01;
constexpr auto kBackend = compute::BackendKind::Dense;

/// Times one phase of a solve into `*seconds` and, when tracing and
/// `record` is set, spans it on the bench lane.
class Phase {
public:
    Phase(const char* name, double* seconds, bool record = true)
        : seconds_(seconds), t0_(now_s()) {
        if (obs::Lane* lane = record ? bench_lane() : nullptr) span_.emplace(lane, name);
    }
    Phase(const Phase&) = delete;
    Phase& operator=(const Phase&) = delete;
    ~Phase() {
        if (seconds_ != nullptr) *seconds_ += now_s() - t0_;
    }

private:
    double* seconds_;
    double t0_;
    std::optional<obs::SpanScope> span_;
};

bool on_body(double x, double y) {
    return std::abs(x) <= 0.5 + 1e-6 && std::abs(y) <= 0.5 + 1e-6;
}

/// The perturbation's envelope: a bump in the near wake of the body.
double bump(double x, double y) { return std::exp(-0.5 * ((x - 2.0) * (x - 2.0) + y * y)); }

bool all_finite(std::span<const double> v) {
    for (double x : v)
        if (!std::isfinite(x)) return false;
    return true;
}

std::uint64_t splitmix64(std::uint64_t& s) {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double unit(std::uint64_t& s) { return static_cast<double>(splitmix64(s) >> 11) * 0x1.0p-53; }

/// Host bookkeeping shared by the ranks of one world run.  Each rank
/// writes only its own slots; the benchmark barrier orders those writes
/// before rank 0 reads them.
struct RankSlots {
    RankSlots(int ranks, std::size_t steps)
        : ranks(ranks),
          finish(static_cast<std::size_t>(ranks) * steps),
          idle(static_cast<std::size_t>(ranks) * steps),
          bds(static_cast<std::size_t>(ranks)),
          ok(static_cast<std::size_t>(ranks), 1) {}
    int ranks;
    std::vector<double> finish, idle; ///< [step * ranks + rank]
    std::vector<perf::StageBreakdown> bds;
    std::vector<char> ok; ///< per rank: every field finite
};

simmpi::CommLog log_delta(const simmpi::CommLog& after, const simmpi::CommLog& before) {
    simmpi::CommLog d;
    for (const auto& [stage, events] : after) {
        const auto b = before.find(stage);
        for (const auto& [key, n] : events) {
            std::uint64_t n0 = 0;
            if (b != before.end()) {
                const auto e = b->second.find(key);
                if (e != b->second.end()) n0 = e->second;
            }
            if (n > n0) d[stage][key] = n - n0;
        }
    }
    return d;
}

/// The fixed steady steps of one solve.  Serial: each step timed around
/// step().  Multi-rank: from rank 0's step start until every rank has
/// finished, which the benchmark's own barrier marks.
template <class Solver, class AfterStep>
void steady_steps(Solver& ns, simmpi::Comm* c, std::size_t steps, RankSlots& slots, Solve& out,
                  AfterStep after_step) {
    const int r = c != nullptr ? c->rank() : 0;
    const bool lead = r == 0;
    const auto ranks = static_cast<std::size_t>(slots.ranks);
    ns.breakdown() = {};
    const simmpi::CommLog log0 = c != nullptr ? c->log() : simmpi::CommLog{};
    const Usage u0 = usage_now();
    for (std::size_t k = 0; k < steps; ++k) {
        std::optional<obs::SpanScope> span;
        if (obs::Lane* lane = lead ? bench_lane() : nullptr) span.emplace(lane, "steady.step");
        const double t0 = now_s();
        const double idle0 = c != nullptr ? c->idle_time() : 0.0;
        ns.step();
        if (lead) after_step();
        if (c != nullptr) {
            slots.finish[k * ranks + static_cast<std::size_t>(r)] = now_s();
            slots.idle[k * ranks + static_cast<std::size_t>(r)] = c->idle_time() - idle0;
            c->barrier();
        }
        if (!lead) continue;
        out.step_s.push_back(now_s() - t0);
        if (c != nullptr) {
            const auto f = slots.finish.begin() + static_cast<std::ptrdiff_t>(k * ranks);
            const auto i = slots.idle.begin() + static_cast<std::ptrdiff_t>(k * ranks);
            const auto [lo, hi] = std::minmax_element(f, f + static_cast<std::ptrdiff_t>(ranks));
            out.skew_s.push_back(*hi - *lo);
            out.idle_virtual_s.push_back(*std::max_element(i, i + static_cast<std::ptrdiff_t>(ranks)));
        }
    }
    slots.bds[static_cast<std::size_t>(r)] = ns.breakdown();
    if (!lead) return;
    const Usage u1 = usage_now();
    out.steady_cpu_s = (u1.user_s + u1.sys_s) - (u0.user_s + u0.sys_s);
    out.bd = ns.breakdown();
    if (c != nullptr) out.log = log_delta(c->log(), log0);
}

void fold_rank_stages(const RankSlots& slots, Solve& out) {
    for (const auto& bd : slots.bds)
        for (std::size_t s = 1; s <= perf::kNumStages; ++s)
            out.stage_max_s[s] = std::max(out.stage_max_s[s], bd.host_seconds[s]);
}

/// Table 1's reduced bluff-body run: SerialNS2d, order 6, banded direct
/// solves, no communication.
Solve serial_bluff(const WorkloadSpec& spec, const Inputs& in, bool probe) {
    Solve out;
    const double t0 = now_s();
    std::shared_ptr<const mesh::Mesh> m;
    {
        Phase p("mesh.build", &out.mesh_s);
        mesh::BluffBodyParams bp;
        bp.n_upstream = 6;
        bp.n_wake = 10;
        bp.n_body = 3;
        bp.n_side = 4;
        m = std::make_shared<mesh::Mesh>(mesh::bluff_body_mesh(bp));
    }
    std::shared_ptr<const nektar::Discretization> disc;
    {
        Phase p("disc.build", &out.disc_s);
        disc = std::make_shared<nektar::Discretization>(m, 6, /*renumber=*/true, kBackend);
    }
    nektar::SerialNsOptions opts;
    opts.dt = kDt;
    opts.viscosity = kViscosity;
    opts.time_order = kTimeOrder;
    opts.backend = kBackend;
    opts.trace = obs::active();
    opts.u_bc = [](double x, double y, double) { return on_body(x, y) ? 0.0 : 1.0; };
    std::unique_ptr<nektar::SerialNS2d> ns;
    {
        Phase p("solver.ctor", &out.ctor_s);
        ns = std::make_unique<nektar::SerialNS2d>(disc, opts);
    }
    double l2_initial = 0.0;
    {
        Phase p("solver.ramp", &out.ramp_s);
        ns->set_initial(
            [&](double x, double y) { return 1.0 + in.amp * bump(x, y) * std::sin(y + in.phase); },
            [&](double x, double y) { return in.amp * bump(x, y) * std::cos(x + in.phase); });
        l2_initial = std::hypot(disc->l2_norm(ns->u_quad()), disc->l2_norm(ns->v_quad()));
        for (int k = 0; k < kTimeOrder; ++k) ns->step();
    }
    out.setup_s = now_s() - t0;

    RankSlots slots(1, spec.steady_steps);
    steady_steps(*ns, nullptr, spec.steady_steps, slots, out, [] {});

    {
        Phase p("checks", nullptr);
        const double l2u = disc->l2_norm(ns->u_quad());
        const double l2v = disc->l2_norm(ns->v_quad());
        const double div = ns->divergence_norm();
        out.observables = {{"l2_u", l2u}, {"l2_v", l2v}, {"div_norm", div}};
        out.checks.emplace_back("finite", all_finite(ns->u_quad()) && all_finite(ns->v_quad()) &&
                                              all_finite(ns->p_modal()));
        // Inflow-driven flow keeps its energy; a blow-up grows it.  The
        // divergence bound is far above the solver's splitting error.
        out.checks.emplace_back("bounded",
                                std::hypot(l2u, l2v) <= 2.0 * l2_initial && div <= 10.0);
    }
    out.solve_s = now_s() - t0;

    out.stage_max_s = out.bd.host_seconds;
    out.n_dof = disc->dofmap().num_global();
    out.bandwidth = disc->dofmap().bandwidth();
    out.quad_size = disc->quad_size();
    out.field_bytes = disc->quad_size() * sizeof(double);
    out.solver_bytes = out.n_dof * (out.bandwidth + 1) * sizeof(double);
    if (probe) probe_transforms(*disc, 1, out.probes);
    return out;
}

/// Table 2's NekTar-F run at P = 8: one complex Fourier mode (two planes)
/// per rank, per-mode banded direct solves, alltoall transposes.
Solve fourier_wake_p8(const WorkloadSpec& spec, const Inputs& in, bool probe) {
    Solve out;
    const double t0 = now_s();
    std::shared_ptr<const mesh::Mesh> m;
    {
        Phase p("mesh.build", &out.mesh_s);
        mesh::BluffBodyParams bp;
        bp.n_upstream = 4;
        bp.n_wake = 6;
        bp.n_body = 2;
        bp.n_side = 3;
        m = std::make_shared<mesh::Mesh>(mesh::bluff_body_mesh(bp));
    }
    const int ranks = spec.ranks;
    const std::size_t modes = static_cast<std::size_t>(ranks); // 2 planes per rank
    RankSlots slots(ranks, spec.steady_steps);
    std::vector<double> energy(3 * modes, 0.0), energy0(3 * modes, 0.0);
    simmpi::World world(ranks, probe_net());
    world.run([&](simmpi::Comm& c) {
        const bool lead = c.rank() == 0;
        std::shared_ptr<const nektar::Discretization> disc;
        {
            Phase p("disc.build", lead ? &out.disc_s : nullptr, lead);
            disc = std::make_shared<nektar::Discretization>(m, 4, /*renumber=*/true, kBackend);
        }
        nektar::FourierNsOptions opts;
        opts.dt = kDt;
        opts.viscosity = kViscosity;
        opts.time_order = kTimeOrder;
        opts.backend = kBackend;
        opts.num_modes = modes;
        opts.trace = obs::active();
        opts.u_bc = [](double x, double y, double) { return on_body(x, y) ? 0.0 : 1.0; };
        std::unique_ptr<nektar::FourierNS> ns;
        {
            Phase p("solver.ctor", lead ? &out.ctor_s : nullptr, lead);
            ns = std::make_unique<nektar::FourierNS>(disc, opts, &c);
        }
        const auto record_energy = [&](std::vector<double>& e) {
            for (std::size_t j = 0; j < ns->local_modes(); ++j)
                for (int comp = 0; comp < 3; ++comp)
                    e[static_cast<std::size_t>(comp) * modes +
                      static_cast<std::size_t>(c.rank()) * ns->local_modes() + j] =
                        ns->mode_energy(comp, j);
        };
        {
            Phase p("solver.ramp", lead ? &out.ramp_s : nullptr, lead);
            ns->set_initial(
                [&](double x, double y, double z) {
                    return 1.0 + in.amp * (std::sin(z + in.phase) +
                                           bump(x, y) * std::sin(y + in.phase));
                },
                [&](double x, double y, double z) {
                    return in.amp * bump(x, y) * std::cos(2.0 * z + in.phase);
                },
                [&](double, double, double z) { return in.amp * std::cos(z + in.phase); });
            record_energy(energy0);
            for (int k = 0; k < kTimeOrder; ++k) ns->step();
            c.barrier();
        }
        if (lead) out.setup_s = now_s() - t0;

        steady_steps(*ns, &c, spec.steady_steps, slots, out, [] {});

        {
            Phase p("checks", nullptr, lead);
            record_energy(energy);
            bool finite = true;
            for (int comp = 0; comp < 3; ++comp)
                for (std::size_t pl = 0; pl < 2 * ns->local_modes(); ++pl)
                    finite = finite && all_finite(ns->plane_quad(comp, pl));
            slots.ok[static_cast<std::size_t>(c.rank())] = finite ? 1 : 0;
            c.barrier();
        }
        if (!lead) return;
        double total = 0.0, total0 = 0.0;
        for (std::size_t i = 0; i < energy.size(); ++i) {
            total += energy[i];
            total0 += energy0[i];
        }
        for (int comp = 0; comp < 3; ++comp)
            for (std::size_t k = 0; k < modes; ++k)
                out.observables.emplace_back(
                    "energy_" + std::string(1, "uvw"[comp]) + std::to_string(k),
                    energy[static_cast<std::size_t>(comp) * modes + k]);
        out.observables.emplace_back("l2_velocity", std::sqrt(total));
        bool finite = std::isfinite(total);
        for (char ok : slots.ok) finite = finite && ok != 0;
        out.checks.emplace_back("finite", finite);
        out.checks.emplace_back("bounded", total > 0.0 && total <= 2.0 * total0);
        out.solve_s = now_s() - t0;

        out.n_dof = disc->dofmap().num_global();
        out.bandwidth = disc->dofmap().bandwidth();
        out.quad_size = disc->quad_size();
        out.planes = 2 * ns->local_modes();
        out.field_bytes = 2 * disc->quad_size() * sizeof(double);
        out.solver_bytes = out.n_dof * (out.bandwidth + 1) * sizeof(double);
        if (probe) probe_transforms(*disc, out.planes, out.probes);
    });
    fold_rank_stages(slots, out);
    return out;
}

/// Table 3's NekTar-ALE flapping-body run at P = 4: moving mesh, Jacobi
/// PCG with gather-scatter assembly, geometry rebuilt every step.
Solve ale_flap_p4(const WorkloadSpec& spec, const Inputs& in, bool probe) {
    Solve out;
    const double t0 = now_s();
    std::optional<mesh::Mesh> m;
    {
        Phase p("mesh.build", &out.mesh_s);
        m.emplace(ale_mesh());
    }
    const int ranks = spec.ranks;
    std::vector<int> part;
    {
        Phase p("partition.build", &out.partition_s);
        partition::Graph g;
        m->dual_graph(g.xadj, g.adjncy);
        part = partition::partition_graph(g, ranks);
    }
    RankSlots slots(ranks, spec.steady_steps);
    std::vector<double> sq(2 * static_cast<std::size_t>(ranks), 0.0);
    std::vector<double> sq0(static_cast<std::size_t>(ranks), 0.0);
    simmpi::World world(ranks, probe_net());
    world.run([&](simmpi::Comm& c) {
        const bool lead = c.rank() == 0;
        const auto r = static_cast<std::size_t>(c.rank());
        nektar::AleOptions opts;
        opts.dt = kDt;
        opts.viscosity = kViscosity;
        opts.time_order = kTimeOrder;
        opts.backend = kBackend;
        opts.cg.tolerance = 1e-8;
        opts.trace = obs::active();
        opts.body_velocity = [phase = in.flap_phase](double t) {
            return 0.3 * std::sin(4.0 * t + phase);
        };
        opts.u_bc = [](double x, double y, double) { return on_body(x, y) ? 0.0 : 1.0; };
        opts.v_bc = [motion = opts.body_velocity](double x, double y, double t) {
            return on_body(x, y) ? motion(t) : 0.0;
        };
        const std::size_t max_iterations = opts.cg.max_iterations;
        std::unique_ptr<nektar::AleNS2d> ns;
        {
            // The ALE constructor builds the rank's sub-discretization and
            // the gather-scatter plan; disc.build_s is probed separately.
            Phase p("solver.ctor", lead ? &out.ctor_s : nullptr, lead);
            ns = std::make_unique<nektar::AleNS2d>(*m, 4, opts, &c, &part);
        }
        {
            Phase p("solver.ramp", lead ? &out.ramp_s : nullptr, lead);
            ns->set_initial(
                [&](double x, double y) {
                    return 1.0 + in.amp * bump(x, y) * std::sin(y + in.phase);
                },
                [&](double x, double y) { return in.amp * bump(x, y) * std::cos(x + in.phase); });
            const double lu = ns->disc().l2_norm(ns->u_quad());
            const double lv = ns->disc().l2_norm(ns->v_quad());
            sq0[r] = lu * lu + lv * lv;
            for (int k = 0; k < kTimeOrder; ++k) ns->step();
            c.barrier();
        }
        if (lead) out.setup_s = now_s() - t0;

        steady_steps(*ns, &c, spec.steady_steps, slots, out, [&] {
            out.pcg_iters.push_back(static_cast<double>(ns->last_pressure_iterations()));
        });

        {
            Phase p("checks", nullptr, lead);
            const double lu = ns->disc().l2_norm(ns->u_quad());
            const double lv = ns->disc().l2_norm(ns->v_quad());
            sq[2 * r] = lu * lu;
            sq[2 * r + 1] = lv * lv;
            slots.ok[r] = all_finite(ns->u_quad()) && all_finite(ns->v_quad()) ? 1 : 0;
            c.barrier();
        }
        if (!lead) return;
        double su = 0.0, sv = 0.0, s0 = 0.0;
        bool finite = true;
        for (std::size_t k = 0; k < static_cast<std::size_t>(ranks); ++k) {
            su += sq[2 * k];
            sv += sq[2 * k + 1];
            s0 += sq0[k];
            finite = finite && slots.ok[k] != 0;
        }
        out.observables = {{"l2_u", std::sqrt(su)}, {"l2_v", std::sqrt(sv)}};
        for (std::size_t k = 0; k < out.pcg_iters.size(); ++k)
            out.observables.emplace_back("pcg_iters_" + std::to_string(k), out.pcg_iters[k]);
        bool converged = !out.pcg_iters.empty();
        for (double it : out.pcg_iters)
            converged = converged && it > 0.0 && it < static_cast<double>(max_iterations);
        out.checks.emplace_back("finite", finite && std::isfinite(su + sv));
        out.checks.emplace_back("bounded", su + sv <= 4.0 * s0);
        out.checks.emplace_back("converged", converged);
        out.solve_s = now_s() - t0;

        out.n_dof = ns->disc().dofmap().num_global();
        out.quad_size = ns->disc().quad_size();
        out.field_bytes = ns->disc().quad_size() * sizeof(double);
        // The PCG path streams the elemental matrices every iteration.
        for (std::size_t e = 0; e < ns->disc().num_elements(); ++e) {
            const std::size_t nm = ns->disc().ops(e).num_modes();
            out.solver_bytes += 2 * nm * nm * sizeof(double);
        }
        if (probe) probe_transforms(ns->disc(), 1, out.probes);
    });
    fold_rank_stages(slots, out);
    return out;
}

} // namespace

mesh::Mesh ale_mesh() {
    // Table 3's flapping body at refinement 2 (the bench uses 3): a step
    // costs about half a second here, so a run holds enough steady steps.
    return mesh::flapping_body_mesh(2);
}

obs::Lane* bench_lane() { return obs::active() ? obs::tracer().lane("bench") : nullptr; }

netsim::NetworkModel probe_net() {
    netsim::NetworkModel probe;
    probe.name = "probe";
    probe.latency_us = 10.0;
    probe.bandwidth_mbps = 100.0;
    return probe;
}

double now_s() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Usage usage_now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto secs = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
    };
    return {secs(ru.ru_utime), secs(ru.ru_stime), static_cast<double>(ru.ru_minflt),
            static_cast<double>(ru.ru_maxrss) / 1024.0};
}

const WorkloadSpec& workload(const std::string& name) {
    static const std::vector<WorkloadSpec> specs = {
        {"serial_bluff", 1, 30, "Muses", "Muses", ""},
        {"fourier_wake_p8", 8, 40, "RoadRunner eth.", "RoadRunner", "RoadRunner eth."},
        {"ale_flap_p4", 4, 16, "RoadRunner myr.", "RoadRunner", "RoadRunner myr."},
    };
    for (const auto& s : specs)
        if (s.name == name) return s;
    throw std::invalid_argument("unknown workload '" + name + "'");
}

Inputs make_inputs(std::uint64_t seed) {
    std::uint64_t s = seed;
    Inputs in;
    in.amp = 0.02 + 0.03 * unit(s);
    in.phase = 2.0 * std::numbers::pi * unit(s);
    in.flap_phase = 2.0 * std::numbers::pi * unit(s);
    return in;
}

Solve run_solve(const WorkloadSpec& spec, const Inputs& in, bool probe) {
    const Usage u0 = usage_now();
    Solve out;
    if (spec.name == "serial_bluff")
        out = serial_bluff(spec, in, probe);
    else if (spec.name == "fourier_wake_p8")
        out = fourier_wake_p8(spec, in, probe);
    else
        out = ale_flap_p4(spec, in, probe);
    const Usage u1 = usage_now();
    out.usage = {u1.user_s - u0.user_s, u1.sys_s - u0.sys_s,
                 u1.minor_faults - u0.minor_faults, u1.maxrss_mb};
    return out;
}

} // namespace perfbench
