#include "lab/evaluator.hpp"

#include <stdexcept>

#include "compute/backend.hpp"
#include "lab/fault_profiles.hpp"
#include "lab/json.hpp"
#include "lab/pricing.hpp"
#include "machine/machine_model.hpp"
#include "nektar/transpose.hpp"
#include "netsim/netmodel.hpp"

namespace lab {

namespace {

const machine::MachineModel& resolve_machine(const std::string& name) {
    if (name.empty())
        throw ParseError("this query needs a machine: set \"machine\" to a "
                         "machine::roster() name");
    try {
        return machine::by_name(name);
    } catch (const std::out_of_range&) {
        throw ParseError("unknown machine \"" + name + "\"");
    }
}

const netsim::NetworkModel& resolve_net(const std::string& name) {
    try {
        return netsim::by_name(name);
    } catch (const std::out_of_range&) {
        throw ParseError("unknown network \"" + name + "\"");
    }
}

compute::BackendKind resolve_backend(const std::string& name) {
    if (name.empty()) return compute::BackendKind::Auto;
    return compute::parse_backend(name); // "dense"/"sumfact"; pre-validated
}

/// Skeleton every evaluation shares: the request echo, the miss-marked
/// cache block and the descriptive meta strings.
perf::RunReport base_report(const ScenarioRequest& req) {
    perf::RunReport rep;
    rep.bench = req.bench.empty() ? "lab_scenario" : req.bench;
    rep.backend = req.backend;
    rep.request_json = req.canonical_json();
    rep.store_key = req.store_key();
    rep.cache_hit = false;
    rep.meta["source"] = "lab";
    rep.meta["fidelity"] = req.fidelity;
    if (!req.machine.empty()) rep.meta["machine"] = req.machine;
    if (!req.net.empty()) rep.meta["net"] = req.net;
    if (!req.fault.empty()) rep.meta["fault"] = req.fault;
    if (!req.solver.empty()) rep.meta["solver"] = req.solver;
    return rep;
}

} // namespace

perf::RunReport Evaluator::evaluate(const ScenarioRequest& req) {
    req.validate();
    return req.fidelity == "measured" ? evaluate_measured(req) : evaluate_model(req);
}

perf::RunReport Evaluator::evaluate_model(const ScenarioRequest& req) const {
    const auto& m = resolve_machine(req.machine);
    const int nprocs = req.ranks > 0 ? req.ranks : 8;
    const double dof = req.dof_per_rank > 0.0 ? req.dof_per_rank : 461000.0;

    // The cluster_advisor cost model: ~60 flops and ~48 bytes of
    // latency-bound solver traffic per dof per step (calibrated on the
    // Table 1 runs), plus the Alltoall transposes of the nonlinear step.
    machine::KernelShape solver;
    solver.flops = 60.0 * dof;
    solver.bytes = 48.0 * dof;
    solver.working_set = 1u << 30;
    solver.compute_efficiency = 0.6;
    solver.latency_bound = true;
    const double compute = machine::predict_seconds(m, solver);

    double comm = 0.0, poll = 0.0;
    if (!req.net.empty()) {
        const auto& net = resolve_net(req.net);
        poll = net.cpu_poll_fraction;
        const auto msg = static_cast<std::size_t>(dof * 8.0 / nprocs);
        // ~6 transposes of the per-proc field per step; the pencil variant
        // trades the P-wide exchange for two sqrt(P)-wide staged ones.
        if (req.transpose == "pencil") {
            const int rows =
                static_cast<int>(nektar::most_square_rows(static_cast<std::size_t>(nprocs)));
            const int cols = nprocs / rows;
            const auto s1 = static_cast<std::size_t>(dof * 8.0 / cols);
            const auto s2 = static_cast<std::size_t>(dof * 8.0 / rows);
            comm = 6.0 * net.hierarchical_alltoall_seconds(rows, cols, s1, s2);
        } else {
            comm = 6.0 * net.alltoall_seconds(nprocs, msg);
        }
    }
    const netsim::FaultModel fault = fault_by_name(req.fault, req.seed);
    const double inflation = comm > 0.0 ? fault.expected_inflation(comm) : 1.0;
    const double wall = compute + comm * inflation;
    const double cpu = compute + comm * inflation * poll;

    perf::RunReport rep = base_report(req);
    perf::Case kase;
    kase.labels["fidelity"] = "model";
    kase.labels["machine"] = req.machine;
    if (!req.net.empty()) kase.labels["net"] = req.net;
    if (!req.fault.empty()) kase.labels["fault"] = req.fault;
    kase.values["nprocs"] = static_cast<double>(nprocs);
    kase.values["dof_per_rank"] = dof;
    kase.values["compute_seconds_per_step"] = compute;
    kase.values["comm_seconds_per_step"] = comm;
    kase.values["fault_inflation"] = inflation;
    kase.values["cpu_seconds_per_step"] = cpu;
    kase.values["wall_seconds_per_step"] = wall;
    rep.cases.push_back(std::move(kase));
    return rep;
}

const nektar::workloads::Run& Evaluator::probe(const std::string& solver,
                                               const std::string& backend, int nprocs,
                                               int steady_steps) {
    const std::string key = solver + "/" + (backend.empty() ? "auto" : backend) + "/" +
                            std::to_string(nprocs) + "/" + std::to_string(steady_steps);
    std::lock_guard<std::mutex> lock(probe_mu_);
    const auto hit = probes_.find(key);
    if (hit != probes_.end()) return hit->second;

    const compute::BackendKind kind = resolve_backend(backend);
    // "fourier" is the Table-2 weak-scaling run, 2 planes per rank.
    nektar::workloads::Run data =
        solver == "serial"
            ? nektar::workloads::table1_serial(/*trace=*/false, steady_steps, kind)
            : nektar::workloads::table2_fourier(nprocs, /*overlap_transpose=*/true,
                                                /*trace=*/false, steady_steps, kind);
    return probes_.emplace(key, std::move(data)).first->second;
}

perf::RunReport Evaluator::evaluate_measured(const ScenarioRequest& req) {
    if (req.solver != "serial" && req.solver != "fourier")
        throw ParseError("measured fidelity needs solver \"serial\" or \"fourier\" "
                         "(got \"" + req.solver + "\")");
    // The probe is the paper's run, which always transposes through the slab.
    if (req.transpose == "pencil")
        throw ParseError("measured fidelity runs the slab transpose: \"transpose\" must be "
                         "\"\" or \"slab\" (got \"pencil\")");
    resolve_machine(req.machine);
    const bool parallel = req.solver == "fourier";
    if (parallel && req.net.empty())
        throw ParseError("measured fourier queries need a \"net\" to price the "
                         "transposes on");
    if (parallel) resolve_net(req.net);
    const int nprocs = parallel ? (req.ranks > 0 ? req.ranks : 4) : 1;
    const int steady = req.steps > 0 ? req.steps
                                     : (parallel ? nektar::workloads::kParallelSteadySteps
                                                 : nektar::workloads::kSerialSteadySteps);

    const nektar::workloads::Run& data = probe(req.solver, req.backend, nprocs, steady);
    const netsim::FaultModel fault = fault_by_name(req.fault, req.seed);
    // The Fourier probe runs the pipelined transpose, so its wall earns the
    // overlap credit Table 2's "overlapped" column does.
    const auto t = app_model::price(data, {"", req.machine, parallel ? req.net : ""}, &fault);

    perf::RunReport rep = base_report(req);
    // Stage rows from the probe's instrumented breakdown and rank 0's comm
    // logs (host times are masked by to_canonical_json, so the stored bytes
    // stay deterministic).
    perf::RunReport probe_rep = perf::report(rep.bench, &data.bd, &data.rank0);
    rep.steps = probe_rep.steps;
    rep.stages = std::move(probe_rep.stages);
    rep.metrics = std::move(probe_rep.metrics);

    perf::Case kase;
    kase.labels["fidelity"] = "measured";
    kase.labels["solver"] = req.solver;
    kase.labels["machine"] = req.machine;
    if (!req.net.empty()) kase.labels["net"] = req.net;
    if (!req.fault.empty()) kase.labels["fault"] = req.fault;
    kase.values["nprocs"] = static_cast<double>(nprocs);
    kase.values["steady_steps"] = static_cast<double>(steady);
    kase.values["compute_seconds_per_step"] = t.compute;
    kase.values["comm_seconds_per_step"] = t.comm;
    kase.values["fault_inflation"] = t.inflation;
    kase.values["cpu_seconds_per_step"] = t.cpu;
    kase.values["wall_seconds_per_step"] = t.wall;
    rep.cases.push_back(std::move(kase));
    return rep;
}

std::size_t Evaluator::probe_runs() const {
    std::lock_guard<std::mutex> lock(probe_mu_);
    return probes_.size();
}

} // namespace lab
