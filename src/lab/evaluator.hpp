#pragma once

#include <map>
#include <mutex>
#include <string>

#include "lab/scenario.hpp"
#include "nektar/workloads.hpp"
#include "perf/report.hpp"

/// \file evaluator.hpp
/// Turns a ScenarioRequest into its canonical RunReport.
///
/// Two fidelities:
///   * "model"    — analytic: the machine roofline prices the solver's
///                  characteristic operation mix (the calibrated ~60 flops
///                  and ~48 bytes of latency-bound traffic per dof from the
///                  Table 1 runs), the network model prices the nonlinear
///                  step's transposes, and the named fault profile inflates
///                  them.  Microseconds per query; this is the generalised
///                  cluster_advisor math.
///   * "measured" — a real instrumented probe run of the serial or Fourier
///                  solver on this host (reduced mesh, same algorithm and
///                  comm pattern), re-priced onto the requested machine and
///                  network via lab/pricing.hpp.  Probe runs are memoised by
///                  (solver, backend, ranks, steps), so one run serves every
///                  platform query against it.  The probe runs the paper's
///                  slab transpose, so a measured "pencil" is refused.
///
/// Every report the evaluator builds is a pure function of the request:
/// perf::report() reads only the probe run it is handed, and host times are
/// masked by RunReport::to_canonical_json() as usual.
namespace lab {

class Evaluator {
public:
    /// Evaluates `req` and returns the schema-v2 report with the request
    /// echo attached and cache marked as a miss (the service flips the hit
    /// bit when serving from the store).  Throws lab::ParseError for
    /// requests naming unknown machines/networks/faults or combinations the
    /// evaluator cannot honour (e.g. measured fidelity with the ale solver).
    [[nodiscard]] perf::RunReport evaluate(const ScenarioRequest& req);

    /// Probe runs executed so far (distinct memo keys); model-fidelity
    /// queries never run one.
    [[nodiscard]] std::size_t probe_runs() const;

private:
    [[nodiscard]] perf::RunReport evaluate_model(const ScenarioRequest& req) const;
    [[nodiscard]] perf::RunReport evaluate_measured(const ScenarioRequest& req);

    /// Memoised probe run: Table 1's serial run or Table 2's Fourier run
    /// (nektar/workloads.hpp).  Probe execution is serialised: the solvers
    /// are internally parallel over parallel::pool() and share the
    /// congruent-element MatrixCache, so one at a time is both safe and fast.
    [[nodiscard]] const nektar::workloads::Run& probe(const std::string& solver,
                                                      const std::string& backend, int nprocs,
                                                      int steady_steps);

    mutable std::mutex probe_mu_;
    std::map<std::string, nektar::workloads::Run> probes_;
};

} // namespace lab
