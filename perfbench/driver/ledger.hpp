#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "nektar/discretization.hpp"
#include "obs/trace.hpp"
#include "perf/stage_stats.hpp"
#include "simmpi/simmpi.hpp"

/// \file ledger.hpp
/// The benchmark driver: three whole-process solver workloads timed from
/// outside the program, plus probes of single layers at each workload's own
/// sizes.  perfbench/README.md says why each workload and metric exists.
namespace perfbench {

/// One workload: which solver, how many simulated ranks, how many steady
/// steps one solve runs, and the 1999 platform its model report prices.
struct WorkloadSpec {
    std::string name;
    int ranks = 1;                ///< simulated ranks (1 = serial, no simmpi world)
    std::size_t steady_steps = 0; ///< fixed steady steps of one solve
    std::string platform;         ///< app_model platform label
    std::string machine;          ///< machine::by_name key
    std::string network;          ///< netsim::by_name key ("" = serial)
};

/// The spec named `name`; throws std::invalid_argument for unknown names.
[[nodiscard]] const WorkloadSpec& workload(const std::string& name);

/// The ALE workload's flapping-body mesh (the probes rebuild it).
[[nodiscard]] mesh::Mesh ale_mesh();

/// Seeded inputs.  The solvers receive only the fields and the body motion
/// built from these numbers, never the seed.
struct Inputs {
    double amp = 0.0;        ///< initial velocity perturbation amplitude
    double phase = 0.0;      ///< perturbation phase
    double flap_phase = 0.0; ///< phase of the ALE body motion
};
[[nodiscard]] Inputs make_inputs(std::uint64_t seed);

/// Process totals from getrusage(RUSAGE_SELF).
struct Usage {
    double user_s = 0.0;
    double sys_s = 0.0;
    double minor_faults = 0.0;
    double maxrss_mb = 0.0;
};
[[nodiscard]] Usage usage_now();

/// Host seconds on the steady clock.
[[nodiscard]] double now_s();

/// The lane of the benchmark's own spans (host clock), or null while the
/// tracer is off.
[[nodiscard]] obs::Lane* bench_lane();

/// The network every simulated world runs on.  Any model works: the model
/// report re-prices the comm log on the workload's pinned platform.
[[nodiscard]] netsim::NetworkModel probe_net();

/// Everything one solve measured and observed.
struct Solve {
    double setup_s = 0.0; ///< workload start to the end of the startup ramp
    double solve_s = 0.0; ///< setup + steady steps + final checks
    double mesh_s = 0.0, partition_s = 0.0, disc_s = 0.0, ctor_s = 0.0, ramp_s = 0.0;
    std::vector<double> step_s;         ///< per steady step, rank 0, to the benchmark barrier
    std::vector<double> skew_s;         ///< per step: spread of the ranks' finish times
    std::vector<double> idle_virtual_s; ///< per step: max over ranks of (wall - cpu) growth
    std::vector<double> pcg_iters;      ///< per step: pressure PCG iterations (ALE)
    double steady_cpu_s = 0.0;          ///< process user+sys seconds over the steady steps
    perf::StageBreakdown bd;            ///< rank 0, steady steps only
    std::array<double, perf::kNumStages + 1> stage_max_s{}; ///< max over ranks
    simmpi::CommLog log;                ///< rank 0, steady steps only
    Usage usage;                        ///< process deltas over the whole solve
    std::vector<std::pair<std::string, double>> observables;
    std::vector<std::pair<std::string, bool>> checks;
    std::string error; ///< what() of an exception that ended the solve
    // Sizes the layer probes and the model pricing reuse (rank 0).
    std::size_t n_dof = 0, bandwidth = 0, quad_size = 0, planes = 1;
    std::size_t field_bytes = 0, solver_bytes = 0;
    /// Layer probes that need the live solver (probe solves only).
    std::map<std::string, double> probes;
};

/// Runs one whole solve of `spec`, from mesh generation to the final
/// checks.  With `probe`, rank 0 also times its own Discretization's
/// transforms after the solve's clock has stopped.
[[nodiscard]] Solve run_solve(const WorkloadSpec& spec, const Inputs& in, bool probe);

/// Median seconds per call of body(), over at least `min_calls` calls and
/// about `budget_s` seconds.
template <class F>
double median_call_seconds(F&& body, int min_calls, double budget_s) {
    std::vector<double> t;
    const double start = now_s();
    while (static_cast<int>(t.size()) < min_calls || now_s() - start < budget_s) {
        const double t0 = now_s();
        body();
        t.push_back(now_s() - t0);
    }
    std::sort(t.begin(), t.end());
    return t[t.size() / 2];
}

// --- probes.cpp ---------------------------------------------------------

/// Times Discretization::to_quad_planes under both compute backends.
void probe_transforms(const nektar::Discretization& disc, std::size_t planes,
                      std::map<std::string, double>& out);

/// Probes of single layers at the workload's own sizes: banded factor and
/// solve, z-line FFTs, the alltoall, gather-scatter and the discretization
/// build, as the workload exercises them (zero where it does not).
[[nodiscard]] std::map<std::string, double> probe_layers(const WorkloadSpec& spec,
                                                         const Solve& s);

/// Host roofline: blaslite dgemm peak on a cache-resident size and dcopy
/// bandwidth on arrays of at least four last-level caches each.
struct Roofline {
    double dgemm_gflops = 0.0;
    double stream_gbs = 0.0;
    double llc_bytes = 0.0;
    double array_bytes = 0.0;
};
[[nodiscard]] Roofline probe_roofline();

} // namespace perfbench
