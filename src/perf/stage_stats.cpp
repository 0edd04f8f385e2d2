#include "perf/stage_stats.hpp"

namespace perf {

StageBreakdown& StageBreakdown::operator+=(const StageBreakdown& o) {
    for (std::size_t s = 0; s <= kNumStages; ++s) {
        counts[s] += o.counts[s];
        host_seconds[s] += o.host_seconds[s];
    }
    steps += o.steps;
    return *this;
}

blaslite::OpCounts StageBreakdown::total_counts() const {
    blaslite::OpCounts t;
    for (std::size_t s = 1; s <= kNumStages; ++s) t += counts[s];
    return t;
}

double StageBreakdown::total_host_seconds() const {
    double t = 0.0;
    for (std::size_t s = 1; s <= kNumStages; ++s) t += host_seconds[s];
    return t;
}

double StageBreakdown::predict_stage_seconds(const machine::MachineModel& m, std::size_t stage,
                                             const StageShape& shape) const {
    const blaslite::OpCounts& c = counts[stage];
    machine::KernelShape k;
    k.flops = static_cast<double>(c.flops);
    k.bytes = static_cast<double>(c.bytes());
    k.working_set = shape.working_set_bytes;
    k.compute_efficiency = shape.compute_efficiency;
    k.latency_bound = shape.latency_bound;
    const double body = machine::predict_seconds(m, k);
    // predict_seconds charges one call overhead; add the rest of the calls.
    const double extra_calls = c.calls > 0 ? static_cast<double>(c.calls - 1) : 0.0;
    return body + extra_calls * m.call_overhead_cycles / (m.clock_mhz * 1e6);
}

std::string stage_name(std::size_t stage) {
    switch (stage) {
        case 1: return "transform modal->quadrature";
        case 2: return "nonlinear terms";
        case 3: return "extrapolation weighting";
        case 4: return "Poisson RHS setup";
        case 5: return "Poisson (pressure) solve";
        case 6: return "Helmholtz RHS setup";
        case 7: return "Helmholtz (viscous) solve";
        default: return "unknown";
    }
}

std::string stage_short_name(std::size_t stage) {
    switch (stage) {
        case 1: return "transform";
        case 2: return "nonlinear";
        case 3: return "extrapolate";
        case 4: return "Poisson RHS";
        case 5: return "Poisson slv";
        case 6: return "Helm. RHS";
        case 7: return "Helm. slv";
        default: return "unknown";
    }
}

StageGroup stage_group(std::size_t stage) {
    switch (stage) {
        case 5: return StageGroup::PressureSolve;
        case 7: return StageGroup::ViscousSolve;
        default: return StageGroup::Setup;
    }
}

std::string stage_group_label(StageGroup group) {
    switch (group) {
        case StageGroup::PressureSolve: return "b";
        case StageGroup::ViscousSolve: return "c";
        default: return "a";
    }
}

} // namespace perf
