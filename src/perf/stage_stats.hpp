#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <string>

#include "blaslite/counters.hpp"
#include "machine/machine_model.hpp"

/// \file stage_stats.hpp
/// Per-stage operation accounting for the application-level experiments.
///
/// The paper splits each time step into 7 stages (Figure 12):
///   1 modal->quadrature transform      5 Poisson (pressure) solve
///   2 nonlinear term evaluation        6 Helmholtz RHS setup
///   3 extrapolation weighting          7 Helmholtz (viscous) solve
///   4 Poisson RHS setup
/// Our solvers run for real on this host; every stage records the flops and
/// bytes its kernels moved (via the blaslite counters) plus the measured host
/// time.  The per-machine predictors then price the same operation stream on
/// each 1999 machine.
namespace perf {

inline constexpr std::size_t kNumStages = 7;

/// Characterisation used to price one stage on a machine model: which cache
/// level the stage's data lives in and how efficiently it uses the FPU.
struct StageShape {
    std::size_t working_set_bytes = 1 << 30; ///< default: streams from memory
    double compute_efficiency = 0.5;
    bool latency_bound = false; ///< dependency-chained access (back-substitution)
};

struct StageBreakdown {
    std::array<blaslite::OpCounts, kNumStages + 1> counts{}; ///< 1-based
    std::array<double, kNumStages + 1> host_seconds{};
    int steps = 0;

    StageBreakdown& operator+=(const StageBreakdown& o);

    [[nodiscard]] blaslite::OpCounts total_counts() const;
    [[nodiscard]] double total_host_seconds() const;
    // Communication is not recorded here: a rank's simmpi logs (CommLog,
    // FaultLog, OverlapLog) are the one per-stage comm ledger, and
    // perf::report() (report.hpp) folds them next to these counts.

    /// Predicted seconds a machine spends in `stage` over the recorded run.
    [[nodiscard]] double predict_stage_seconds(const machine::MachineModel& m,
                                               std::size_t stage,
                                               const StageShape& shape) const;
};

/// RAII scope charging one stage: captures blaslite count deltas and host time.
class StageScope {
public:
    StageScope(StageBreakdown& bd, std::size_t stage)
        : bd_(&bd), stage_(stage), start_(std::chrono::steady_clock::now()) {}
    StageScope(const StageScope&) = delete;
    StageScope& operator=(const StageScope&) = delete;
    ~StageScope() {
        bd_->counts[stage_] += scope_.delta();
        bd_->host_seconds[stage_] +=
            std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
    }

private:
    StageBreakdown* bd_;
    std::size_t stage_;
    blaslite::CountScope scope_;
    std::chrono::steady_clock::time_point start_;
};

/// The 1-based slot a comm log's stage tag is counted in: 1-7 as tagged,
/// 0 for events outside an explicit stage (simmpi's tag -1).
[[nodiscard]] constexpr std::size_t stage_slot(int stage) {
    return stage >= 1 && stage <= static_cast<int>(kNumStages) ? static_cast<std::size_t>(stage)
                                                               : 0;
}

/// Stage names as the paper labels them.
[[nodiscard]] std::string stage_name(std::size_t stage);

/// Compact stage labels for table columns ("transform", "nonlinear", ...).
[[nodiscard]] std::string stage_short_name(std::size_t stage);

/// The paper's coarse stage grouping (Figures 15-16): group a is the setup
/// work (stages 1-4 and 6), b the pressure solve (stage 5), c the viscous +
/// mesh-velocity solves (stage 7).  Shared by every solver's reporting so
/// the three codes bucket identically.
enum class StageGroup { Setup, PressureSolve, ViscousSolve };

[[nodiscard]] StageGroup stage_group(std::size_t stage);

/// The paper's one-letter label for a group: "a", "b" or "c".
[[nodiscard]] std::string stage_group_label(StageGroup group);

} // namespace perf
