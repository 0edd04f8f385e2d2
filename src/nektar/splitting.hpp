#pragma once

#include <array>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "obs/trace.hpp"
#include "perf/stage_stats.hpp"

namespace simmpi {
class Comm;
}

/// \file splitting.hpp
/// The shared stiffly-stable time-integration core of the three
/// Navier-Stokes solvers (serial 2-D, NekTar-F, NekTar-ALE).
///
/// All three application codes of the paper integrate the incompressible
/// Navier-Stokes equations with the high-order splitting scheme of
/// Karniadakis, Israeli & Orszag (1991):
///
///   uhat             = sum_q alpha_q u^{n-q} + dt sum_q beta_q N(u^{n-q})
///   lap p^{n+1}      = div uhat / dt                  (pressure Poisson)
///   (lap - gamma0/(nu dt)) u^{n+1} = -uhat''/(nu dt)  (viscous Helmholtz)
///
/// at integration order Je = 1..3.  This header owns the pieces that are
/// identical across the solvers: the coefficient tables, the startup-order
/// ramp, the field-history ring buffers, per-effective-order Helmholtz
/// operator caches (so the implicit lambda always matches the explicit
/// weights, including on the ramped first steps), and the SolverCore stage
/// pipeline that sequences the paper's 7 instrumented stages around
/// per-solver hooks (nonlinear terms, pressure/viscous RHS and solves).
namespace nektar {

/// Highest supported integration order (the paper's Je <= 3).
inline constexpr int kMaxTimeOrder = 3;

/// Stiffly-stable integration coefficients for one order Je.
struct SplittingCoeffs {
    int order;       ///< Je
    double gamma0;   ///< implicit weight of u^{n+1}
    std::array<double, kMaxTimeOrder> alpha; ///< explicit velocity weights
    std::array<double, kMaxTimeOrder> beta;  ///< explicit nonlinear weights
};

/// The coefficient table for Je in [1, kMaxTimeOrder]; throws
/// std::invalid_argument outside that range.
[[nodiscard]] const SplittingCoeffs& stiffly_stable(int order);

/// Ring buffer of the last `depth` time levels of a `components`-field set
/// (u^{n-1}, u^{n-2}, ... — the *current* level lives with the solver).
/// Age 1 is the most recently pushed level, age `depth` the oldest.
class FieldHistory {
public:
    FieldHistory() = default;

    /// (Re)configures for `components` fields of `size` entries each keeping
    /// `depth` levels, and forgets all stored levels.
    void configure(std::size_t components, std::size_t size, int depth);

    /// Forgets all stored levels (keeps the configuration).
    void clear();

    /// Stores a new most-recent level, evicting the oldest when full.
    /// `fields` must hold `components` vectors of `size` entries.
    void push(std::vector<std::vector<double>> fields);

    /// Number of levels currently stored (<= depth).
    [[nodiscard]] int available() const noexcept { return stored_; }
    [[nodiscard]] int depth() const noexcept { return depth_; }

    /// Component `c` of the level `age` steps back (age in [1, available()]).
    [[nodiscard]] const std::vector<double>& level(int age, std::size_t c) const;

    /// Serializes configuration, ring position (head/stored — the startup
    /// ramp lives here) and every slot's contents.
    void save(ckpt::SectionWriter& w) const;
    /// Restores the state written by save(); the stored configuration must
    /// match this buffer's (reconfiguring through a checkpoint would mean
    /// the solver options changed — that is a fingerprint failure upstream).
    void restore(ckpt::SectionReader& r);

private:
    std::size_t components_ = 0;
    std::size_t size_ = 0;
    int depth_ = 0;
    int stored_ = 0;
    int head_ = -1; ///< ring slot of the most recent level
    std::vector<std::vector<std::vector<double>>> ring_; ///< [slot][component]
};

/// Lazily built per-effective-order sets of direct Helmholtz operators.
/// During the startup ramp the effective gamma0 differs from the requested
/// order's, so the velocity operator lambda = gamma0/(nu dt) (+ beta_k^2)
/// must be rebuilt to match the explicit weights; this cache builds each
/// order's operator set once, on first use.  `Solver` is the solver's
/// direct operator: CondensedHelmholtz (SerialNS2d) or HelmholtzDirect
/// (FourierNS).
template <class Solver>
class HelmholtzOrderCache {
public:
    /// Builds the full operator set (one per Fourier mode; a single entry
    /// for the 2-D solvers) for the given effective gamma0.
    using Factory = std::function<std::vector<Solver>(double gamma0)>;

    void configure(Factory factory) {
        factory_ = std::move(factory);
        for (auto& c : cache_) c.reset();
    }

    /// The operator set for integration order `je`, built on first use.
    [[nodiscard]] const std::vector<Solver>& get(int je) const {
        auto& slot = cache_.at(static_cast<std::size_t>(je));
        if (!slot) slot = factory_(stiffly_stable(je).gamma0);
        return *slot;
    }

    /// The orders whose operator sets have been built, ascending.  The
    /// restart regression tests use this to assert a run resumed mid-ramp
    /// rebuilds the ramp orders' operators, not just the steady-state one.
    [[nodiscard]] std::vector<int> built_orders() const {
        std::vector<int> orders;
        for (std::size_t je = 0; je < cache_.size(); ++je)
            if (cache_[je]) orders.push_back(static_cast<int>(je));
        return orders;
    }

private:
    Factory factory_;
    mutable std::array<std::optional<std::vector<Solver>>, kMaxTimeOrder + 1> cache_;
};

/// The shared stage pipeline: owns the clock, the step counter, the stage
/// breakdown, the velocity/nonlinear histories, and the stage-3 stiffly-
/// stable extrapolation; derived solvers supply the variant-specific stages
/// through the protected hooks.  One advance() is one time step split into
/// the paper's 7 instrumented stages (Figure 12):
///   1 transform modal -> quadrature    5 Poisson (pressure) solve
///   2 nonlinear terms                  6 Helmholtz RHS setup
///   3 extrapolation weighting          7 Helmholtz (viscous) solve
///   4 Poisson RHS setup
class SolverCore {
public:
    [[nodiscard]] double time() const noexcept { return time_; }
    [[nodiscard]] int steps_taken() const noexcept { return steps_taken_; }
    [[nodiscard]] int time_order() const noexcept { return time_order_; }

    [[nodiscard]] const perf::StageBreakdown& breakdown() const noexcept { return breakdown_; }
    perf::StageBreakdown& breakdown() noexcept { return breakdown_; }

    /// Effective integration order of the upcoming step: the requested order
    /// capped by the available history (the startup ramp 1, 2, ..., Je, or
    /// Je immediately after prime_history()).
    [[nodiscard]] int effective_order() const noexcept;

    /// Integration order the most recent step actually ran at (0 before any
    /// step has been taken).
    [[nodiscard]] int last_step_order() const noexcept { return last_step_order_; }

    /// The Helmholtz lambda = gamma0_eff/(nu dt) (plus the beta_k^2 shift of
    /// the mean mode, where applicable) used by the most recent velocity
    /// solve; NaN before any step.  Regression hook: this must always match
    /// the explicit weights of the same step.
    [[nodiscard]] double last_velocity_lambda() const noexcept {
        return last_velocity_lambda_;
    }

    // --- checkpoint/restart -------------------------------------------------
    /// Snapshots the full integration state — clock, step counter, both
    /// history ring buffers (so a restart lands at the exact startup-ramp
    /// position), the stage breakdown's deterministic counters, the solver's
    /// fields, and a fingerprint of the solver options.  Serializing the
    /// result twice from the same state yields identical bytes.
    [[nodiscard]] ckpt::Checkpoint checkpoint() const;

    /// Restores the state written by checkpoint().  Throws ckpt::Error if the
    /// checkpoint's options fingerprint does not match this solver's (same
    /// section-named diagnostics as a corrupt file), or if any section is
    /// malformed.  After restore() the next advance() reproduces, bit for
    /// bit, the step the checkpointed run took next.
    void restore(const ckpt::Checkpoint& c);

    /// Called with the fresh checkpoint every cadence steps (see
    /// set_checkpoint_cadence); typically writes it to a file or a
    /// ckpt::Store.
    using CheckpointSink = std::function<void(const ckpt::Checkpoint&)>;
    void set_checkpoint_sink(CheckpointSink sink) { checkpoint_sink_ = std::move(sink); }

    /// Checkpoints after every `every` steps (0 disables, the default).
    /// SolverOptions::checkpoint_every seeds this at construction.
    void set_checkpoint_cadence(int every) noexcept { checkpoint_every_ = every; }
    [[nodiscard]] int checkpoint_cadence() const noexcept { return checkpoint_every_; }

protected:
    /// `num_fields` advected velocity components (2 for the 2-D solvers,
    /// 3 for NekTar-F).  `comm` is the rank's communicator, null for a
    /// serial run.  With `trace` (SolverOptions::trace) the step and stage
    /// spans go to obs lane "rank N" on the comm's virtual wall clock, or to
    /// lane "solver" on the host clock when serial; events only record while
    /// obs::tracer() is enabled.
    SolverCore(int time_order, double dt, std::size_t num_fields, simmpi::Comm* comm, bool trace);
    ~SolverCore() = default;

    /// Charges everything done in its lifetime to paper stage `stage`: the
    /// blaslite counts and host time to breakdown(), the comm events to the
    /// rank's logs, and a span to the trace lane.  advance() runs each stage
    /// in one; a derived solver opens one for stage work it does outside the
    /// stage hooks (the ALE begin_step).
    class StageGuard {
    public:
        StageGuard(SolverCore& core, std::size_t stage);
        StageGuard(const StageGuard&) = delete;
        StageGuard& operator=(const StageGuard&) = delete;
        ~StageGuard();

    private:
        SolverCore& core_;
        std::size_t stage_;
        bool tracing_;
        std::optional<perf::StageScope> scope_; ///< closed before the span ends
    };

    /// Per-step context handed to every hook.
    struct StepContext {
        int step;                      ///< 0-based index of this step
        const SplittingCoeffs& scheme; ///< effective coefficients this step
        double dt;
        double t_new;                  ///< time at the end of this step
    };

    /// Runs one full splitting step through the stage pipeline.
    void advance();

    /// Resets the clock, the step counter, and both histories; call from
    /// set_initial once the per-component field size is known.
    void reset_state(std::size_t field_size);

    /// Seeds one history level (oldest first) of velocity quad fields and
    /// their nonlinear terms, so the first step can run at full order
    /// instead of ramping; used by the exact-start paths of the solvers.
    void push_history(std::vector<std::vector<double>> vel,
                      std::vector<std::vector<double>> nl);

    /// Derived stage-7 implementations report the lambda they solved with.
    void record_velocity_lambda(double lambda) noexcept { last_velocity_lambda_ = lambda; }

    // --- per-solver hooks, called in pipeline order ---
    /// Work preceding stage 1 (the ALE mesh-velocity solve and mesh update);
    /// charges its own StageGuards.
    virtual void begin_step(const StepContext& ctx);
    /// Stage 1: transform modal -> quadrature for every field.
    virtual void stage_transform(const StepContext& ctx) = 0;
    /// Stage 2: nonlinear terms at quadrature points, one vector per field.
    virtual void stage_nonlinear(const StepContext& ctx,
                                 std::vector<std::vector<double>>& nl) = 0;
    /// Stage 4: pressure Poisson RHS from the extrapolated fields.
    virtual void stage_pressure_rhs(const StepContext& ctx,
                                    const std::vector<std::vector<double>>& hat) = 0;
    /// Stage 5: the pressure solve.
    virtual void stage_pressure_solve(const StepContext& ctx) = 0;
    /// Stage 6: viscous Helmholtz RHS; updates `hat` in place.
    virtual void stage_viscous_rhs(const StepContext& ctx,
                                   std::vector<std::vector<double>>& hat) = 0;
    /// Stage 7: the velocity solves; must call record_velocity_lambda().
    virtual void stage_viscous_solve(const StepContext& ctx) = 0;
    /// Work following stage 7: transform the new solution back to
    /// quadrature space, exactly as stage_transform would.  advance()
    /// records what it charges, and the next step's stage 1 charges that
    /// again instead of calling stage_transform: one transform per step,
    /// with every stage's counts (and so the model) where two would put
    /// them.
    virtual void end_step(const StepContext& ctx) = 0;
    /// Makes the next stage 1 call stage_transform rather than re-charge
    /// end_step's transform: for a begin_step that changes what the
    /// transform computes (the ALE geometry rebuild).
    void redo_stage_transform() noexcept { end_step_counts_.reset(); }

    /// Quadrature values of advected field `c` as of the last stage-1
    /// transform; feeds the extrapolation and the velocity history.
    [[nodiscard]] virtual const std::vector<double>& quad_field(std::size_t c) const = 0;

    // --- checkpoint hooks ---------------------------------------------------
    /// Adds the solver-specific sections ("fields", and e.g. "mesh"/"comm")
    /// to the checkpoint; the core sections are already present.
    virtual void save_state(ckpt::Checkpoint& c) const = 0;
    /// Restores the sections written by save_state().  The core state is
    /// restored before this is called, so steps_taken()/time() are already
    /// the checkpoint's.
    virtual void restore_state(const ckpt::Checkpoint& c) = 0;
    /// Stable hash of every option that shapes the state vector (scheme,
    /// resolution, dt, rank layout); restore() refuses a checkpoint whose
    /// fingerprint differs.
    [[nodiscard]] virtual std::uint64_t options_fingerprint() const = 0;

private:
    /// Stage 3: hat_c = sum_q alpha_q u_c^{n-q} + dt sum_q beta_q N_c^{n-q},
    /// identical across the three solvers.
    void extrapolate(const StepContext& ctx, const std::vector<std::vector<double>>& nl_new,
                     std::vector<std::vector<double>>& hat);

    /// Fires the checkpoint sink when the cadence divides steps_taken_.
    void maybe_checkpoint() const;

    /// True when advance() should record spans this call.
    [[nodiscard]] bool tracing() const noexcept;
    /// Trace timestamp: the comm's virtual wall clock, else the host clock.
    [[nodiscard]] double trace_now() const;

    int time_order_;
    double dt_;
    std::size_t num_fields_;
    simmpi::Comm* comm_;
    std::size_t field_size_ = 0;

    double time_ = 0.0;
    int steps_taken_ = 0;
    int last_step_order_ = 0;
    double last_velocity_lambda_ = std::numeric_limits<double>::quiet_NaN();

    /// What end_step charged, while its transform still stands in for
    /// stage 1's; empty after reset_state, restore and redo_stage_transform.
    std::optional<blaslite::OpCounts> end_step_counts_;

    FieldHistory vel_hist_; ///< u^{n-1}, u^{n-2}, ...
    FieldHistory nl_hist_;  ///< N^{n-1}, N^{n-2}, ...
    std::vector<std::vector<double>> nl_scratch_, hat_scratch_;

    perf::StageBreakdown breakdown_;

    int checkpoint_every_ = 0;
    CheckpointSink checkpoint_sink_;

    // Tracing: the lane advance() stamps stage spans on (null = not
    // tracing) and the pre-interned event names ([0] = "step", [s] = stage
    // s's short name).
    obs::Lane* trace_lane_ = nullptr;
    std::array<std::uint32_t, perf::kNumStages + 1> trace_ids_{};
};

} // namespace nektar
