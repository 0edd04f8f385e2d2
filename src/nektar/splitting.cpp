#include "nektar/splitting.hpp"

#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

#include "blaslite/blas.hpp"
#include "simmpi/simmpi.hpp"

namespace nektar {

const SplittingCoeffs& stiffly_stable(int order) {
    // Karniadakis, Israeli & Orszag (1991), Table 2 (the stiffly-stable
    // family the paper's three codes share).
    static const std::array<SplittingCoeffs, kMaxTimeOrder> table = {{
        {1, 1.0, {1.0, 0.0, 0.0}, {1.0, 0.0, 0.0}},
        {2, 1.5, {2.0, -0.5, 0.0}, {2.0, -1.0, 0.0}},
        {3, 11.0 / 6.0, {3.0, -1.5, 1.0 / 3.0}, {3.0, -3.0, 1.0}},
    }};
    if (order < 1 || order > kMaxTimeOrder)
        throw std::invalid_argument("stiffly_stable: time order must be 1..3");
    return table[static_cast<std::size_t>(order - 1)];
}

void FieldHistory::configure(std::size_t components, std::size_t size, int depth) {
    components_ = components;
    size_ = size;
    depth_ = depth;
    stored_ = 0;
    head_ = -1;
    ring_.assign(static_cast<std::size_t>(depth), {});
}

void FieldHistory::clear() {
    stored_ = 0;
    head_ = -1;
    for (auto& slot : ring_) slot.clear();
}

void FieldHistory::push(std::vector<std::vector<double>> fields) {
    if (depth_ == 0) return; // order-1 schemes keep no history
    assert(fields.size() == components_);
    head_ = (head_ + 1) % depth_;
    ring_[static_cast<std::size_t>(head_)] = std::move(fields);
    if (stored_ < depth_) ++stored_;
}

const std::vector<double>& FieldHistory::level(int age, std::size_t c) const {
    assert(age >= 1 && age <= stored_);
    const int slot = (head_ - (age - 1) + depth_ * age) % depth_;
    return ring_[static_cast<std::size_t>(slot)][c];
}

void FieldHistory::save(ckpt::SectionWriter& w) const {
    w.u64(components_);
    w.u64(size_);
    w.i64(depth_);
    w.i64(stored_);
    w.i64(head_);
    for (const auto& slot : ring_) {
        w.u64(slot.size()); // 0 for a never-filled slot
        for (const auto& field : slot) w.f64v(field);
    }
}

void FieldHistory::restore(ckpt::SectionReader& r) {
    if (r.u64() != components_ || r.u64() != size_)
        r.fail("history shape does not match this solver's configuration");
    const auto depth = r.i64();
    if (depth != depth_) r.fail("history depth does not match this solver's time order");
    const auto stored = r.i64();
    const auto head = r.i64();
    if (stored < 0 || stored > depth_ || head < -1 || head >= depth_)
        r.fail("history ring position out of range");
    stored_ = static_cast<int>(stored);
    head_ = static_cast<int>(head);
    for (auto& slot : ring_) {
        const std::uint64_t nfields = r.u64();
        if (nfields != 0 && nfields != components_)
            r.fail("history slot component count out of range");
        slot.clear();
        slot.reserve(nfields);
        for (std::uint64_t c = 0; c < nfields; ++c) {
            std::vector<double> field = r.f64v();
            if (field.size() != size_) r.fail("history field size out of range");
            slot.push_back(std::move(field));
        }
    }
}

SolverCore::SolverCore(int time_order, double dt, std::size_t num_fields, simmpi::Comm* comm,
                       bool trace)
    : time_order_(time_order), dt_(dt), num_fields_(num_fields), comm_(comm) {
    if (time_order < 1 || time_order > kMaxTimeOrder)
        throw std::invalid_argument("SolverCore: time_order must be 1..3");
    if (trace) {
        trace_lane_ = obs::tracer().lane(comm_ ? "rank " + std::to_string(comm_->rank())
                                               : std::string("solver"));
        trace_ids_[0] = obs::tracer().intern("step");
        for (std::size_t s = 1; s <= perf::kNumStages; ++s)
            trace_ids_[s] = obs::tracer().intern(perf::stage_short_name(s));
    }
}

bool SolverCore::tracing() const noexcept { return obs::active() && trace_lane_ != nullptr; }

double SolverCore::trace_now() const {
    return comm_ ? comm_->wall_time() : obs::tracer().host_now();
}

SolverCore::StageGuard::StageGuard(SolverCore& core, std::size_t stage)
    : core_(core), stage_(stage), tracing_(core.tracing()) {
    if (tracing_)
        obs::tracer().begin(core_.trace_lane_, core_.trace_ids_[stage_], core_.trace_now(),
                            core_.comm_ != nullptr);
    if (core_.comm_) core_.comm_->set_stage(static_cast<int>(stage_));
    scope_.emplace(core_.breakdown_, stage_);
}

SolverCore::StageGuard::~StageGuard() {
    scope_.reset();
    if (core_.comm_) core_.comm_->set_stage(-1);
    if (tracing_)
        obs::tracer().end(core_.trace_lane_, core_.trace_ids_[stage_], core_.trace_now(),
                          core_.comm_ != nullptr);
}

void SolverCore::reset_state(std::size_t field_size) {
    field_size_ = field_size;
    time_ = 0.0;
    steps_taken_ = 0;
    last_step_order_ = 0;
    last_velocity_lambda_ = std::numeric_limits<double>::quiet_NaN();
    end_step_counts_.reset();
    vel_hist_.configure(num_fields_, field_size, time_order_ - 1);
    nl_hist_.configure(num_fields_, field_size, time_order_ - 1);
    nl_scratch_.assign(num_fields_, std::vector<double>(field_size, 0.0));
    hat_scratch_.assign(num_fields_, std::vector<double>(field_size, 0.0));
}

void SolverCore::push_history(std::vector<std::vector<double>> vel,
                              std::vector<std::vector<double>> nl) {
    vel_hist_.push(std::move(vel));
    nl_hist_.push(std::move(nl));
}

int SolverCore::effective_order() const noexcept {
    const int from_history = vel_hist_.available() + 1; // +1: the current level
    return time_order_ < from_history ? time_order_ : from_history;
}

ckpt::Checkpoint SolverCore::checkpoint() const {
    ckpt::Checkpoint c;
    c.add("meta").u64(options_fingerprint());

    auto& core = c.add("core");
    core.f64(time_);
    core.i64(steps_taken_);
    core.i64(last_step_order_);
    core.f64(last_velocity_lambda_); // raw bits: the pre-first-step NaN round-trips
    core.u64(field_size_);
    core.i64(time_order_);
    core.u64(num_fields_);

    auto& hist = c.add("history");
    vel_hist_.save(hist);
    nl_hist_.save(hist);

    // The stage breakdown's deterministic counters.  host_seconds is
    // deliberately NOT part of the state vector: it measures this process's
    // wall time, which no restart can (or should) reproduce.  A restored run
    // restarts it at zero, and RunReport::to_canonical_json() masks it, so
    // full-report byte comparisons remain meaningful.
    auto& bd = c.add("breakdown");
    bd.i64(breakdown_.steps);
    for (std::size_t s = 0; s <= perf::kNumStages; ++s) {
        bd.u64(breakdown_.counts[s].flops);
        bd.u64(breakdown_.counts[s].bytes_read);
        bd.u64(breakdown_.counts[s].bytes_written);
        bd.u64(breakdown_.counts[s].calls);
    }

    save_state(c);
    return c;
}

void SolverCore::restore(const ckpt::Checkpoint& c) {
    {
        auto meta = c.open("meta");
        const std::uint64_t fp = meta.u64();
        if (fp != options_fingerprint())
            meta.fail("options fingerprint mismatch: the checkpoint was taken "
                      "under a different solver configuration");
        meta.expect_end();
    }

    auto core = c.open("core");
    const double time = core.f64();
    const std::int64_t steps = core.i64();
    const std::int64_t last_order = core.i64();
    const double lambda = core.f64();
    if (core.u64() != field_size_)
        core.fail("field size does not match this solver's (set_initial must "
                  "run with the same resolution before restore)");
    if (core.i64() != time_order_ || core.u64() != num_fields_)
        core.fail("time order / field count does not match this solver's");
    if (steps < 0 || last_order < 0 || last_order > kMaxTimeOrder)
        core.fail("step counter or step order out of range");
    core.expect_end();
    time_ = time;
    steps_taken_ = static_cast<int>(steps);
    last_step_order_ = static_cast<int>(last_order);
    last_velocity_lambda_ = lambda;
    end_step_counts_.reset();

    auto hist = c.open("history");
    vel_hist_.restore(hist);
    nl_hist_.restore(hist);
    hist.expect_end();

    auto bd = c.open("breakdown");
    breakdown_ = perf::StageBreakdown{}; // zeroes host_seconds (see checkpoint())
    const std::int64_t bd_steps = bd.i64();
    if (bd_steps < 0) bd.fail("breakdown step count out of range");
    breakdown_.steps = static_cast<int>(bd_steps);
    for (std::size_t s = 0; s <= perf::kNumStages; ++s) {
        breakdown_.counts[s].flops = bd.u64();
        breakdown_.counts[s].bytes_read = bd.u64();
        breakdown_.counts[s].bytes_written = bd.u64();
        breakdown_.counts[s].calls = bd.u64();
    }
    bd.expect_end();

    restore_state(c);
}

void SolverCore::maybe_checkpoint() const {
    if (checkpoint_every_ > 0 && checkpoint_sink_ &&
        steps_taken_ % checkpoint_every_ == 0)
        checkpoint_sink_(checkpoint());
}

void SolverCore::begin_step(const StepContext&) {}

void SolverCore::extrapolate(const StepContext& ctx,
                             const std::vector<std::vector<double>>& nl_new,
                             std::vector<std::vector<double>>& hat) {
    const SplittingCoeffs& sc = ctx.scheme;
    const int je = sc.order;
    const std::size_t n = field_size_;
    for (std::size_t c = 0; c < num_fields_; ++c) {
        auto& h = hat[c];
        const std::vector<double>& v0 = quad_field(c);
        // Velocity part, fused across ages: h = sum_q alpha_q u^{n-q}.
        switch (je) {
            case 1:
                for (std::size_t i = 0; i < n; ++i) h[i] = sc.alpha[0] * v0[i];
                break;
            case 2: {
                const std::vector<double>& v1 = vel_hist_.level(1, c);
                for (std::size_t i = 0; i < n; ++i)
                    h[i] = sc.alpha[0] * v0[i] + sc.alpha[1] * v1[i];
                break;
            }
            default: {
                const std::vector<double>& v1 = vel_hist_.level(1, c);
                const std::vector<double>& v2 = vel_hist_.level(2, c);
                for (std::size_t i = 0; i < n; ++i)
                    h[i] = sc.alpha[0] * v0[i] + sc.alpha[1] * v1[i] + sc.alpha[2] * v2[i];
                break;
            }
        }
        blaslite::detail::charge(static_cast<std::uint64_t>(2 * je - 1) * n,
                                 static_cast<std::uint64_t>(je) * n * sizeof(double),
                                 n * sizeof(double));
        // Nonlinear part: h += dt sum_q beta_q N^{n-q}.
        blaslite::daxpy(ctx.dt * sc.beta[0], nl_new[c], h);
        for (int q = 1; q < je; ++q)
            blaslite::daxpy(ctx.dt * sc.beta[static_cast<std::size_t>(q)],
                            nl_hist_.level(q, c), h);
    }
}

void SolverCore::advance() {
    assert(field_size_ > 0 && "reset_state (set_initial) must run before advance");
    const int je = effective_order();
    const StepContext ctx{steps_taken_, stiffly_stable(je), dt_, time_ + dt_};
    breakdown_.steps += 1;
    last_step_order_ = je;

    // Stage spans bracket the stage accounting, on the virtual clock for
    // comm-backed solvers (bit-deterministic) or the host clock.
    const bool tracing = this->tracing();
    const bool virtual_time = comm_ != nullptr;
    const auto run_stage = [&](std::size_t s, auto&& body) {
        const StageGuard guard(*this, s);
        body();
    };

    if (tracing) obs::tracer().begin(trace_lane_, trace_ids_[0], trace_now(), virtual_time);
    begin_step(ctx);

    run_stage(1, [&] {
        if (const auto counts = std::exchange(end_step_counts_, std::nullopt))
            blaslite::thread_counts() += *counts;
        else
            stage_transform(ctx);
    });
    run_stage(2, [&] { stage_nonlinear(ctx, nl_scratch_); });
    run_stage(3, [&] { extrapolate(ctx, nl_scratch_, hat_scratch_); });
    run_stage(4, [&] { stage_pressure_rhs(ctx, hat_scratch_); });
    run_stage(5, [&] { stage_pressure_solve(ctx); });
    run_stage(6, [&] { stage_viscous_rhs(ctx, hat_scratch_); });
    run_stage(7, [&] { stage_viscous_solve(ctx); });

    // Rotate the histories: the pre-solve quadrature fields become u^{n-1},
    // this step's nonlinear terms become N^{n-1}.
    if (time_order_ > 1) {
        std::vector<std::vector<double>> vel(num_fields_);
        for (std::size_t c = 0; c < num_fields_; ++c) vel[c] = quad_field(c);
        vel_hist_.push(std::move(vel));
        std::vector<std::vector<double>> nl = std::move(nl_scratch_);
        nl_scratch_.assign(num_fields_, std::vector<double>(field_size_, 0.0));
        nl_hist_.push(std::move(nl));
    }

    {
        const blaslite::CountScope counts;
        end_step(ctx);
        end_step_counts_ = counts.delta();
    }
    if (tracing) obs::tracer().end(trace_lane_, trace_ids_[0], trace_now(), virtual_time);
    time_ = ctx.t_new;
    ++steps_taken_;
    maybe_checkpoint();
}

} // namespace nektar
