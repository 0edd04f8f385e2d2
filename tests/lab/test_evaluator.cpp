#include <gtest/gtest.h>

#include <string>

#include "lab/evaluator.hpp"
#include "lab/json.hpp"
#include "lab/pricing.hpp"
#include "lab/service.hpp"
#include "machine/machine_model.hpp"
#include "nektar/workloads.hpp"

// A measured lab query prices the very run the Table 1 and Table 2 benches
// price: same workload, same working sets, same per-step formula.
namespace {

namespace workloads = nektar::workloads;

perf::Case measured_case(lab::Evaluator& ev, const std::string& solver,
                         const std::string& machine, const std::string& net, int ranks) {
    lab::ScenarioRequest req;
    req.fidelity = "measured";
    req.solver = solver;
    req.machine = machine;
    req.net = net;
    req.ranks = ranks;
    return ev.evaluate(req).cases.at(0);
}

/// Compute seconds per step of `run` on `machine`, as the benches price it.
double compute_per_step(const workloads::Run& run, const std::string& machine) {
    const auto shapes = app_model::solver_shapes(run.field_bytes, run.solver_bytes);
    const auto comp =
        app_model::compute_stage_seconds(run.bd, machine::by_name(machine), shapes);
    double cpu = 0.0;
    for (std::size_t s = 1; s <= perf::kNumStages; ++s) cpu += comp[s];
    return cpu / run.bd.steps;
}

TEST(EvaluatorMeasured, SerialQueryPricesTableOnesRun) {
    lab::Evaluator ev;
    const perf::Case kase = measured_case(ev, "serial", "NCSA", "", 0);
    const double bench = compute_per_step(workloads::table1_serial(), "NCSA");
    EXPECT_DOUBLE_EQ(kase.values.at("cpu_seconds_per_step"), bench);
    EXPECT_DOUBLE_EQ(kase.values.at("wall_seconds_per_step"), bench);
}

TEST(EvaluatorMeasured, FourierQueryPricesTableTwosRun) {
    lab::Evaluator ev;
    const perf::Case kase = measured_case(ev, "fourier", "NCSA", "NCSA", 4);
    const workloads::Run run = workloads::table2_fourier(4);
    const auto& net = netsim::by_name("NCSA");
    const double cpu = compute_per_step(run, "NCSA");
    const double comm = simmpi::price(run.rank0.log, net, 4).total.total() / run.bd.steps;
    EXPECT_GT(comm, 0.0);
    EXPECT_DOUBLE_EQ(kase.values.at("cpu_seconds_per_step"),
                     cpu + comm * net.cpu_poll_fraction);
    EXPECT_DOUBLE_EQ(kase.values.at("wall_seconds_per_step"), cpu + comm);
}

TEST(EvaluatorMeasured, FourierWallCreditsTheOverlapItsRunHid) {
    // The probe runs the pipelined transpose.  On a stack that frees the CPU
    // during transfers (poll < 1) the wall earns back the hidden share of
    // each stage's overlapped comm, as in Table 2's "overlapped" column.
    lab::Evaluator ev;
    const perf::Case kase = measured_case(ev, "fourier", "RoadRunner", "RoadRunner eth.", 4);
    const workloads::Run run = workloads::table2_fourier(4);
    const auto& net = netsim::by_name("RoadRunner eth.");
    const double poll = net.cpu_poll_fraction;
    ASSERT_LT(poll, 1.0);
    const double cpu = compute_per_step(run, "RoadRunner");
    const auto priced = simmpi::price(run.rank0.log, net, 4);
    const auto probe = simmpi::price(run.rank0.log, workloads::probe_net(), 4);
    const double comm = priced.total.total() / run.bd.steps;
    double recovered = 0.0;
    for (const auto& [stage, hidden] : run.rank0.overlap_log)
        recovered += hidden / probe.stage(stage).overlapped * priced.stage(stage).overlapped *
                     (1.0 - poll);
    recovered /= run.bd.steps;
    EXPECT_GT(recovered, 0.0);
    EXPECT_DOUBLE_EQ(kase.values.at("cpu_seconds_per_step"), cpu + comm * poll);
    EXPECT_DOUBLE_EQ(kase.values.at("wall_seconds_per_step"), cpu + comm - recovered);
}

TEST(EvaluatorMeasured, FourierReportCarriesTheOverlapRows) {
    // The measured Fourier probe runs the pipelined transpose; rank 0's
    // overlap log over the steady steps lands in the nonlinear stage's row.
    lab::Evaluator ev;
    lab::ScenarioRequest req;
    req.fidelity = "measured";
    req.solver = "fourier";
    req.machine = "NCSA";
    req.net = "NCSA";
    req.ranks = 4;
    const perf::RunReport rep = ev.evaluate(req);
    double nonlinear_overlap = 0.0;
    for (const auto& row : rep.stages)
        if (row.stage == 2) nonlinear_overlap = row.overlap_seconds;
    EXPECT_GT(nonlinear_overlap, 0.0);
    EXPECT_GT(rep.metrics.counters.at("comm.overlap_hidden_seconds"), 0.0);
}

TEST(EvaluatorMeasured, PencilTransposeIsRefusedBeforeAnyProbeRuns) {
    // The measured probe is the paper's slab run: answering a "pencil"
    // request from it would store the slab's answer under the pencil key.
    // "" and "slab" pass.
    lab::Evaluator ev;
    lab::ScenarioRequest req;
    req.fidelity = "measured";
    req.solver = "fourier";
    req.machine = "NCSA";
    req.net = "NCSA";
    req.ranks = 2;
    req.steps = 1;
    req.transpose = "pencil";
    try {
        (void)ev.evaluate(req);
        ADD_FAILURE() << "a measured pencil request was evaluated";
    } catch (const lab::ParseError& e) {
        EXPECT_NE(std::string(e.what()).find("\"transpose\""), std::string::npos) << e.what();
    }
    EXPECT_EQ(ev.probe_runs(), 0u);

    lab::Service service;
    const lab::Answer answer = service.answer(req);
    EXPECT_FALSE(answer.error.empty());
    EXPECT_TRUE(answer.report_json.empty());
    EXPECT_EQ(service.stats().errors, 1u);

    req.transpose = "slab";
    (void)ev.evaluate(req);
    EXPECT_EQ(ev.probe_runs(), 1u);
}

TEST(Workloads, FourierCommPricePerStepDoesNotDependOnTheStepCount) {
    // Rank 0's logs cover exactly the steady steps its breakdown covers, so
    // the per-step price is the same whether the window holds 2 or 3 steps.
    const auto& net = netsim::by_name("RoadRunner eth.");
    const auto per_step = [&](int steady_steps) {
        const workloads::Run run =
            workloads::table2_fourier(4, /*overlap_transpose=*/true, /*trace=*/false,
                                      steady_steps);
        EXPECT_EQ(run.bd.steps, steady_steps);
        return simmpi::price(run.rank0.log, net, 4).total.total() / run.bd.steps;
    };
    const double two = per_step(2);
    const double three = per_step(3);
    EXPECT_GT(two, 0.0);
    EXPECT_NEAR(three, two, 1e-12 * two);
}

} // namespace
