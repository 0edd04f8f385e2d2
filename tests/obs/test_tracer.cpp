#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <numbers>
#include <string>
#include <type_traits>
#include <vector>

#include "lab/json.hpp"
#include "mesh/generators.hpp"
#include "nektar/ns_fourier.hpp"
#include "nektar/ns_serial.hpp"
#include "obs/json_write.hpp"
#include "obs/trace.hpp"
#include "perf/report.hpp"

/// The observability contract: spans nest and order correctly on every lane,
/// the virtual-clock rank lanes agree with the comm runtime's own fault and
/// overlap accounting, the serialized stream is bit-deterministic across
/// seeded runs, and perf::report() emits the versioned RunReport shape.
namespace {

using nektar::Discretization;
using nektar::FourierNS;
using nektar::FourierNsOptions;
using nektar::SerialNS2d;
using nektar::SerialNsOptions;
using obs::EventKind;

/// Every test starts and ends with a clean global tracer — it is process
/// state shared with whatever ran before.
class TracerTest : public ::testing::Test {
protected:
    void SetUp() override {
        obs::tracer().disable();
        obs::tracer().reset();
    }
    void TearDown() override {
        obs::tracer().disable();
        obs::tracer().reset();
    }
};

netsim::NetworkModel test_net(std::uint64_t fault_seed) {
    netsim::NetworkModel n;
    n.name = "tracer-test";
    n.latency_us = 10.0;
    n.bandwidth_mbps = 100.0;
    if (fault_seed != 0) {
        n.fault.seed = fault_seed;
        n.fault.latency_jitter_us = 80.0;
        n.fault.loss_probability = 0.05;
        n.fault.retransmit_timeout_us = 300.0;
        n.fault.straggler_fraction = 0.3;
        n.fault.straggler_factor = 2.5;
    }
    return n;
}

std::shared_ptr<Discretization> shear_disc(std::size_t order) {
    auto m = mesh::rectangle_quads(2, 2, 0.0, 1.0, 0.0, 1.0);
    m.tag_boundary(mesh::BoundaryTag::Side, [](double, double) { return true; });
    m.tag_boundary(mesh::BoundaryTag::Wall,
                   [](double, double y) { return y < 1e-9 || y > 1.0 - 1e-9; });
    return std::make_shared<Discretization>(std::make_shared<mesh::Mesh>(std::move(m)), order);
}

FourierNsOptions shear_opts() {
    FourierNsOptions o;
    o.dt = 2e-3;
    o.viscosity = 0.05;
    o.num_modes = 4;
    o.velocity_bc.dirichlet = {mesh::BoundaryTag::Wall};
    o.pressure_bc.dirichlet.clear();
    o.pressure_bc.pin_first_dof = true;
    o.trace = true;
    return o;
}

/// A short seeded NekTar-F run with stage tracing on; returns the rank
/// reports so tests can cross-check the trace against the comm accounting.
std::vector<simmpi::RankReport> run_traced_fourier(int nprocs, std::uint64_t fault_seed,
                                                   int nsteps = 3) {
    simmpi::World world(nprocs, test_net(fault_seed));
    return world.run([&](simmpi::Comm& c) {
        FourierNS ns(shear_disc(4), shear_opts(), &c);
        ns.set_initial(
            [](double, double y, double z) {
                return std::sin(std::numbers::pi * y) * (std::sin(z) + 0.3 * std::cos(2.0 * z));
            },
            [](double, double, double) { return 0.0; },
            [](double, double, double) { return 0.0; });
        for (int s = 0; s < nsteps; ++s) ns.step();
    });
}

/// Walks one lane's events checking the structural invariants: Begin/End
/// strictly LIFO per lane, timestamps non-decreasing, no ring drops.
void check_lane_invariants(const obs::Tracer::Snapshot& snap,
                           const obs::Tracer::LaneSnapshot& lane) {
    ASSERT_EQ(lane.dropped, 0u) << "lane " << lane.name << " overflowed its ring";
    std::vector<std::uint32_t> stack;
    double last_t = -1e300;
    for (const auto& ev : lane.events) {
        EXPECT_GE(ev.t, last_t) << "time went backwards on lane " << lane.name;
        last_t = ev.t;
        switch (ev.kind) {
        case EventKind::Begin: stack.push_back(ev.name); break;
        case EventKind::End:
            ASSERT_FALSE(stack.empty())
                << "End without Begin on lane " << lane.name << ": "
                << snap.strings[ev.name];
            ASSERT_EQ(snap.strings[stack.back()], snap.strings[ev.name])
                << "mismatched End on lane " << lane.name;
            stack.pop_back();
            break;
        case EventKind::Counter:
        case EventKind::Instant: break;
        }
    }
    EXPECT_TRUE(stack.empty()) << "unclosed span on lane " << lane.name;
}

TEST_F(TracerTest, InterningDeduplicatesAndLanePointersAreStable) {
    obs::tracer().enable();
    obs::Lane* a = obs::tracer().lane("rank 0");
    obs::Lane* b = obs::tracer().lane("rank 0");
    EXPECT_EQ(a, b);
    EXPECT_EQ(a->name(), "rank 0");
    const std::uint32_t s1 = obs::tracer().intern("gs.sum.blocking");
    const std::uint32_t s2 = obs::tracer().intern("gs.sum.blocking");
    EXPECT_EQ(s1, s2);
    EXPECT_NE(s1, 0u); // 0 is reserved for ""
    EXPECT_EQ(obs::tracer().intern(""), 0u);
}

TEST_F(TracerTest, InactiveTracerRecordsNothing) {
    ASSERT_FALSE(obs::active());
    run_traced_fourier(2, 0, 1); // opts.trace = true, but tracer not enabled
    obs::tracer().enable();
    const auto snap = obs::tracer().snapshot();
    std::size_t events = 0;
    for (const auto& lane : snap.lanes) events += lane.events.size();
    EXPECT_EQ(events, 0u);
}

TEST_F(TracerTest, SolverSpansNestAndOrderOnEveryRankLane) {
    obs::tracer().enable();
    run_traced_fourier(2, 0);
    obs::tracer().disable();
    const auto snap = obs::tracer().snapshot();

    int rank_lanes = 0;
    for (const auto& lane : snap.lanes) {
        if (lane.name.rfind("rank ", 0) != 0) continue;
        ++rank_lanes;
        ASSERT_FALSE(lane.events.empty());
        check_lane_invariants(snap, lane);

        // Every stage span must sit inside a "step" span.  (Comm spans from
        // solver setup legitimately run at top level before the first step.)
        std::vector<std::string> stack;
        int steps_seen = 0;
        const std::vector<std::string> stage_names = {"transform", "nonlinear"};
        for (const auto& ev : lane.events) {
            const std::string& name = snap.strings[ev.name];
            if (ev.kind == EventKind::Begin) {
                if (name == "step") {
                    EXPECT_TRUE(stack.empty()) << "nested step on " << lane.name;
                    ++steps_seen;
                }
                for (const auto& sn : stage_names) {
                    if (name == sn) {
                        ASSERT_FALSE(stack.empty()) << "stage span outside step";
                    }
                }
                stack.push_back(name);
            } else if (ev.kind == EventKind::End) {
                stack.pop_back();
            }
        }
        EXPECT_EQ(steps_seen, 3) << "expected one step span per ns.step()";
    }
    EXPECT_EQ(rank_lanes, 2);
}

TEST_F(TracerTest, VirtualLanesAgreeWithFaultAndOverlapAccounting) {
    obs::tracer().enable({.virtual_only = true});
    const auto reports = run_traced_fourier(2, 20260807);
    obs::tracer().disable();
    const auto snap = obs::tracer().snapshot();

    double all_retrans = 0.0, all_hidden = 0.0;
    for (int r = 0; r < 2; ++r) {
        const obs::Tracer::LaneSnapshot* lane = nullptr;
        for (const auto& l : snap.lanes)
            if (l.name == "rank " + std::to_string(r)) lane = &l;
        ASSERT_NE(lane, nullptr);
        check_lane_invariants(snap, *lane);

        double trace_retrans = 0.0, trace_hidden = 0.0;
        for (const auto& ev : lane->events) {
            EXPECT_TRUE(ev.virtual_time)
                << "host-clock event survived virtual_only on " << lane->name;
            if (ev.kind != EventKind::Counter) continue;
            const std::string& name = snap.strings[ev.name];
            if (name == "fault.retransmits") trace_retrans += ev.value;
            if (name == "overlap.hidden_s") trace_hidden += ev.value;
        }
        double log_retrans = 0.0, log_hidden = 0.0;
        const auto& rep = reports[static_cast<std::size_t>(r)];
        for (const auto& [stage, fs] : rep.fault_log) {
            (void)stage;
            log_retrans += static_cast<double>(fs.retransmits);
        }
        for (const auto& [stage, hidden] : rep.overlap_log) {
            (void)stage;
            log_hidden += hidden;
        }
        // The counters must agree with the comm runtime's own books.
        EXPECT_DOUBLE_EQ(trace_retrans, log_retrans) << "rank " << r;
        EXPECT_NEAR(trace_hidden, log_hidden, 1e-9 * (1.0 + log_hidden)) << "rank " << r;
        all_retrans += log_retrans;
        all_hidden += log_hidden;
    }
    // The seeded loss rate must actually have exercised both code paths.
    EXPECT_GT(all_retrans, 0.0);
    EXPECT_GT(all_hidden, 0.0);
}

TEST_F(TracerTest, SerializedStreamIsBitDeterministicAcrossThreeRuns) {
    std::vector<std::vector<std::uint8_t>> streams;
    for (int run = 0; run < 3; ++run) {
        obs::tracer().reset();
        obs::tracer().enable({.virtual_only = true});
        run_traced_fourier(2, 20260807);
        obs::tracer().disable();
        streams.push_back(obs::tracer().serialize());
    }
    ASSERT_GT(streams[0].size(), 0u);
    EXPECT_EQ(streams[0], streams[1]);
    EXPECT_EQ(streams[0], streams[2]);
}

TEST_F(TracerTest, ChromeJsonIsBalancedAndNamesLanes) {
    obs::tracer().enable();
    run_traced_fourier(2, 0, 1);
    obs::tracer().disable();
    const std::string json = obs::tracer().chrome_json();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("rank 0"), std::string::npos);
    EXPECT_NE(json.find("rank 1"), std::string::npos);
    long depth = 0;
    for (const char c : json) {
        if (c == '{') ++depth;
        if (c == '}') --depth;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}

/// JSON has no nan/inf: non-finite counter values are clamped by the shared
/// number writer, so the export stays parseable.
TEST_F(TracerTest, ChromeJsonParsesWithNonFiniteCounters) {
    obs::tracer().enable();
    obs::Lane* lane = obs::tracer().lane("unit");
    const std::uint32_t name = obs::tracer().intern("gauge");
    obs::tracer().counter(lane, name, 1.0, std::numeric_limits<double>::quiet_NaN(), true);
    obs::tracer().counter(lane, name, 2.0, std::numeric_limits<double>::infinity(), true);
    obs::tracer().counter(lane, name, 3.0, -std::numeric_limits<double>::infinity(), true);
    obs::tracer().disable();

    const lab::Json doc = lab::Json::parse(obs::tracer().chrome_json());
    std::vector<double> values;
    for (const lab::Json& ev : doc.at("traceEvents").as_array())
        if (ev.at("ph").as_string() == "C") values.push_back(ev.at("args").at("value").as_number());
    EXPECT_EQ(values, (std::vector<double>{0.0, 1e308, -1e308}));
}

TEST(JsonWrite, EscapesQuoteBackslashNewlineTabAndControlBytes) {
    std::string out;
    obs::append_json_string(out, "a\"b\\c\nd\te\x01" "f");
    EXPECT_EQ(out, R"(a\"b\\c\nd\te\u0001f)");
    const lab::Json back = lab::Json::parse("\"" + out + "\"");
    EXPECT_EQ(back.as_string(), "a\"b\\c\nd\te\x01" "f");
}

/// Serial solver, host clock: the per-stage span durations summed over the
/// run must track StageBreakdown::host_seconds (both bracket the same stage
/// bodies; the span also covers the begin/end bookkeeping, so the match is
/// loose in relative terms but tight against the total).
TEST_F(TracerTest, SerialStageSpanSumsMatchStageBreakdown) {
    obs::tracer().enable();
    auto m = mesh::rectangle_quads(3, 3, 0.0, 1.0, 0.0, 1.0);
    m.tag_boundary(mesh::BoundaryTag::Wall, [](double, double) { return true; });
    const auto disc =
        std::make_shared<Discretization>(std::make_shared<mesh::Mesh>(std::move(m)), 5);
    SerialNsOptions opts;
    opts.dt = 1e-3;
    opts.viscosity = 0.05;
    opts.pressure_bc.dirichlet.clear();
    opts.pressure_bc.pin_first_dof = true;
    opts.trace = true;
    SerialNS2d ns(disc, opts);
    ns.set_initial([](double, double y) { return std::sin(std::numbers::pi * y); },
                   [](double, double) { return 0.0; });
    for (int s = 0; s < 4; ++s) ns.step();
    obs::tracer().disable();

    const auto snap = obs::tracer().snapshot();
    const obs::Tracer::LaneSnapshot* lane = nullptr;
    for (const auto& l : snap.lanes)
        if (l.name == "solver") lane = &l;
    ASSERT_NE(lane, nullptr);
    check_lane_invariants(snap, *lane);

    // Sum (end - begin) per span name over the lane.
    std::map<std::string, double> span_sum;
    std::vector<std::pair<std::string, double>> stack;
    for (const auto& ev : lane->events) {
        if (ev.kind == EventKind::Begin)
            stack.emplace_back(snap.strings[ev.name], ev.t);
        else if (ev.kind == EventKind::End) {
            span_sum[stack.back().first] += ev.t - stack.back().second;
            stack.pop_back();
        }
    }
    ASSERT_TRUE(span_sum.count("step"));

    const perf::StageBreakdown& bd = ns.breakdown();
    double stage_span_total = 0.0, stage_host_total = 0.0;
    for (std::size_t s = 1; s <= perf::kNumStages; ++s) {
        const std::string name = perf::stage_short_name(s);
        ASSERT_TRUE(span_sum.count(name)) << "no spans for stage " << name;
        const double host = bd.host_seconds[s];
        // Per stage: the span brackets the StageScope, so it can only be
        // longer, and not by more than bookkeeping noise.
        EXPECT_GE(span_sum[name], host * 0.5) << "stage " << name;
        EXPECT_LE(span_sum[name], host + 0.05) << "stage " << name;
        stage_span_total += span_sum[name];
        stage_host_total += host;
    }
    EXPECT_NEAR(stage_span_total, stage_host_total,
                std::max(0.02, 0.5 * stage_host_total));
    // The step span in turn covers all stage spans.
    EXPECT_GE(span_sum["step"], stage_span_total * 0.99);
}

TEST_F(TracerTest, RunReportHasTheVersionedSchemaShape) {
    obs::tracer().enable();
    const auto reports = run_traced_fourier(2, 20260807, 2);
    obs::tracer().disable();

    perf::StageBreakdown bd;
    bd.steps = 2;
    bd.host_seconds[2] = 0.25;
    bd.counts[2].flops = 1000;
    perf::RunReport rep = perf::report("test_tracer", &bd, &reports[0]);
    rep.meta["seed"] = "20260807";
    perf::Case kase;
    kase.labels["platform"] = "unit";
    kase.values["wall_seconds"] = 1.5;
    rep.cases.push_back(kase);

    // Folding the rank report must surface its fault accounting as counters.
    EXPECT_GT(rep.metrics.counters.at("comm.retransmits"), 0.0);
    EXPECT_GT(rep.metrics.counters.at("comm.fault_seconds"), 0.0);
    EXPECT_GT(rep.metrics.counters.at("comm.overlap_hidden_seconds"), 0.0);
    EXPECT_EQ(rep.steps, 2);

    const std::string json = rep.to_json();
    for (const char* key : {"\"schema_version\":2", "\"bench\":\"test_tracer\"", "\"meta\":",
                            "\"request\":{}", "\"cache\":{\"hit\":false,\"store_key\":\"\"}",
                            "\"steps\":2", "\"stages\":[", "\"metrics\":", "\"counters\":",
                            "\"gauges\":", "\"histograms\":", "\"cases\":[",
                            "\"platform\":\"unit\"", "\"wall_seconds\":1.5"})
        EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
    long depth = 0;
    for (const char c : json) {
        if (c == '{') ++depth;
        if (c == '}') --depth;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}

// The unified options name (the deprecated NsOptions alias is gone).
TEST(SolverOptionsCompat, SerialOptionsConstructDirectly) {
    nektar::SerialNsOptions opts;
    opts.dt = 5e-4;
    opts.viscosity = 0.02;
    EXPECT_EQ(opts.time_order, 2);
    const SerialNsOptions& base = opts;
    EXPECT_EQ(base.dt, 5e-4);
}

} // namespace
