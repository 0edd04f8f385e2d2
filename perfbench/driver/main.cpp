/// perfbench_driver: runs one benchmark workload and prints its raw
/// measurements as one JSON object on stdout.  perfbench/run.py turns them
/// into the benchmark's metrics; run it rather than this binary.
///
///   perfbench_driver --workload NAME --seed N --seconds S [--min-solves K]
///                    [--probe --trace-out FILE]
///
/// Without --probe it repeats whole untraced solves until S seconds have
/// passed and at least K solves ran.  With --probe it runs one untraced
/// solve, one traced solve followed by the layer probes (spans go to the
/// Chrome trace FILE), and, above one thread, one untraced solve at one
/// thread.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "lab/pricing.hpp"
#include "ledger.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using perfbench::Solve;

/// Minimal JSON emitter: numbers keep all 17 significant digits.
class Json {
public:
    Json& key(const std::string& k) {
        comma();
        out_ += '"' + k + "\":";
        fresh_ = true;
        return *this;
    }
    Json& num(double v) {
        comma();
        if (std::isfinite(v)) {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%.17g", v);
            out_ += buf;
        } else {
            out_ += "null";
        }
        return *this;
    }
    Json& str(const std::string& s) {
        comma();
        out_ += '"';
        for (char ch : s) {
            if (ch == '"' || ch == '\\') out_ += '\\';
            out_ += (static_cast<unsigned char>(ch) < 0x20) ? ' ' : ch;
        }
        out_ += '"';
        return *this;
    }
    Json& boolean(bool b) {
        comma();
        out_ += b ? "true" : "false";
        return *this;
    }
    Json& open(char bracket) {
        comma();
        out_ += bracket;
        fresh_ = true;
        return *this;
    }
    Json& close(char bracket) {
        out_ += bracket;
        fresh_ = false;
        return *this;
    }
    Json& nums(const std::vector<double>& v) {
        open('[');
        for (double x : v) num(x);
        return close(']');
    }
    [[nodiscard]] const std::string& text() const noexcept { return out_; }

private:
    void comma() {
        if (!fresh_) out_ += ',';
        fresh_ = false;
    }
    std::string out_;
    bool fresh_ = true;
};

/// Messages and bytes rank 0 sent per steady step, from its comm log.  The
/// benchmark's own barriers are left out; an alltoall on a P-rank
/// communicator counts P - 1 messages of its block size.
std::pair<double, double> comm_per_step(const simmpi::CommLog& log, int ranks, int steps) {
    double msgs = 0.0, bytes = 0.0;
    for (const auto& [stage, events] : log)
        for (const auto& [key, n] : events) {
            if (key.kind == simmpi::CommKind::Barrier) continue;
            const double peers =
                key.kind == simmpi::CommKind::Alltoall
                    ? static_cast<double>((key.group == 0 ? static_cast<std::uint32_t>(ranks)
                                                          : key.group) -
                                          1)
                    : 1.0;
            msgs += static_cast<double>(n) * peers;
            bytes += static_cast<double>(n) * peers * static_cast<double>(key.bytes);
        }
    return {msgs / steps, bytes / steps};
}

void write_solve(Json& j, const char* kind, const perfbench::WorkloadSpec& spec, const Solve& s) {
    j.open('{');
    j.key("kind").str(kind);
    j.key("error").str(s.error);
    j.key("setup_s").num(s.setup_s);
    j.key("solve_s").num(s.solve_s);
    j.key("phases").open('{');
    j.key("mesh.build_s").num(s.mesh_s);
    j.key("partition.build_s").num(s.partition_s);
    j.key("disc.build_s").num(s.disc_s);
    j.key("solver.ctor_s").num(s.ctor_s);
    j.key("solver.ramp_s").num(s.ramp_s);
    j.close('}');
    j.key("step_s").nums(s.step_s);
    j.key("skew_s").nums(s.skew_s);
    j.key("idle_virtual_s").nums(s.idle_virtual_s);
    j.key("pcg_iters").nums(s.pcg_iters);
    j.key("steady_cpu_s").num(s.steady_cpu_s);
    j.key("usage").open('{');
    j.key("user_s").num(s.usage.user_s);
    j.key("sys_s").num(s.usage.sys_s);
    j.key("minor_faults").num(s.usage.minor_faults);
    j.close('}');
    const int steps = std::max(s.bd.steps, 1);
    j.key("stages").open('[');
    for (std::size_t st = 1; st <= perf::kNumStages; ++st) {
        const auto& c = s.bd.counts[st];
        j.open('{');
        j.key("name").str(perf::stage_short_name(st));
        j.key("s").num(s.bd.host_seconds[st] / steps);
        j.key("s_max").num(s.stage_max_s[st] / steps);
        j.key("flops").num(static_cast<double>(c.flops) / steps);
        j.key("bytes").num(static_cast<double>(c.bytes()) / steps);
        j.key("calls").num(static_cast<double>(c.calls) / steps);
        j.close('}');
    }
    j.close(']');
    const auto [msgs, bytes] = comm_per_step(s.log, spec.ranks, steps);
    j.key("msgs_per_step").num(msgs);
    j.key("bytes_per_step").num(bytes);
    j.key("observables").open('{');
    for (const auto& [name, v] : s.observables) j.key(name).num(v);
    j.close('}');
    j.key("checks").open('{');
    for (const auto& [name, ok] : s.checks) j.key(name).boolean(ok);
    j.close('}');
    // The paper's outputs for this run: its operation stream priced on the
    // workload's pinned 1999 platform.
    j.key("model").open('{');
    if (s.error.empty() && s.bd.steps > 0) {
        const auto shapes = app_model::solver_shapes(s.field_bytes, s.solver_bytes);
        const auto t = app_model::price_run(s.bd, s.log, {spec.platform, spec.machine, spec.network},
                                            spec.ranks, shapes);
        j.key("platform").str(spec.platform);
        j.key("cpu_s_per_step").num(t.cpu);
        j.key("wall_s_per_step").num(t.wall);
        j.key("flops_per_step").num(static_cast<double>(s.bd.total_counts().flops) / steps);
        j.key("stage_flops").open('[');
        for (std::size_t st = 1; st <= perf::kNumStages; ++st)
            j.num(static_cast<double>(s.bd.counts[st].flops));
        j.close(']');
    }
    j.close('}');
    j.key("probes").open('{');
    for (const auto& [name, v] : s.probes) j.key(name).num(v);
    j.close('}');
    j.close('}');
}

Solve guarded_solve(const perfbench::WorkloadSpec& spec, const perfbench::Inputs& in, bool probe) {
    try {
        return perfbench::run_solve(spec, in, probe);
    } catch (const std::exception& e) {
        Solve s;
        s.error = e.what();
        return s;
    }
}

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N --seconds S "
                 "[--min-solves K] [--probe --trace-out FILE]\n");
    return 2;
}

} // namespace

int main(int argc, char** argv) {
    std::string name, trace_out;
    std::uint64_t seed = 0;
    double seconds = -1.0;
    int min_solves = 1;
    bool probe = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--workload" && has_value)
            name = argv[++i];
        else if (a == "--seed" && has_value)
            seed = std::strtoull(argv[++i], nullptr, 10);
        else if (a == "--seconds" && has_value)
            seconds = std::strtod(argv[++i], nullptr);
        else if (a == "--min-solves" && has_value)
            min_solves = std::atoi(argv[++i]);
        else if (a == "--trace-out" && has_value)
            trace_out = argv[++i];
        else if (a == "--probe")
            probe = true;
        else
            return usage();
    }
    if (name.empty() || !(seconds >= 0.0) || min_solves < 1 || (probe && trace_out.empty()))
        return usage();

    const perfbench::WorkloadSpec* spec = nullptr;
    try {
        spec = &perfbench::workload(name);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 2;
    }
    const perfbench::Inputs in = perfbench::make_inputs(seed);
    const unsigned threads = parallel::num_threads();

    Json j;
    j.open('{');
    j.key("workload").str(spec->name);
    j.key("seed").num(static_cast<double>(seed));
    j.key("threads").num(threads);
    j.key("steady_steps").num(static_cast<double>(spec->steady_steps));
    j.key("solves").open('[');
    if (!probe) {
        const double start = perfbench::now_s();
        for (int k = 0; k < min_solves || perfbench::now_s() - start < seconds; ++k)
            write_solve(j, "untraced", *spec, guarded_solve(*spec, in, false));
    } else {
        write_solve(j, "untraced", *spec, guarded_solve(*spec, in, false));
        // The ALE ranks log every PCG iteration's exchanges; keeping the
        // last 64 Ki events per lane holds the trace to tens of MB.
        obs::tracer().enable({.lane_capacity = std::size_t{1} << 16});
        const Solve traced = guarded_solve(*spec, in, true);
        write_solve(j, "traced", *spec, traced);
        std::map<std::string, double> layers;
        perfbench::Roofline roof;
        if (traced.error.empty()) {
            layers = perfbench::probe_layers(*spec, traced);
            roof = perfbench::probe_roofline();
        }
        obs::tracer().disable();
        if (threads > 1) {
            parallel::set_num_threads(1);
            write_solve(j, "one_thread", *spec, guarded_solve(*spec, in, false));
            parallel::set_num_threads(threads);
        }
        j.close(']');
        j.key("layers").open('{');
        for (const auto& [k, v] : layers) j.key(k).num(v);
        j.close('}');
        j.key("roofline").open('{');
        j.key("dgemm_gflops").num(roof.dgemm_gflops);
        j.key("stream_gbs").num(roof.stream_gbs);
        j.key("llc_bytes").num(roof.llc_bytes);
        j.key("array_bytes").num(roof.array_bytes);
        j.close('}');
        std::ofstream f(trace_out);
        f << obs::tracer().chrome_json();
        if (!f) {
            std::fprintf(stderr, "perfbench_driver: cannot write %s\n", trace_out.c_str());
            return 1;
        }
    }
    if (!probe) j.close(']');
    j.key("peak_rss_mb").num(perfbench::usage_now().maxrss_mb);
    j.close('}');
    std::printf("%s\n", j.text().c_str());
    return 0;
}
