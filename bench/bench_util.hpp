#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "lab/pricing.hpp"
#include "lab/scenario.hpp"
#include "obs/trace.hpp"
#include "perf/report.hpp"

/// \file bench_util.hpp
/// Shared helpers for the paper-reproduction benchmark binaries: the common
/// command line (every bench accepts the same flags), RunReport emission,
/// aligned-column table printing, the GPU-era projection and overlap
/// ablation blocks Tables 2 and 3 share, and a repeat-until-stable host
/// timer.
///
/// Since the cluster-lab PR the run description lives in ONE place: a
/// lab::ScenarioRequest held by Cli.  The per-field flags (--machine, --net,
/// --ranks, ...) are conveniences that edit that request, and --request
/// accepts the canonical JSON directly, so a bench invocation and a lab
/// query are the same value — every emitted RunReport echoes it (schema v2
/// `request` block) along with its store key.
namespace benchutil {

/// Prints a header followed by rows of fixed-width columns.
class Table {
public:
    explicit Table(std::vector<std::string> headers, int width = 12)
        : headers_(std::move(headers)), width_(width) {}

    void print_header() const {
        for (const auto& h : headers_) std::printf("%*s", width_, h.c_str());
        std::printf("\n");
        for (std::size_t i = 0; i < headers_.size(); ++i)
            std::printf("%*s", width_, "--------");
        std::printf("\n");
    }

    void print_row(const std::vector<std::string>& cells) const {
        for (const auto& c : cells) std::printf("%*s", width_, c.c_str());
        std::printf("\n");
    }

private:
    std::vector<std::string> headers_;
    int width_;
};

[[nodiscard]] inline std::string fmt(double v, const char* spec = "%.1f") {
    char buf[64];
    std::snprintf(buf, sizeof(buf), spec, v);
    return buf;
}

/// The shared benchmark command line.  Every bench accepts:
///   --request <json|@file> the run as canonical ScenarioRequest JSON (per-
///                          field flags below override on top, in order)
///   --out <path>          RunReport destination (default <bench>_report.json)
///   --trace               enable obs tracing; write Chrome trace_event JSON
///   --trace-out <path>    trace destination (default <bench>_trace.json)
///   --machine <name>      restrict platform sweeps to matching machines
///   --net <name>          restrict platform sweeps to matching networks
///   --ranks <N>           restrict processor-count sweeps to N
///   --seed <N>            seed for fault models / synthetic inputs
///   --smoke               shrink the sweep for per-commit CI
///   --solver <name>       serial | fourier | ale (lab queries)
///   --fidelity <name>     model | measured (lab queries)
///   --backend <name>      dense | sumfact compute backend
///   --fault <name>        named fault profile (lab/fault_profiles.hpp)
///   --transpose <name>    slab | pencil
///   --dof-per-rank <N>    problem size per processor (lab queries)
///   --steps <N>           steady steps for measured fidelity
///   --min-seconds <s>     timing window per measurement
///   --store <dir>         RunReport store directory (lab tools)
///   --connect <path>      lab daemon socket to query instead of computing
///   --clients <N> / --requests <N> / --distinct <N>   bench_lab_load mix
/// Flags a bench has no use for still parse (and land in the report's
/// request echo) so the CLI is uniform across binaries.
struct Cli {
    std::string bench;            ///< benchmark id (RunReport::bench)
    lab::ScenarioRequest request; ///< THE run descriptor (single source)
    std::string out;              ///< "" = the bench's default path
    bool trace = false;
    std::string trace_out;        ///< "" = "<bench>_trace.json"
    double min_seconds = 0.0;     ///< 0 = the bench's default window
    std::string store;            ///< RunReport store dir ("" = memory-only)
    std::string connect;          ///< lab daemon socket path ("" = in-process)
    int clients = 0;              ///< bench_lab_load: concurrent clients
    int requests = 0;             ///< bench_lab_load: total requests
    int distinct = 0;             ///< bench_lab_load: distinct scenarios

    static Cli parse(const char* bench_name, int argc, char** argv) {
        Cli cli;
        cli.bench = bench_name;
        const auto need = [&](int& i) -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: %s needs a value\n", bench_name, argv[i]);
                std::exit(2);
            }
            return argv[++i];
        };
        for (int i = 1; i < argc; ++i) {
            const char* a = argv[i];
            if (std::strcmp(a, "--request") == 0) {
                std::string text = need(i);
                if (!text.empty() && text[0] == '@') {
                    std::ifstream in(text.substr(1));
                    if (!in) {
                        std::fprintf(stderr, "%s: cannot read %s\n", bench_name,
                                     text.c_str() + 1);
                        std::exit(2);
                    }
                    std::ostringstream body;
                    body << in.rdbuf();
                    text = body.str();
                }
                try {
                    cli.request = lab::ScenarioRequest::parse(text);
                } catch (const std::exception& e) {
                    std::fprintf(stderr, "%s: bad --request: %s\n", bench_name, e.what());
                    std::exit(2);
                }
            }
            else if (std::strcmp(a, "--out") == 0) cli.out = need(i);
            else if (std::strcmp(a, "--trace") == 0) cli.trace = true;
            else if (std::strcmp(a, "--trace-out") == 0) cli.trace_out = need(i);
            else if (std::strcmp(a, "--machine") == 0) cli.request.machine = need(i);
            else if (std::strcmp(a, "--net") == 0) cli.request.net = need(i);
            else if (std::strcmp(a, "--ranks") == 0) cli.request.ranks = std::atoi(need(i));
            else if (std::strcmp(a, "--seed") == 0)
                cli.request.seed = std::strtoull(need(i), nullptr, 10);
            else if (std::strcmp(a, "--smoke") == 0) cli.request.smoke = true;
            else if (std::strcmp(a, "--solver") == 0) cli.request.solver = need(i);
            else if (std::strcmp(a, "--fidelity") == 0) cli.request.fidelity = need(i);
            else if (std::strcmp(a, "--backend") == 0) cli.request.backend = need(i);
            else if (std::strcmp(a, "--fault") == 0) cli.request.fault = need(i);
            else if (std::strcmp(a, "--transpose") == 0) cli.request.transpose = need(i);
            else if (std::strcmp(a, "--dof-per-rank") == 0)
                cli.request.dof_per_rank = std::atof(need(i));
            else if (std::strcmp(a, "--steps") == 0) cli.request.steps = std::atoi(need(i));
            else if (std::strcmp(a, "--min-seconds") == 0) cli.min_seconds = std::atof(need(i));
            else if (std::strcmp(a, "--store") == 0) cli.store = need(i);
            else if (std::strcmp(a, "--connect") == 0) cli.connect = need(i);
            else if (std::strcmp(a, "--clients") == 0) cli.clients = std::atoi(need(i));
            else if (std::strcmp(a, "--requests") == 0) cli.requests = std::atoi(need(i));
            else if (std::strcmp(a, "--distinct") == 0) cli.distinct = std::atoi(need(i));
            else {
                std::fprintf(stderr, "%s: unknown flag %s\n", bench_name, a);
                std::exit(2);
            }
        }
        cli.request.bench = bench_name; // the binary knows who it is
        try {
            cli.request.validate();
        } catch (const std::exception& e) {
            std::fprintf(stderr, "%s: %s\n", bench_name, e.what());
            std::exit(2);
        }
        if (cli.trace) obs::tracer().enable();
        return cli;
    }

    [[nodiscard]] bool machine_selected(const std::string& name) const {
        return request.selects_machine(name);
    }
    [[nodiscard]] bool net_selected(const std::string& name) const {
        return request.selects_net(name);
    }

    /// Processor-count sweep after the --ranks restriction.
    [[nodiscard]] std::vector<int> rank_sweep(std::vector<int> defaults) const {
        return request.rank_sweep(std::move(defaults));
    }

    /// Stamps the request echo and the shared flags into the report.
    void stamp(perf::RunReport& rep) const {
        rep.bench = bench;
        rep.request_json = request.canonical_json();
        rep.store_key = request.store_key();
        if (!request.machine.empty()) rep.meta["machine_filter"] = request.machine;
        if (!request.net.empty()) rep.meta["net_filter"] = request.net;
        if (request.ranks > 0) rep.meta["ranks"] = std::to_string(request.ranks);
        if (request.seed != 0) rep.meta["seed"] = std::to_string(request.seed);
        rep.meta["smoke"] = std::string(1, request.smoke ? '1' : '0');
        rep.meta["trace"] = std::string(1, trace ? '1' : '0');
    }

    /// Writes the RunReport (to --out or `default_path`), plus the Chrome
    /// trace JSON when --trace was given, and prints where they went.
    void finish(perf::RunReport rep, const std::string& default_path = "") const {
        stamp(rep);
        const std::string path =
            !out.empty() ? out : (!default_path.empty() ? default_path : bench + "_report.json");
        rep.write_json(path);
        std::printf("\nwrote %s\n", path.c_str());
        if (trace) {
            const std::string tpath = !trace_out.empty() ? trace_out : bench + "_trace.json";
            const std::string json = obs::tracer().chrome_json();
            if (std::FILE* f = std::fopen(tpath.c_str(), "w")) {
                std::fwrite(json.data(), 1, json.size(), f);
                std::fclose(f);
                std::printf("wrote %s (load in chrome://tracing or ui.perfetto.dev)\n",
                            tpath.c_str());
            } else {
                std::fprintf(stderr, "%s: cannot write %s\n", bench.c_str(), tpath.c_str());
            }
        }
    }
};

/// GPU-era projection of a run's rank-0 step (app_model::project_accelerated):
/// prints one row per accelerator and records its device, resident and
/// staged seconds per step in `rep`.
inline void project_on_accelerators(const nektar::workloads::Run& run, perf::RunReport& rep) {
    const auto shapes = app_model::solver_shapes(run.field_bytes, run.solver_bytes);
    Table at({"accelerator", "device", "resident", "staged"}, 14);
    at.print_header();
    for (const auto& acc : machine::accelerator_roster()) {
        const auto proj = app_model::project_accelerated(run.bd, acc, shapes, run.field_bytes);
        at.print_row({acc.name, fmt(proj.device, "%.3g"), fmt(proj.resident, "%.3g"),
                      fmt(proj.staged, "%.3g")});
        perf::Case kase;
        kase.labels["accelerator"] = acc.name;
        kase.values["device_seconds_per_step"] = proj.device;
        kase.values["resident_seconds_per_step"] = proj.resident;
        kase.values["staged_seconds_per_step"] = proj.staged;
        rep.cases.push_back(std::move(kase));
    }
}

/// The overlap ablation of Tables 2 and 3: the same run with the blocking
/// exchange (`blk`) and the nonblocking one (`ovl`), priced on each of
/// `plats`.  Prints one table and records one case per platform, labelled
/// with `ablation`.
inline void print_overlap_ablation(int nprocs, const nektar::workloads::Run& blk,
                                   const nektar::workloads::Run& ovl,
                                   const std::vector<app_model::Platform>& plats,
                                   const std::string& ablation, perf::RunReport& rep) {
    std::printf("P = %d  (hidden fraction of overlapped comm: %.0f%%)\n", nprocs,
                100.0 * app_model::price(ovl, plats.front()).hidden_fraction);
    Table table({"network", "blocking", "overlapped", "recov"}, 16);
    table.print_header();
    for (const auto& pl : plats) {
        const auto b = app_model::price(blk, pl);
        const auto o = app_model::price(ovl, pl);
        table.print_row({pl.label, fmt(b.cpu, "%.2f") + "/" + fmt(b.wall, "%.2f"),
                         fmt(o.cpu, "%.2f") + "/" + fmt(o.wall, "%.2f"),
                         fmt(o.recovered, "%.2f")});
        perf::Case kase;
        kase.labels["platform"] = pl.label;
        kase.labels["ablation"] = ablation;
        kase.values["nprocs"] = static_cast<double>(nprocs);
        kase.values["hidden_fraction"] = o.hidden_fraction;
        kase.values["blocking_wall_seconds_per_step"] = b.wall;
        kase.values["overlapped_wall_seconds_per_step"] = o.wall;
        kase.values["recovered_seconds_per_step"] = o.recovered;
        rep.cases.push_back(std::move(kase));
    }
    std::printf("\n");
}

/// Times `fn` by repeating it until at least `min_seconds` has elapsed;
/// returns seconds per call.
[[nodiscard]] inline double time_per_call(const std::function<void()>& fn,
                                          double min_seconds = 0.02) {
    using clock = std::chrono::steady_clock;
    fn(); // warm the caches, as the paper's in-cache methodology requires
    std::size_t reps = 1;
    for (;;) {
        const auto t0 = clock::now();
        for (std::size_t i = 0; i < reps; ++i) fn();
        const double dt = std::chrono::duration<double>(clock::now() - t0).count();
        if (dt >= min_seconds) return dt / static_cast<double>(reps);
        reps = dt > 0.0 ? static_cast<std::size_t>(static_cast<double>(reps) *
                                                   (1.2 * min_seconds / dt)) + 1
                        : reps * 8;
    }
}

} // namespace benchutil
