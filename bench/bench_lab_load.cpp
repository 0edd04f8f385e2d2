/// Load benchmark for the cluster-lab scenario service: sustained QPS,
/// latency percentiles and cache behaviour under a seeded mix of thousands
/// of concurrent scenario queries (machine x network x solver x P x fault
/// profile).
///
/// Two phases over one Service (or a running daemon via --connect):
///   cold     — every distinct scenario once; each answer is computed and
///              lands in the RunReport store
///   repeated — the full request stream, drawn 95% from the distinct pool
///              and 5% fresh variants, issued by --clients concurrent
///              client threads.  Expected cache hit rate ~95%; the bench
///              FAILS (exit 1) below 90%.
/// The bench also re-computes a sample of answers on a fresh evaluator and
/// fails unless the served bytes are identical under the cache-hit mask —
/// the memoisation contract the store is built on.
///
/// The whole mix is a pure function of --seed, so two runs against two
/// --store directories must produce byte-identical store contents (CI
/// diff -r's them as the service determinism gate).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_util.hpp"
#include "lab/evaluator.hpp"
#include "lab/fault_profiles.hpp"
#include "lab/service.hpp"
#include "lab/wire.hpp"
#include "machine/machine_model.hpp"
#include "netsim/netmodel.hpp"

namespace {

using clock_type = std::chrono::steady_clock;

/// Deterministic 64-bit mixer (splitmix-style) so the request mix is a pure
/// function of the seed.
struct Rng {
    std::uint64_t state;
    std::uint64_t next() {
        state += 0x9e3779b97f4a7c15ull;
        std::uint64_t z = state;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    std::uint64_t below(std::uint64_t n) { return next() % n; }
};

/// The distinct scenario pool: random platform/fault/P/dof combinations,
/// model fidelity except for a small measured slice in full (non-smoke)
/// runs (probe runs are real solver executions).
std::vector<lab::ScenarioRequest> make_pool(std::size_t distinct, Rng& rng, bool smoke) {
    const auto& machines = machine::roster();
    const auto& nets = netsim::alltoall_roster();
    const auto& faults = lab::fault_roster();
    const int ranks[] = {2, 4, 8, 16, 32, 64};

    std::vector<lab::ScenarioRequest> pool;
    pool.reserve(distinct);
    for (std::size_t i = 0; i < distinct; ++i) {
        lab::ScenarioRequest req;
        req.machine = machines[rng.below(machines.size())].name;
        req.net = nets[rng.below(nets.size())].name;
        req.fault = faults[rng.below(faults.size())].name;
        if (req.fault == "clean") req.fault.clear();
        req.ranks = ranks[rng.below(6)];
        req.dof_per_rank = 50000.0 + 10000.0 * static_cast<double>(rng.below(90));
        req.transpose = rng.below(4) == 0 ? "pencil" : "";
        req.fidelity = "model";
        if (!smoke && i % 50 == 7) { // measured slice: one probe per 50 scenarios
            req.fidelity = "measured";
            req.solver = "fourier";
            req.ranks = req.ranks > 8 ? 4 : req.ranks;
            req.transpose.clear();
        }
        pool.push_back(std::move(req));
    }
    return pool;
}

double percentile(std::vector<double> sorted_us, double p) {
    if (sorted_us.empty()) return 0.0;
    const auto idx = static_cast<std::size_t>(p * static_cast<double>(sorted_us.size() - 1));
    return sorted_us[idx];
}

} // namespace

int main(int argc, char** argv) {
    const benchutil::Cli cli = benchutil::Cli::parse("bench_lab_load", argc, argv);
    const bool smoke = cli.request.smoke;
    const std::size_t total = cli.requests > 0 ? static_cast<std::size_t>(cli.requests)
                                               : (smoke ? 400 : 5000);
    const std::size_t distinct = cli.distinct > 0 ? static_cast<std::size_t>(cli.distinct)
                                                  : (smoke ? 40 : 200);
    const unsigned clients = cli.clients > 0 ? static_cast<unsigned>(cli.clients) : 8;
    const std::uint64_t seed = cli.request.seed != 0 ? cli.request.seed : 1999;

    std::printf("cluster-lab load bench: %zu requests over %zu distinct scenarios, "
                "%u clients%s\n",
                total, distinct, clients,
                cli.connect.empty() ? "" : " (via daemon socket)");

    try {
        lab::RunReportStore{cli.store}; // refuses a store another version wrote
    } catch (const std::runtime_error& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
    lab::Service service(cli.store);
    // One answer path for both modes: in-process service or daemon socket.
    const auto answer_via = [&](int fd, const std::string& request_json) {
        return fd >= 0 ? lab::wire::request(fd, request_json)
                       : lab::wire::response_payload(service.answer_json(request_json));
    };
    const auto connect_fd = [&]() {
        return cli.connect.empty() ? -1 : lab::wire::connect_unix(cli.connect);
    };

    Rng rng{seed};
    const auto pool = make_pool(distinct, rng, smoke);

    // ---- cold phase: every distinct scenario once -------------------------
    std::vector<double> cold_us(pool.size());
    const auto cold_t0 = clock_type::now();
    {
        const int fd = connect_fd();
        for (std::size_t i = 0; i < pool.size(); ++i) {
            const auto t0 = clock_type::now();
            const std::string reply = answer_via(fd, pool[i].canonical_json());
            cold_us[i] = std::chrono::duration<double, std::micro>(clock_type::now() - t0)
                             .count();
            if (reply.find("schema_version") == std::string::npos) {
                std::fprintf(stderr, "cold phase: scenario %zu not answered: %.120s\n", i,
                             reply.c_str());
                return 1;
            }
        }
        if (fd >= 0) ::close(fd);
    }
    const double cold_s =
        std::chrono::duration<double>(clock_type::now() - cold_t0).count();

    // ---- repeated phase: the concurrent mix -------------------------------
    // Pre-drawn so the stream (and thus the store) is client-count
    // independent: 95% pool references, 5% fresh dof variants.
    std::vector<lab::ScenarioRequest> stream;
    stream.reserve(total);
    for (std::size_t i = 0; i < total; ++i) {
        if (rng.below(20) == 0) {
            lab::ScenarioRequest fresh = pool[rng.below(pool.size())];
            fresh.fidelity = "model"; // variants never re-run probes
            fresh.solver.clear();
            fresh.dof_per_rank += 1000.0 * static_cast<double>(1 + rng.below(999));
            stream.push_back(std::move(fresh));
        } else {
            stream.push_back(pool[rng.below(pool.size())]);
        }
    }

    std::vector<double> lat_us(stream.size());
    std::atomic<std::size_t> cursor{0};
    std::atomic<std::uint64_t> wire_hits{0};
    std::atomic<bool> failed{false};
    const auto load_t0 = clock_type::now();
    {
        std::vector<std::thread> workers;
        for (unsigned c = 0; c < clients; ++c) {
            workers.emplace_back([&] {
                const int fd = connect_fd();
                for (;;) {
                    const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
                    if (i >= stream.size()) break;
                    const auto t0 = clock_type::now();
                    const std::string reply = answer_via(fd, stream[i].canonical_json());
                    lat_us[i] =
                        std::chrono::duration<double, std::micro>(clock_type::now() - t0)
                            .count();
                    if (reply.find("\"cache\":{\"hit\":true") != std::string::npos)
                        wire_hits.fetch_add(1, std::memory_order_relaxed);
                    else if (reply.find("schema_version") == std::string::npos)
                        failed.store(true, std::memory_order_relaxed);
                }
                if (fd >= 0) ::close(fd);
            });
        }
        for (auto& w : workers) w.join();
    }
    const double load_s =
        std::chrono::duration<double>(clock_type::now() - load_t0).count();
    if (failed.load()) {
        std::fprintf(stderr, "repeated phase: at least one request was not answered\n");
        return 1;
    }

    const double hit_rate = static_cast<double>(wire_hits.load()) /
                            static_cast<double>(stream.size());
    std::sort(lat_us.begin(), lat_us.end());
    std::sort(cold_us.begin(), cold_us.end());
    const double qps = static_cast<double>(stream.size()) / load_s;

    benchutil::Table table({"phase", "requests", "qps", "p50_us", "p99_us", "hit_rate"}, 12);
    table.print_header();
    table.print_row({"cold", std::to_string(pool.size()),
                     benchutil::fmt(static_cast<double>(pool.size()) / cold_s, "%.0f"),
                     benchutil::fmt(percentile(cold_us, 0.5), "%.1f"),
                     benchutil::fmt(percentile(cold_us, 0.99), "%.1f"), "0.00"});
    table.print_row({"repeated", std::to_string(stream.size()), benchutil::fmt(qps, "%.0f"),
                     benchutil::fmt(percentile(lat_us, 0.5), "%.1f"),
                     benchutil::fmt(percentile(lat_us, 0.99), "%.1f"),
                     benchutil::fmt(hit_rate, "%.2f")});

    // ---- contract checks --------------------------------------------------
    // 1. Hit rate: the 95/5 mix must be served >= 90% from the store.
    if (hit_rate < 0.90) {
        std::fprintf(stderr, "\nFAIL: cache hit rate %.3f < 0.90 on the repeated mix\n",
                     hit_rate);
        return 1;
    }
    // 2. Byte identity: served bytes == a fresh evaluator's cold computation
    //    under the cache-hit mask, for a sample of the pool.
    {
        lab::Evaluator fresh_eval;
        const std::size_t sample = smoke ? 3 : 5;
        const int fd = connect_fd();
        for (std::size_t i = 0; i < sample && i < pool.size(); ++i) {
            const std::string served =
                lab::mask_cache_hit(answer_via(fd, pool[i].canonical_json()));
            const std::string cold = fresh_eval.evaluate(pool[i]).to_canonical_json();
            if (served != cold) {
                std::fprintf(stderr,
                             "\nFAIL: scenario %zu served bytes differ from a cold "
                             "computation (key %s)\n",
                             i, pool[i].store_key().c_str());
                return 1;
            }
        }
        if (fd >= 0) ::close(fd);
        std::printf("\nbyte-identity: %zu sampled answers match a cold evaluator "
                    "exactly\n", sample);
    }

    perf::RunReport rep = perf::report("bench_lab_load");
    perf::Case cold_case;
    cold_case.labels["phase"] = "cold";
    cold_case.values["requests"] = static_cast<double>(pool.size());
    cold_case.values["qps"] = static_cast<double>(pool.size()) / cold_s;
    cold_case.values["p50_us"] = percentile(cold_us, 0.5);
    cold_case.values["p99_us"] = percentile(cold_us, 0.99);
    cold_case.values["hit_rate"] = 0.0;
    rep.cases.push_back(std::move(cold_case));
    perf::Case rep_case;
    rep_case.labels["phase"] = "repeated";
    rep_case.values["requests"] = static_cast<double>(stream.size());
    rep_case.values["clients"] = static_cast<double>(clients);
    rep_case.values["qps"] = qps;
    rep_case.values["p50_us"] = percentile(lat_us, 0.5);
    rep_case.values["p99_us"] = percentile(lat_us, 0.99);
    rep_case.values["hit_rate"] = hit_rate;
    rep_case.values["distinct"] = static_cast<double>(pool.size());
    rep.cases.push_back(std::move(rep_case));
    if (cli.connect.empty()) {
        const lab::Service::Stats s = service.stats();
        perf::Case svc_case;
        svc_case.labels["phase"] = "service_totals";
        svc_case.values["queries"] = static_cast<double>(s.queries);
        svc_case.values["hits"] = static_cast<double>(s.hits);
        svc_case.values["misses"] = static_cast<double>(s.misses);
        svc_case.values["errors"] = static_cast<double>(s.errors);
        svc_case.values["store_entries"] = static_cast<double>(service.store().size());
        svc_case.values["probe_runs"] =
            static_cast<double>(service.evaluator().probe_runs());
        rep.cases.push_back(std::move(svc_case));
        std::printf("service totals: %llu queries, %llu hits, %llu misses "
                    "(%zu store entries, %zu probe runs)\n",
                    static_cast<unsigned long long>(s.queries),
                    static_cast<unsigned long long>(s.hits),
                    static_cast<unsigned long long>(s.misses), service.store().size(),
                    service.evaluator().probe_runs());
    }
    cli.finish(std::move(rep));
    return 0;
}
