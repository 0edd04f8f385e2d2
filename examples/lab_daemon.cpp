/// The cluster-lab daemon: listens on a unix socket and answers canonical
/// lab::ScenarioRequest frames with RunReport bytes, memoising every answer
/// in a persistent store.  Clients (cluster_advisor --connect, bench
/// binaries via --request, bench_lab_load) share one warm cache, so a
/// scenario anyone has asked before comes back in microseconds.
///
///   lab_daemon [--socket lab.sock] [--store lab_store]
///
/// SIGINT/SIGTERM drain the accept loop, print serving stats, and exit.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include <unistd.h>

#include "lab/service.hpp"
#include "lab/wire.hpp"

namespace {
std::atomic<bool> g_stop{false};
void on_signal(int) { g_stop.store(true, std::memory_order_relaxed); }
} // namespace

int main(int argc, char** argv) {
    std::string socket_path = "lab.sock";
    std::string store_dir = "lab_store";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--socket") == 0 && i + 1 < argc) socket_path = argv[++i];
        else if (std::strcmp(argv[i], "--store") == 0 && i + 1 < argc) store_dir = argv[++i];
        else {
            std::fprintf(stderr, "usage: lab_daemon [--socket path] [--store dir]\n");
            return 2;
        }
    }

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    std::signal(SIGPIPE, SIG_IGN); // a client hanging up mid-reply is not fatal

    try {
        lab::RunReportStore{store_dir}; // refuses a store another version wrote
    } catch (const std::runtime_error& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
    lab::Service service(store_dir);
    const int listen_fd = lab::wire::listen_unix(socket_path);
    std::printf("lab_daemon: serving on %s, store %s (%zu warm entries)\n",
                socket_path.c_str(), store_dir.c_str(), service.store().size());
    std::fflush(stdout);

    lab::wire::serve(listen_fd, service, g_stop);

    ::close(listen_fd);
    ::unlink(socket_path.c_str());
    const auto stats = service.stats();
    std::printf("lab_daemon: stopping — %llu queries, %llu hits, %llu misses, "
                "%llu errors (hit rate %.1f%%), %zu stored reports\n",
                static_cast<unsigned long long>(stats.queries),
                static_cast<unsigned long long>(stats.hits),
                static_cast<unsigned long long>(stats.misses),
                static_cast<unsigned long long>(stats.errors), 100.0 * stats.hit_rate(),
                service.store().size());
    return 0;
}
