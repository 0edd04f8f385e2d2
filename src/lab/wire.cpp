#include "lab/wire.hpp"

#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/json_write.hpp"

namespace lab::wire {

namespace {

bool write_all(int fd, const char* data, std::size_t n) {
    while (n > 0) {
        const ssize_t w = ::write(fd, data, n);
        if (w <= 0) {
            if (w < 0 && errno == EINTR) continue;
            return false;
        }
        data += w;
        n -= static_cast<std::size_t>(w);
    }
    return true;
}

/// Reads exactly n bytes; 1 on success, 0 on clean EOF before any byte,
/// -1 on a mid-read EOF or error.
int read_all(int fd, char* data, std::size_t n) {
    bool any = false;
    while (n > 0) {
        const ssize_t r = ::read(fd, data, n);
        if (r < 0) {
            if (errno == EINTR) continue;
            return -1;
        }
        if (r == 0) return any ? -1 : 0;
        any = true;
        data += r;
        n -= static_cast<std::size_t>(r);
    }
    return 1;
}

} // namespace

bool send_frame(int fd, const std::string& payload) {
    char header[8];
    std::memcpy(header, kMagic, 4);
    const auto n = static_cast<std::uint32_t>(payload.size());
    header[4] = static_cast<char>(n & 0xff);
    header[5] = static_cast<char>((n >> 8) & 0xff);
    header[6] = static_cast<char>((n >> 16) & 0xff);
    header[7] = static_cast<char>((n >> 24) & 0xff);
    return write_all(fd, header, sizeof(header)) &&
           write_all(fd, payload.data(), payload.size());
}

std::optional<std::string> recv_frame(int fd) {
    char header[8];
    const int got = read_all(fd, header, sizeof(header));
    if (got == 0) return std::nullopt; // clean EOF between frames
    if (got < 0) throw std::runtime_error("lab wire: truncated frame header");
    if (std::memcmp(header, kMagic, 4) != 0)
        throw std::runtime_error("lab wire: bad frame magic (peer is not a lab client)");
    const std::uint32_t n = static_cast<std::uint8_t>(header[4]) |
                            (static_cast<std::uint32_t>(static_cast<std::uint8_t>(header[5])) << 8) |
                            (static_cast<std::uint32_t>(static_cast<std::uint8_t>(header[6])) << 16) |
                            (static_cast<std::uint32_t>(static_cast<std::uint8_t>(header[7])) << 24);
    if (n > kMaxFrameBytes) throw std::runtime_error("lab wire: oversized frame");
    std::string payload(n, '\0');
    if (n > 0 && read_all(fd, payload.data(), n) != 1)
        throw std::runtime_error("lab wire: truncated frame payload");
    return payload;
}

int listen_unix(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        throw std::runtime_error("lab wire: socket path too long: " + path);
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("lab wire: socket() failed");
    ::unlink(path.c_str());
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        ::close(fd);
        throw std::runtime_error("lab wire: cannot bind " + path);
    }
    if (::listen(fd, 64) != 0) {
        ::close(fd);
        throw std::runtime_error("lab wire: cannot listen on " + path);
    }
    return fd;
}

int connect_unix(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        throw std::runtime_error("lab wire: socket path too long: " + path);
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("lab wire: socket() failed");
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        ::close(fd);
        throw std::runtime_error("lab wire: cannot connect to " + path +
                                 " (is the daemon running?)");
    }
    return fd;
}

std::string response_payload(const Answer& answer) {
    if (answer.error.empty()) return answer.report_json;
    std::string out = "{\"error\":\"";
    obs::append_json_string(out, answer.error);
    return out + "\"}";
}

void handle_connection(int fd, Service& svc) {
    try {
        for (;;) {
            const auto frame = recv_frame(fd);
            if (!frame) break;
            if (!send_frame(fd, response_payload(svc.answer_json(*frame)))) break;
        }
    } catch (const std::exception&) {
        // Protocol violation: drop the connection; the daemon stays up.
    }
}

void serve(int listen_fd, Service& svc, const std::atomic<bool>& stop) {
    std::vector<std::thread> workers;
    while (!stop.load(std::memory_order_relaxed)) {
        pollfd pfd{listen_fd, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, 200);
        if (ready <= 0) continue;
        const int conn = ::accept(listen_fd, nullptr, nullptr);
        if (conn < 0) continue;
        workers.emplace_back([conn, &svc] {
            handle_connection(conn, svc);
            ::close(conn);
        });
    }
    for (auto& w : workers) w.join();
}

std::string request(int fd, const std::string& request_json) {
    if (!send_frame(fd, request_json))
        throw std::runtime_error("lab wire: daemon hung up while sending");
    auto reply = recv_frame(fd);
    if (!reply) throw std::runtime_error("lab wire: daemon hung up before replying");
    return std::move(*reply);
}

} // namespace lab::wire
