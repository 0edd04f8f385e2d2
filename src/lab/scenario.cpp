#include "lab/scenario.hpp"

#include <climits>
#include <cmath>
#include <cstdio>

#include "ckpt/checkpoint.hpp"
#include "lab/json.hpp"

namespace lab {

namespace {

void esc(std::string& out, const std::string& s) {
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
}

void kv_str(std::string& out, const char* key, const std::string& v) {
    out += '"';
    out += key;
    out += "\":\"";
    esc(out, v);
    out += "\",";
}

void kv_u64(std::string& out, const char* key, std::uint64_t v) {
    out += '"';
    out += key;
    out += "\":";
    out += std::to_string(v);
    out += ',';
}

void kv_f64(std::string& out, const char* key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += '"';
    out += key;
    out += "\":";
    out += buf;
    out += ',';
}

/// Exclusive upper bounds for as_count: an int field, and a uint64 one.
constexpr double kIntLimit = static_cast<double>(INT_MAX) + 1.0;
constexpr double kU64Limit = 18446744073709551616.0; // 2^64

/// Reads a non-negative integer field that our writers emit as a bare
/// integer token (doubles representing them exactly up to 2^53).  A value
/// at or above `limit` (+inf included) is rejected: the cast would wrap it
/// or be undefined.
std::uint64_t as_count(const Json& v, const char* field, double limit) {
    const double d = v.as_number();
    if (d < 0.0 || d != std::floor(d))
        throw ParseError(std::string("field \"") + field +
                         "\" must be a non-negative integer");
    if (!(d < limit))
        throw ParseError(std::string("field \"") + field + "\" is out of range");
    return static_cast<std::uint64_t>(d);
}

bool one_of(const std::string& v, std::initializer_list<const char*> allowed) {
    for (const char* a : allowed)
        if (v == a) return true;
    return false;
}

} // namespace

std::string ScenarioRequest::canonical_json() const {
    // Keys in sorted order, every field always present: the canonical bytes.
    std::string out = "{";
    kv_str(out, "backend", backend);
    kv_str(out, "bench", bench);
    kv_f64(out, "dof_per_rank", dof_per_rank);
    kv_str(out, "fault", fault);
    kv_str(out, "fidelity", fidelity);
    kv_str(out, "machine", machine);
    kv_str(out, "net", net);
    kv_u64(out, "ranks", static_cast<std::uint64_t>(ranks));
    kv_u64(out, "schema", static_cast<std::uint64_t>(kSchemaVersion));
    kv_u64(out, "seed", seed);
    out += smoke ? "\"smoke\":true," : "\"smoke\":false,";
    kv_str(out, "solver", solver);
    kv_u64(out, "steps", static_cast<std::uint64_t>(steps));
    kv_str(out, "transpose", transpose);
    out.back() = '}';
    return out;
}

std::uint64_t ScenarioRequest::fingerprint() const {
    ckpt::Fingerprint fp;
    fp.add(canonical_json());
    return fp.value();
}

std::string ScenarioRequest::store_key() const {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fingerprint()));
    return buf;
}

ScenarioRequest ScenarioRequest::parse(const std::string& json) {
    const Json doc = Json::parse(json);
    if (!doc.is_object()) throw ParseError("a ScenarioRequest must be a JSON object");
    ScenarioRequest req;
    for (const auto& [key, value] : doc.as_object()) {
        if (key == "schema") {
            if (as_count(value, "schema", kU64Limit) != static_cast<std::uint64_t>(kSchemaVersion))
                throw ParseError("unsupported ScenarioRequest schema " +
                                 std::to_string(value.as_number()) + " (this build speaks " +
                                 std::to_string(kSchemaVersion) + ")");
        } else if (key == "bench") {
            req.bench = value.as_string();
        } else if (key == "machine") {
            req.machine = value.as_string();
        } else if (key == "net") {
            req.net = value.as_string();
        } else if (key == "ranks") {
            req.ranks = static_cast<int>(as_count(value, "ranks", kIntLimit));
        } else if (key == "seed") {
            req.seed = as_count(value, "seed", kU64Limit);
        } else if (key == "smoke") {
            req.smoke = value.as_bool();
        } else if (key == "solver") {
            req.solver = value.as_string();
        } else if (key == "fidelity") {
            req.fidelity = value.as_string();
        } else if (key == "backend") {
            req.backend = value.as_string();
        } else if (key == "fault") {
            req.fault = value.as_string();
        } else if (key == "transpose") {
            req.transpose = value.as_string();
        } else if (key == "dof_per_rank") {
            req.dof_per_rank = value.as_number();
        } else if (key == "steps") {
            req.steps = static_cast<int>(as_count(value, "steps", kIntLimit));
        } else {
            throw ParseError("unknown ScenarioRequest field \"" + key + "\"");
        }
    }
    req.validate();
    return req;
}

void ScenarioRequest::validate() const {
    if (!one_of(solver, {"", "serial", "fourier", "ale"}))
        throw ParseError("solver must be one of \"\", \"serial\", \"fourier\", \"ale\"; got \"" +
                         solver + "\"");
    if (!one_of(fidelity, {"model", "measured"}))
        throw ParseError("fidelity must be \"model\" or \"measured\"; got \"" + fidelity + "\"");
    if (!one_of(backend, {"", "dense", "sumfact"}))
        throw ParseError("backend must be one of \"\", \"dense\", \"sumfact\"; got \"" +
                         backend + "\"");
    if (!one_of(transpose, {"", "slab", "pencil"}))
        throw ParseError("transpose must be one of \"\", \"slab\", \"pencil\"; got \"" +
                         transpose + "\"");
    if (ranks < 0) throw ParseError("ranks must be >= 0");
    if (steps < 0) throw ParseError("steps must be >= 0");
    if (!(dof_per_rank >= 0.0) || !std::isfinite(dof_per_rank))
        throw ParseError("dof_per_rank must be finite and >= 0");
}

} // namespace lab
