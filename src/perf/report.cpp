#include "perf/report.hpp"

#include <cstdio>
#include <stdexcept>

#include "obs/json_write.hpp"

namespace perf {

namespace {

using obs::append_json_number;
using obs::append_json_string;

void kv_str(std::string& out, const char* key, const std::string& v, bool& first) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += key;
    out += "\":\"";
    append_json_string(out, v);
    out += "\"";
}

void kv_num(std::string& out, const char* key, double v, bool& first) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += key;
    out += "\":";
    append_json_number(out, v);
}

void str_map(std::string& out, const std::map<std::string, double>& m) {
    out += "{";
    bool first = true;
    for (const auto& [k, v] : m) {
        if (!first) out += ",";
        first = false;
        out += "\"";
        append_json_string(out, k);
        out += "\":";
        append_json_number(out, v);
    }
    out += "}";
}

} // namespace

std::string RunReport::to_json() const {
    std::string out = "{\n";
    out += "\"schema_version\":" + std::to_string(kSchemaVersion) + ",\n";
    out += "\"bench\":\"";
    append_json_string(out, bench);
    out += "\",\n";
    if (!backend.empty()) {
        out += "\"backend\":\"";
        append_json_string(out, backend);
        out += "\",\n";
    }
    if (crossover_order >= 0.0) {
        out += "\"crossover_order\":";
        append_json_number(out, crossover_order);
        out += ",\n";
    }
    // Schema v2: the canonical ScenarioRequest echo ({} when the report was
    // not built from one) and the store/cache provenance.
    out += "\"request\":";
    out += request_json.empty() ? "{}" : request_json;
    out += ",\n\"cache\":{\"hit\":";
    out += cache_hit ? "true" : "false";
    out += ",\"store_key\":\"";
    append_json_string(out, store_key);
    out += "\"},\n";
    out += "\"meta\":{";
    {
        bool first = true;
        for (const auto& [k, v] : meta) kv_str(out, k.c_str(), v, first);
    }
    out += "},\n\"steps\":" + std::to_string(steps) + ",\n";
    out += "\"stages\":[";
    for (std::size_t i = 0; i < stages.size(); ++i) {
        const StageRow& r = stages[i];
        out += i == 0 ? "\n" : ",\n";
        out += "{";
        bool first = true;
        kv_num(out, "stage", static_cast<double>(r.stage), first);
        kv_str(out, "name", r.name, first);
        kv_str(out, "group", r.group, first);
        kv_num(out, "flops", r.flops, first);
        kv_num(out, "bytes", r.bytes, first);
        kv_num(out, "calls", static_cast<double>(r.calls), first);
        kv_num(out, "host_seconds", r.host_seconds, first);
        kv_num(out, "fault_seconds", r.fault_seconds, first);
        kv_num(out, "overlap_seconds", r.overlap_seconds, first);
        kv_num(out, "retransmits", static_cast<double>(r.retransmits), first);
        out += "}";
    }
    out += "],\n\"metrics\":{\"counters\":";
    str_map(out, metrics.counters);
    out += ",\"gauges\":";
    str_map(out, metrics.gauges);
    // bench/run_report_schema.json requires the key; nothing fills it.
    out += ",\"histograms\":{}},\n\"cases\":[";
    for (std::size_t i = 0; i < cases.size(); ++i) {
        out += i == 0 ? "\n" : ",\n";
        out += "{";
        bool first = true;
        for (const auto& [k, v] : cases[i].labels) kv_str(out, k.c_str(), v, first);
        for (const auto& [k, v] : cases[i].values) kv_num(out, k.c_str(), v, first);
        out += "}";
    }
    out += "]\n}\n";
    return out;
}

std::string RunReport::to_canonical_json() const {
    RunReport masked = *this;
    masked.cache_hit = false; // serving provenance, not run content
    for (StageRow& r : masked.stages) r.host_seconds = 0.0;
    const auto mask = [](std::map<std::string, double>& m) {
        for (auto& [k, v] : m)
            if (k.find("host_seconds") != std::string::npos) v = 0.0;
    };
    mask(masked.metrics.counters);
    mask(masked.metrics.gauges);
    return masked.to_json();
}

void RunReport::write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write RunReport to " + path);
    const std::string json = to_json();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
}

RunReport report(std::string bench, const StageBreakdown* bd, const simmpi::RankReport* rank) {
    RunReport rep;
    rep.bench = std::move(bench);

    if (bd != nullptr) {
        rep.steps = bd->steps;
        std::vector<StageRow> rows(kNumStages + 1);
        for (std::size_t s = 0; s <= kNumStages; ++s) {
            StageRow& row = rows[s];
            row.stage = s;
            row.name = s == 0 ? "outside stages" : stage_short_name(s);
            row.group = s == 0 ? "" : stage_group_label(stage_group(s));
            row.flops = static_cast<double>(bd->counts[s].flops);
            row.bytes = static_cast<double>(bd->counts[s].bytes());
            row.calls = bd->counts[s].calls;
            row.host_seconds = bd->host_seconds[s];
        }
        if (rank != nullptr) {
            for (const auto& [stage, fs] : rank->fault_log) {
                rows[stage_slot(stage)].retransmits += fs.retransmits;
                rows[stage_slot(stage)].fault_seconds += fs.extra_seconds;
            }
            for (const auto& [stage, hidden] : rank->overlap_log)
                rows[stage_slot(stage)].overlap_seconds += hidden;
        }
        double flops = 0.0, bytes = 0.0, host = 0.0, fault = 0.0, overlap = 0.0;
        std::uint64_t retrans = 0;
        for (StageRow& row : rows) {
            flops += row.flops;
            bytes += row.bytes;
            host += row.host_seconds;
            fault += row.fault_seconds;
            overlap += row.overlap_seconds;
            retrans += row.retransmits;
            const bool empty = row.calls == 0 && row.flops == 0.0 && row.host_seconds == 0.0 &&
                               row.fault_seconds == 0.0 && row.overlap_seconds == 0.0 &&
                               row.retransmits == 0;
            if (row.stage >= 1 || !empty) rep.stages.push_back(std::move(row));
        }
        rep.metrics.counters["ops.flops"] += flops;
        rep.metrics.counters["ops.bytes"] += bytes;
        rep.metrics.counters["stage.host_seconds"] += host;
        rep.metrics.counters["comm.retransmits"] += static_cast<double>(retrans);
        rep.metrics.counters["comm.fault_seconds"] += fault;
        rep.metrics.counters["comm.overlap_hidden_seconds"] += overlap;
    }
    return rep;
}

} // namespace perf
