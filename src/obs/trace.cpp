#include "obs/trace.hpp"

#include <algorithm>
#include <cstring>

#include "obs/json_write.hpp"

namespace obs {

namespace {

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void append_f64(std::vector<std::uint8_t>& out, double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    append_u64(out, bits);
}

} // namespace

void Tracer::enable(TracerConfig cfg) {
    std::lock_guard<std::mutex> g(mu_);
    cfg_ = cfg;
    virtual_only_.store(cfg.virtual_only, std::memory_order_relaxed);
    epoch_ = std::chrono::steady_clock::now();
    enabled_.store(true, std::memory_order_release);
}

void Tracer::reset() {
    std::lock_guard<std::mutex> g(mu_);
    lanes_.clear();
    strings_.assign(1, std::string{});
    string_ids_.clear();
}

Lane* Tracer::lane(std::string_view name) {
    std::lock_guard<std::mutex> g(mu_);
    for (const auto& l : lanes_)
        if (l->name_ == name) return l.get();
    lanes_.push_back(std::unique_ptr<Lane>(new Lane(std::string(name), cfg_.lane_capacity)));
    return lanes_.back().get();
}

std::uint32_t Tracer::intern(std::string_view s) {
    if (s.empty()) return 0; // id 0 is reserved for ""
    std::lock_guard<std::mutex> g(mu_);
    const auto it = string_ids_.find(s);
    if (it != string_ids_.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(strings_.size());
    strings_.emplace_back(s);
    string_ids_.emplace(std::string(s), id);
    return id;
}

void Tracer::record(Lane* lane, TraceEvent ev) {
    if (!enabled()) return;
    if (virtual_only_.load(std::memory_order_relaxed) && !ev.virtual_time) return;
    std::lock_guard<std::mutex> g(lane->mu_);
    if (lane->events_.size() < lane->capacity_) {
        lane->events_.push_back(ev);
    } else {
        lane->events_[lane->head_] = ev;
        lane->head_ = (lane->head_ + 1) % lane->capacity_;
        ++lane->dropped_;
    }
}

Tracer::Snapshot Tracer::snapshot() const {
    Snapshot snap;
    std::vector<Lane*> lanes;
    {
        std::lock_guard<std::mutex> g(mu_);
        snap.strings = strings_;
        lanes.reserve(lanes_.size());
        for (const auto& l : lanes_) lanes.push_back(l.get());
    }
    std::sort(lanes.begin(), lanes.end(),
              [](const Lane* a, const Lane* b) { return a->name_ < b->name_; });
    for (Lane* l : lanes) {
        LaneSnapshot ls;
        ls.name = l->name_;
        std::lock_guard<std::mutex> g(l->mu_);
        ls.dropped = l->dropped_;
        ls.events.reserve(l->events_.size());
        // Oldest event first: the ring head marks the oldest slot once full.
        for (std::size_t i = 0; i < l->events_.size(); ++i)
            ls.events.push_back(l->events_[(l->head_ + i) % l->events_.size()]);
        snap.lanes.push_back(std::move(ls));
    }
    return snap;
}

std::string Tracer::chrome_json() const {
    const Snapshot snap = snapshot();
    std::string out = "{\"traceEvents\":[";
    bool first = true;
    const auto emit = [&](const std::string& ev) {
        if (!first) out += ",";
        first = false;
        out += "\n";
        out += ev;
    };
    for (std::size_t li = 0; li < snap.lanes.size(); ++li) {
        const auto& lane = snap.lanes[li];
        const std::string tid = std::to_string(li + 1);
        bool named[2] = {false, false};
        for (const auto& e : lane.events) {
            // Virtual-clock and host-clock events live in separate pids so
            // the two time bases never share an axis in the viewer.
            const int pid = e.virtual_time ? 0 : 1;
            if (!named[pid]) {
                named[pid] = true;
                std::string m = "{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
                                ",\"tid\":" + tid + ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
                append_json_string(m, lane.name);
                m += "\"}}";
                emit(m);
            }
            std::string ev = "{\"ph\":\"";
            switch (e.kind) {
            case EventKind::Begin: ev += "B"; break;
            case EventKind::End: ev += "E"; break;
            case EventKind::Counter: ev += "C"; break;
            case EventKind::Instant: ev += "i"; break;
            }
            ev += "\",\"pid\":" + std::to_string(pid) + ",\"tid\":" + tid + ",\"ts\":";
            append_json_number(ev, e.t * 1e6); // trace_event timestamps are microseconds
            ev += ",\"name\":\"";
            append_json_string(ev, e.name < snap.strings.size() ? snap.strings[e.name] : "");
            ev += "\"";
            if (e.kind == EventKind::Instant) ev += ",\"s\":\"t\"";
            if (e.kind == EventKind::Counter) {
                ev += ",\"args\":{\"value\":";
                append_json_number(ev, e.value);
                ev += "}";
            } else if (e.args != 0 && e.args < snap.strings.size()) {
                ev += ",\"args\":{" + snap.strings[e.args] + "}";
            }
            ev += "}";
            emit(ev);
        }
    }
    out += "\n],\"displayTimeUnit\":\"ms\"}\n";
    return out;
}

std::vector<std::uint8_t> Tracer::serialize() const {
    const Snapshot snap = snapshot();

    // Collect the string ids actually referenced, emit them sorted by text,
    // and remap, so insertion order (a thread-scheduling artifact) never
    // reaches the output bytes.
    std::vector<std::uint32_t> used;
    for (const auto& lane : snap.lanes)
        for (const auto& e : lane.events) {
            used.push_back(e.name);
            used.push_back(e.args);
        }
    std::sort(used.begin(), used.end());
    used.erase(std::unique(used.begin(), used.end()), used.end());
    std::vector<std::uint32_t> order = used; // ids sorted by text
    std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
        return snap.strings[a] < snap.strings[b];
    });
    std::vector<std::uint32_t> remap(snap.strings.size(), 0);
    for (std::size_t i = 0; i < order.size(); ++i)
        remap[order[i]] = static_cast<std::uint32_t>(i);

    std::vector<std::uint8_t> out;
    for (const char c : std::string_view{"OBSTRACE"}) out.push_back(static_cast<std::uint8_t>(c));
    append_u32(out, 1); // format version
    append_u32(out, static_cast<std::uint32_t>(order.size()));
    for (const std::uint32_t id : order) {
        const std::string& s = snap.strings[id];
        append_u32(out, static_cast<std::uint32_t>(s.size()));
        out.insert(out.end(), s.begin(), s.end());
    }
    append_u32(out, static_cast<std::uint32_t>(snap.lanes.size()));
    for (const auto& lane : snap.lanes) {
        append_u32(out, static_cast<std::uint32_t>(lane.name.size()));
        out.insert(out.end(), lane.name.begin(), lane.name.end());
        append_u64(out, lane.dropped);
        append_u64(out, lane.events.size());
        for (const auto& e : lane.events) {
            append_u32(out, remap[e.name]);
            append_u32(out, remap[e.args]);
            out.push_back(static_cast<std::uint8_t>(e.kind));
            out.push_back(e.virtual_time ? 1 : 0);
            append_f64(out, e.t);
            append_f64(out, e.value);
        }
    }
    return out;
}

Tracer& tracer() {
    static Tracer t;
    return t;
}

} // namespace obs
