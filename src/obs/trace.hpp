#pragma once

/// \file trace.hpp
/// Structured tracing for the whole stack: begin/end spans and counters on
/// named lanes, recorded against either the host clock or a simmpi virtual
/// clock, exported as Chrome trace_event JSON (chrome://tracing, Perfetto)
/// and as a compact deterministic binary stream for regression tests.
///
/// One run-time gate keeps the hot path honest: every call site is written
/// as `if (obs::active()) { ... }`, and `active()` is one relaxed atomic
/// load, so nothing else happens until `enable()`.
///
/// Determinism contract: events carrying virtual-clock timestamps (the
/// simmpi rank lanes) are bit-identical across repeated seeded runs, and
/// `serialize()` orders lanes and interned strings by name so the emitted
/// bytes are too.  Host-clock events are inherently noisy; enable with
/// `virtual_only = true` to drop them when byte-stable streams are needed.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace obs {

enum class EventKind : std::uint8_t { Begin = 0, End = 1, Counter = 2, Instant = 3 };

/// One record in a lane's ring buffer.  Strings (names, argument fragments)
/// are interned in the owning Tracer; `args` is the id of a preformatted
/// JSON object body such as `"bytes":4096,"overlapped":true` (0 = none).
struct TraceEvent {
    std::uint32_t name = 0;
    std::uint32_t args = 0;
    EventKind kind = EventKind::Begin;
    bool virtual_time = false;
    double t = 0.0;     ///< seconds: virtual-clock value, or host time since enable()
    double value = 0.0; ///< Counter payload
};

class Tracer;

/// One ordered event stream: a simmpi rank, a thread-pool worker, or the
/// host thread.  Lanes are created through Tracer::lane() and live until
/// reset(); pointers stay valid across recording.
class Lane {
public:
    Lane(const Lane&) = delete;
    Lane& operator=(const Lane&) = delete;

    [[nodiscard]] const std::string& name() const noexcept { return name_; }

private:
    friend class Tracer;
    Lane(std::string name, std::size_t capacity) : name_(std::move(name)), capacity_(capacity) {}

    std::string name_;
    std::size_t capacity_;
    std::mutex mu_;                  ///< guards events_/head_/dropped_
    std::vector<TraceEvent> events_; ///< ring: oldest at head_ once full
    std::size_t head_ = 0;
    std::uint64_t dropped_ = 0; ///< events overwritten by the ring
};

struct TracerConfig {
    std::size_t lane_capacity = std::size_t{1} << 20; ///< events per lane ring
    /// Drop host-clock events at record time so the stream depends only on
    /// the seeded virtual clocks (the bit-determinism regression mode).
    bool virtual_only = false;
};

class Tracer {
public:
    /// Starts recording.  Resets nothing: lanes recorded before a disable()
    /// survive and new events append after them.
    void enable(TracerConfig cfg = {});
    void disable() { enabled_.store(false, std::memory_order_relaxed); }
    [[nodiscard]] bool enabled() const noexcept {
        return enabled_.load(std::memory_order_relaxed);
    }
    /// True when the active config drops host-clock events.  Host-clock call
    /// sites whose lane names or argument strings depend on scheduling (the
    /// thread-pool chunk spans) check this and skip interning too, keeping
    /// serialize() byte-stable.
    [[nodiscard]] bool virtual_only() const noexcept {
        return virtual_only_.load(std::memory_order_relaxed);
    }

    /// Drops all lanes and interned strings (recording state is kept).
    void reset();

    /// Interns (or finds) the lane called `name`; the pointer is stable
    /// until reset().  Safe from any thread.
    [[nodiscard]] Lane* lane(std::string_view name);

    /// Interns a string (event names, preformatted JSON argument bodies).
    [[nodiscard]] std::uint32_t intern(std::string_view s);

    /// Host seconds since enable() — the timestamp base for host-clock events.
    [[nodiscard]] double host_now() const {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
    }

    void begin(Lane* lane, std::uint32_t name, double t, bool virtual_time,
               std::uint32_t args = 0) {
        record(lane, {name, args, EventKind::Begin, virtual_time, t, 0.0});
    }
    void end(Lane* lane, std::uint32_t name, double t, bool virtual_time,
             std::uint32_t args = 0) {
        record(lane, {name, args, EventKind::End, virtual_time, t, 0.0});
    }
    void counter(Lane* lane, std::uint32_t name, double t, double value, bool virtual_time) {
        record(lane, {name, 0, EventKind::Counter, virtual_time, t, value});
    }
    void instant(Lane* lane, std::uint32_t name, double t, bool virtual_time,
                 std::uint32_t args = 0) {
        record(lane, {name, args, EventKind::Instant, virtual_time, t, 0.0});
    }

    struct LaneSnapshot {
        std::string name;
        std::uint64_t dropped = 0;
        std::vector<TraceEvent> events; ///< oldest first
    };
    struct Snapshot {
        std::vector<std::string> strings; ///< id -> text (id 0 = "")
        std::vector<LaneSnapshot> lanes;  ///< sorted by lane name
    };
    [[nodiscard]] Snapshot snapshot() const;

    /// Chrome trace_event JSON (an object with a "traceEvents" array), one
    /// tid per lane, timestamps in microseconds.  Load in chrome://tracing
    /// or https://ui.perfetto.dev.
    [[nodiscard]] std::string chrome_json() const;

    /// Compact binary stream: string table and lanes sorted by name, ids
    /// remapped, doubles as little-endian bit patterns.  Byte-identical
    /// across runs whenever every recorded timestamp is (virtual_only mode).
    [[nodiscard]] std::vector<std::uint8_t> serialize() const;

private:
    void record(Lane* lane, TraceEvent ev);

    std::atomic<bool> enabled_{false};
    std::atomic<bool> virtual_only_{false}; ///< mirrors cfg_ for the lock-free record path
    TracerConfig cfg_{};
    std::chrono::steady_clock::time_point epoch_{};
    mutable std::mutex mu_; ///< guards lanes_ and the string table
    std::vector<std::unique_ptr<Lane>> lanes_;
    std::vector<std::string> strings_{std::string{}}; ///< id 0 reserved
    std::map<std::string, std::uint32_t, std::less<>> string_ids_;
};

/// The process-global tracer every subsystem records into.
[[nodiscard]] Tracer& tracer();

/// True while the global tracer is enabled.
[[nodiscard]] inline bool active() noexcept { return tracer().enabled(); }

/// RAII host-clock span on a lane; no-op when tracing is inactive at entry.
class SpanScope {
public:
    SpanScope(Lane* lane, std::string_view name) {
        if (active()) {
            lane_ = lane;
            name_ = tracer().intern(name);
            tracer().begin(lane_, name_, tracer().host_now(), /*virtual_time=*/false);
        }
    }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;
    ~SpanScope() {
        if (lane_ != nullptr && active())
            tracer().end(lane_, name_, tracer().host_now(), /*virtual_time=*/false);
    }

private:
    Lane* lane_ = nullptr;
    std::uint32_t name_ = 0;
};

} // namespace obs
