#include "simmpi/simmpi.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <exception>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "simmpi/scheduler.hpp"

namespace simmpi {

std::string to_string(CommKind k) {
    switch (k) {
        case CommKind::Ptp: return "ptp";
        case CommKind::Alltoall: return "alltoall";
        case CommKind::Allreduce: return "allreduce";
        case CommKind::Gather: return "gather";
        case CommKind::Bcast: return "bcast";
        case CommKind::Barrier: return "barrier";
        case CommKind::Split: return "split";
    }
    return "?";
}

namespace {

double event_seconds(const CommEventKey& key, const netsim::NetworkModel& net, int nprocs) {
    // group == 0 marks a world-communicator event: it is priced with the
    // nprocs the caller supplies, which is what lets one world log be
    // re-priced across rank counts.  Subcommunicator events pin their size.
    const int p = key.group != 0 ? static_cast<int>(key.group) : nprocs;
    const int conc = std::max(1, static_cast<int>(key.groups));
    switch (key.kind) {
        case CommKind::Ptp: return net.ptp_seconds(key.bytes);
        case CommKind::Alltoall: return net.alltoall_seconds(p, key.bytes, conc);
        case CommKind::Allreduce:
        case CommKind::Split: return net.allreduce_seconds(p, key.bytes, conc);
        case CommKind::Gather:
        case CommKind::Bcast: return net.gather_seconds(p, key.bytes, conc);
        case CommKind::Barrier: return net.barrier_seconds(p, conc);
    }
    return 0.0;
}

} // namespace

CommPrice price(const CommLog& log, const netsim::NetworkModel& net, int nprocs) {
    const auto add = [&](SplitSeconds& to, const CommEventKey& key, std::uint64_t count) {
        (key.overlapped ? to.overlapped : to.blocking) +=
            static_cast<double>(count) * event_seconds(key, net, nprocs);
    };
    CommPrice out;
    std::map<CommEventKey, std::uint64_t> merged;
    for (const auto& [stage, events] : log) {
        SplitSeconds& row = out.stages[stage];
        for (const auto& [key, count] : events) {
            add(row, key, count);
            merged[key] += count;
        }
    }
    for (const auto& [key, count] : merged) add(out.total, key, count);
    return out;
}

// ---------------------------------------------------------------------------
// Comm
// ---------------------------------------------------------------------------

void Comm::advance_compute(double seconds) noexcept {
    rs_->cpu += seconds;
    rs_->wall += seconds;
}

namespace {

/// Preformatted trace_event argument fragment for one comm op.  Interning
/// dedups: a run touches few distinct (kind, bytes) pairs.
std::uint32_t comm_args(CommKind kind, std::size_t bytes, bool overlapped) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "\"kind\":\"%s\",\"bytes\":%zu,\"overlapped\":%s",
                  to_string(kind).c_str(), bytes, overlapped ? "true" : "false");
    return obs::tracer().intern(buf);
}

} // namespace

std::uint32_t Comm::trace_begin(const char* name, CommKind kind, std::size_t bytes,
                                bool overlapped) {
    if (!obs::active()) return 0;
    obs::Tracer& tr = obs::tracer();
    if (rs_->trace_lane == nullptr) rs_->trace_lane = tr.lane("rank " + std::to_string(wrank_));
    const std::uint32_t id = tr.intern(name);
    tr.begin(rs_->trace_lane, id, rs_->wall, /*virtual_time=*/true,
             comm_args(kind, bytes, overlapped));
    return id;
}

void Comm::trace_end(std::uint32_t name_id) {
    if (name_id == 0 || !obs::active() || rs_->trace_lane == nullptr) return;
    obs::tracer().end(rs_->trace_lane, name_id, rs_->wall, /*virtual_time=*/true);
}

void Comm::trace_instant(const char* name, CommKind kind, std::size_t bytes, bool overlapped) {
    if (!obs::active()) return;
    obs::Tracer& tr = obs::tracer();
    if (rs_->trace_lane == nullptr) rs_->trace_lane = tr.lane("rank " + std::to_string(wrank_));
    tr.instant(rs_->trace_lane, tr.intern(name), rs_->wall, /*virtual_time=*/true,
               comm_args(kind, bytes, overlapped));
}

void Comm::trace_counter(const char* name, double value) {
    if (!obs::active()) return;
    obs::Tracer& tr = obs::tracer();
    if (rs_->trace_lane == nullptr) rs_->trace_lane = tr.lane("rank " + std::to_string(wrank_));
    tr.counter(rs_->trace_lane, tr.intern(name), rs_->wall, value, /*virtual_time=*/true);
}

double Comm::faulted_cost(double base_seconds) {
    const netsim::FaultModel& fm = world_->net_.fault;
    // The fault stream is keyed by *world* rank: a rank draws the same
    // perturbations no matter which communicator the event ran on.  The kill
    // event fires *before* the event index is consumed, so a replay restored
    // to an earlier msg_index walks through the same position again (and
    // dies again unless the kill has been disarmed).
    if (fm.should_kill(wrank_, rs_->msg_index))
        throw RankKilledError(wrank_, rs_->msg_index, rs_->wall);
    const std::uint64_t idx = rs_->msg_index++;
    if (!fm.enabled()) return base_seconds;
    const netsim::FaultPerturbation p = fm.perturb(wrank_, idx, base_seconds);
    const double cost = (base_seconds + p.extra_seconds) * fm.rank_slowdown(wrank_);
    FaultStageStats& fs = rs_->fault_log[rs_->stage];
    fs.retransmits += static_cast<std::uint64_t>(p.retransmits);
    fs.extra_seconds += cost - base_seconds;
    if (p.retransmits > 0) trace_counter("fault.retransmits", static_cast<double>(p.retransmits));
    if (cost != base_seconds) trace_counter("fault.extra_s", cost - base_seconds);
    return cost;
}

void Comm::send(int dest, int tag, std::span<const double> data) {
    require("send");
    assert(dest >= 0 && dest < gsize_ && dest != grank_);
    const std::size_t bytes = data.size_bytes();
    const std::uint32_t span = trace_begin("send", CommKind::Ptp, bytes);
    detail::Message msg;
    msg.src = grank_;
    msg.ctx = ctx_;
    msg.tag = tag;
    msg.payload.assign(data.begin(), data.end());
    msg.avail_time = rs_->wall + faulted_cost(world_->net_.ptp_seconds(bytes));
    record(CommKind::Ptp, bytes);
    // The sender returns to work after the injection overhead; the transfer
    // itself (with any retransmits/jitter) lands on the receiver's clock.
    const double overhead = 0.5 * world_->net_.latency_us * 1e-6;
    rs_->wall += overhead;
    rs_->cpu += overhead * world_->net_.cpu_poll_fraction;
    world_->deliver(group_->members[static_cast<std::size_t>(dest)], std::move(msg));
    trace_end(span);
}

void Comm::recv(int src, int tag, std::span<double> data) {
    require("recv");
    const std::uint32_t span = trace_begin("recv", CommKind::Ptp, data.size_bytes());
    detail::Message msg = world_->take(wrank_, src, ctx_, tag);
    if (msg.payload.size() != data.size())
        throw std::runtime_error("simmpi: recv size mismatch");
    std::copy(msg.payload.begin(), msg.payload.end(), data.begin());
    const double before = rs_->wall;
    rs_->wall = std::max(rs_->wall, msg.avail_time);
    // TCP stacks block (pure idle); polling stacks burn CPU while waiting.
    rs_->cpu += (rs_->wall - before) * world_->net_.cpu_poll_fraction;
    trace_end(span);
}

void Comm::sendrecv(int partner, int tag, std::span<const double> send_data,
                    std::span<double> recv_data) {
    // send() is buffered (deposits into the partner's mailbox), so the
    // send-then-recv order cannot deadlock.
    send(partner, tag, send_data);
    recv(partner, tag, recv_data);
}

// ---------------------------------------------------------------------------
// Nonblocking point-to-point
// ---------------------------------------------------------------------------

void Comm::post_background(int dest, int tag, std::span<const double> data, double base_cost) {
    detail::Message msg;
    msg.src = grank_;
    msg.ctx = ctx_;
    msg.tag = tag;
    msg.payload.assign(data.begin(), data.end());
    const double cost = faulted_cost(base_cost);
    // Posted transfers queue on this rank's NIC: a burst of isends costs
    // what serialized transfers cost, it just accrues while the rank works.
    const double start = std::max(rs_->wall, rs_->nic_busy);
    msg.avail_time = start + cost;
    msg.cost = cost;
    rs_->nic_busy = msg.avail_time;
    world_->deliver(group_->members[static_cast<std::size_t>(dest)], std::move(msg));
}

Request Comm::isend(int dest, int tag, std::span<const double> data) {
    require("isend");
    assert(dest >= 0 && dest < gsize_ && dest != grank_);
    const std::size_t bytes = data.size_bytes();
    record(CommKind::Ptp, bytes, /*overlapped=*/true);
    trace_instant("isend", CommKind::Ptp, bytes, /*overlapped=*/true);
    post_background(dest, tag, data, world_->net_.ptp_seconds(bytes));
    // The sender pays the same injection overhead as a blocking send; the
    // payload is buffered, so the request is complete at once.
    const double overhead = 0.5 * world_->net_.latency_us * 1e-6;
    rs_->wall += overhead;
    rs_->cpu += overhead * world_->net_.cpu_poll_fraction;
    Request r;
    r.kind_ = Request::Kind::Send;
    r.done_ = true;
    r.peer_ = dest;
    r.tag_ = tag;
    return r;
}

Request Comm::irecv(int src, int tag, std::span<double> data) {
    require("irecv");
    assert(src >= 0 && src < gsize_ && src != grank_);
    Request r;
    r.kind_ = Request::Kind::Recv;
    r.peer_ = src;
    r.tag_ = tag;
    r.buf_ = data;
    r.post_wall_ = rs_->wall;
    ++rs_->pending_recvs;
    return r;
}

void Comm::absorb(Request& r, detail::Message&& msg) {
    if (msg.payload.size() != r.buf_.size())
        throw std::runtime_error("simmpi: irecv size mismatch");
    assert(r.post_wall_ <= rs_->wall);
    std::copy(msg.payload.begin(), msg.payload.end(), r.buf_.begin());
    const double before = rs_->wall;
    rs_->wall = std::max(rs_->wall, msg.avail_time);
    const double idle = rs_->wall - before;
    rs_->cpu += idle * world_->net_.cpu_poll_fraction;
    // Whatever part of the background transfer did not surface as idle was
    // hidden under this rank's own work since the post: that is the
    // "overlapped comm" the application tables report.
    const double hidden = std::max(0.0, msg.cost - idle);
    rs_->overlap_log[rs_->stage] += hidden;
    if (hidden > 0.0) trace_counter("overlap.hidden_s", hidden);
    r.done_ = true;
    --rs_->pending_recvs;
}

void Comm::wait(Request& r) {
    if (!r.valid()) throw std::runtime_error("simmpi: wait on an empty Request");
    if (r.done_) return;
    const std::uint32_t span =
        trace_begin("wait", CommKind::Ptp, r.buf_.size_bytes(), /*overlapped=*/true);
    absorb(r, world_->take(wrank_, r.peer_, ctx_, r.tag_));
    trace_end(span);
}

void Comm::waitall(std::span<Request> rs) {
    for (Request& r : rs)
        if (r.valid()) wait(r);
}

void Comm::check_no_pending() const {
    if (rs_->pending_recvs != 0)
        throw std::runtime_error("simmpi: rank " + std::to_string(wrank_) + " finished with " +
                                 std::to_string(rs_->pending_recvs) +
                                 " pending nonblocking request(s) never waited on");
}

// ---------------------------------------------------------------------------
// Checkpointable rank state
// ---------------------------------------------------------------------------

void Comm::save_state(ckpt::SectionWriter& w) const {
    if (ctx_ != 0)
        throw std::logic_error("simmpi: save_state on a subcommunicator");
    if (rs_->pending_recvs != 0)
        throw std::logic_error("simmpi: checkpoint with " + std::to_string(rs_->pending_recvs) +
                               " pending nonblocking request(s); checkpoint between steps");
    w.f64(rs_->cpu);
    w.f64(rs_->wall);
    w.f64(rs_->nic_busy);
    w.u64(rs_->msg_index);
    w.i64(coll_seq_);
    w.i64(split_seq_);
    w.i64(rs_->stage);
    w.u64(rs_->log.size());
    for (const auto& [stage, events] : rs_->log) {
        w.i64(stage);
        w.u64(events.size());
        for (const auto& [key, count] : events) {
            w.u32(static_cast<std::uint32_t>(key.kind));
            w.u64(key.bytes);
            w.u32(key.overlapped ? 1 : 0);
            w.u32(key.group);
            w.u32(key.groups);
            w.u64(count);
        }
    }
    w.u64(rs_->fault_log.size());
    for (const auto& [stage, fs] : rs_->fault_log) {
        w.i64(stage);
        w.u64(fs.retransmits);
        w.f64(fs.extra_seconds);
    }
    w.u64(rs_->overlap_log.size());
    for (const auto& [stage, hidden] : rs_->overlap_log) {
        w.i64(stage);
        w.f64(hidden);
    }
}

void Comm::restore_state(ckpt::SectionReader& r) {
    if (ctx_ != 0)
        throw std::logic_error("simmpi: restore_state on a subcommunicator");
    rs_->cpu = r.f64();
    rs_->wall = r.f64();
    rs_->nic_busy = r.f64();
    rs_->msg_index = r.u64();
    coll_seq_ = static_cast<int>(r.i64());
    split_seq_ = static_cast<int>(r.i64());
    rs_->stage = static_cast<int>(r.i64());
    rs_->log.clear();
    for (std::uint64_t i = 0, nstages = r.u64(); i < nstages; ++i) {
        const int stage = static_cast<int>(r.i64());
        auto& events = rs_->log[stage];
        for (std::uint64_t j = 0, nkeys = r.u64(); j < nkeys; ++j) {
            CommEventKey key;
            const std::uint32_t kind = r.u32();
            if (kind > static_cast<std::uint32_t>(CommKind::Split))
                r.fail("comm event kind " + std::to_string(kind) + " out of range");
            key.kind = static_cast<CommKind>(kind);
            key.bytes = static_cast<std::size_t>(r.u64());
            key.overlapped = r.u32() != 0;
            key.group = r.u32();
            key.groups = r.u32();
            events[key] = r.u64();
        }
    }
    rs_->fault_log.clear();
    for (std::uint64_t i = 0, n = r.u64(); i < n; ++i) {
        const int stage = static_cast<int>(r.i64());
        FaultStageStats& fs = rs_->fault_log[stage];
        fs.retransmits = r.u64();
        fs.extra_seconds = r.f64();
    }
    rs_->overlap_log.clear();
    for (std::uint64_t i = 0, n = r.u64(); i < n; ++i) {
        const int stage = static_cast<int>(r.i64());
        rs_->overlap_log[stage] = r.f64();
    }
    r.expect_end();
}

// ---------------------------------------------------------------------------
// Subcommunicators
// ---------------------------------------------------------------------------

namespace {

/// FNV-1a over the 8 bytes of v, folding into h.
std::uint64_t mix_ctx(std::uint64_t h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace

Comm Comm::split(int color, int key) {
    require("split");
    detail::GroupState& g = *group_;
    const std::size_t p = static_cast<std::size_t>(gsize_);
    record(CommKind::Split, 2 * sizeof(double));
    const std::uint32_t span = trace_begin("split", CommKind::Split, 2 * sizeof(double));
    // Allgather every member's (color, key) through the staging area — the
    // same three-rendezvous discipline as the data collectives.
    {
        std::lock_guard lk(g.exch_mtx);
        if (g.exchange.size() < 2 * p) g.exchange.resize(2 * p);
    }
    world_->rendezvous_max(g, rs_->wall);
    g.exchange[2 * static_cast<std::size_t>(grank_)] = static_cast<double>(color);
    g.exchange[2 * static_cast<std::size_t>(grank_) + 1] = static_cast<double>(key);
    world_->rendezvous_max(g, rs_->wall);
    std::vector<std::pair<int, int>> ck(p); // (color, key) per parent rank
    for (std::size_t r = 0; r < p; ++r)
        ck[r] = {static_cast<int>(g.exchange[2 * r]), static_cast<int>(g.exchange[2 * r + 1])};
    sync_and_charge(world_->net_.allreduce_seconds(gsize_, 2 * sizeof(double),
                                                   static_cast<int>(g.siblings)));
    trace_end(span);
    ++split_seq_;

    // Sibling count: the distinct colors of this split execute their
    // collectives concurrently, which shared-medium topologies must price.
    std::vector<int> colors;
    colors.reserve(p);
    for (const auto& [c, k] : ck) {
        (void)k;
        if (c >= 0) colors.push_back(c);
    }
    std::sort(colors.begin(), colors.end());
    colors.erase(std::unique(colors.begin(), colors.end()), colors.end());
    const auto siblings = static_cast<std::uint32_t>(std::max<std::size_t>(1, colors.size()));

    if (color < 0) return Comm(*world_, rs_, nullptr, -1, wrank_, 0);

    // Members: parent ranks with my color, ordered by (key, parent rank),
    // translated to world ranks.
    std::vector<int> mine;
    for (int r = 0; r < gsize_; ++r)
        if (ck[static_cast<std::size_t>(r)].first == color) mine.push_back(r);
    std::stable_sort(mine.begin(), mine.end(), [&](int a, int b) {
        return ck[static_cast<std::size_t>(a)].second < ck[static_cast<std::size_t>(b)].second;
    });
    std::vector<int> members(mine.size());
    int my_grank = -1;
    for (std::size_t i = 0; i < mine.size(); ++i) {
        members[i] = g.members[static_cast<std::size_t>(mine[i])];
        if (mine[i] == grank_) my_grank = static_cast<int>(i);
    }
    assert(my_grank >= 0);

    // The derived context is a pure function of (parent context, split
    // sequence, color): every member computes it independently, and a
    // recovery replay that re-derives its splits in the original order
    // rebuilds the same contexts — message tags keep matching.
    std::uint64_t ctx = 1469598103934665603ull;
    ctx = mix_ctx(ctx, ctx_);
    ctx = mix_ctx(ctx, static_cast<std::uint64_t>(split_seq_));
    ctx = mix_ctx(ctx, static_cast<std::uint64_t>(static_cast<std::uint32_t>(color)));
    if (ctx == 0) ctx = 1; // 0 is the world communicator's context

    auto sub = world_->intern_group(ctx, std::move(members), siblings);
    return Comm(*world_, rs_, std::move(sub), my_grank, wrank_, ctx);
}

// ---------------------------------------------------------------------------
// Chunked nonblocking alltoall
// ---------------------------------------------------------------------------

namespace {
/// Tags at and above kCollTagBase are reserved for nonblocking collectives;
/// application point-to-point traffic must stay below it.
constexpr int kCollTagBase = 1 << 20;
constexpr int kCollTagRange = 1 << 19;
} // namespace

std::size_t Ialltoall::slice_offset(std::size_t s) const noexcept {
    const std::size_t units = granule_ ? block_ / granule_ : 0;
    const std::size_t base = nslices_ ? units / nslices_ : 0;
    const std::size_t rem = nslices_ ? units % nslices_ : 0;
    return (s * base + std::min(s, rem)) * granule_;
}

std::size_t Ialltoall::slice_len(std::size_t s) const noexcept {
    const std::size_t units = granule_ ? block_ / granule_ : 0;
    const std::size_t base = nslices_ ? units / nslices_ : 0;
    const std::size_t rem = nslices_ ? units % nslices_ : 0;
    return (base + (s < rem ? 1 : 0)) * granule_;
}

Ialltoall Comm::ialltoall(std::span<double> recv, std::size_t block, std::size_t nslices,
                          std::size_t granule) {
    require("ialltoall");
    const std::size_t p = static_cast<std::size_t>(gsize_);
    if (recv.size() != p * block) throw std::runtime_error("simmpi: ialltoall size mismatch");
    if (granule == 0 || block % granule != 0)
        throw std::runtime_error("simmpi: ialltoall block must divide into granules");
    const std::size_t units = block / granule;
    Ialltoall h;
    h.comm_ = this;
    h.recv_ = recv;
    h.block_ = block;
    h.granule_ = granule;
    h.nslices_ = std::min(std::max<std::size_t>(nslices, 1), std::max<std::size_t>(units, 1));
    h.tag_ = kCollTagBase + coll_seq_;
    coll_seq_ = (coll_seq_ + 1) % kCollTagRange;
    record(CommKind::Alltoall, block * sizeof(double), /*overlapped=*/true);
    trace_instant("ialltoall", CommKind::Alltoall, block * sizeof(double), /*overlapped=*/true);
    if (p > 1) {
        // Post every (peer, slice) receive up front so any arrival order of
        // the peers' sends queues cleanly.
        h.recvs_.resize(h.nslices_ * p);
        for (std::size_t s = 0; s < h.nslices_; ++s) {
            const std::size_t off = h.slice_offset(s);
            const std::size_t len = h.slice_len(s);
            for (std::size_t src = 0; src < p; ++src) {
                if (src == static_cast<std::size_t>(grank_)) continue;
                h.recvs_[s * p + src] =
                    irecv(static_cast<int>(src), h.tag_, recv.subspan(src * block + off, len));
            }
        }
    }
    return h;
}

void Ialltoall::send_slice(std::size_t s, std::span<const double> send) {
    if (!comm_) throw std::runtime_error("simmpi: send_slice on an empty Ialltoall");
    if (s != next_send_ || s >= nslices_)
        throw std::runtime_error("simmpi: ialltoall slices must be sent in ascending order");
    ++next_send_;
    Comm& c = *comm_;
    const std::size_t p = static_cast<std::size_t>(c.gsize_);
    if (send.size() != p * block_)
        throw std::runtime_error("simmpi: ialltoall send size mismatch");
    const std::size_t off = slice_offset(s);
    const std::size_t len = slice_len(s);
    const std::uint32_t span = c.trace_begin("ialltoall.send", CommKind::Alltoall,
                                             len * sizeof(double), /*overlapped=*/true);
    const std::size_t me = static_cast<std::size_t>(c.grank_);
    // The self block bypasses the network.
    std::copy(send.begin() + static_cast<std::ptrdiff_t>(me * block_ + off),
              send.begin() + static_cast<std::ptrdiff_t>(me * block_ + off + len),
              recv_.begin() + static_cast<std::ptrdiff_t>(me * block_ + off));
    if (p == 1) {
        c.trace_end(span);
        return;
    }
    const netsim::NetworkModel& net = c.world_->network();
    // Each peer message carries its share of the blocking collective's cost,
    // so the background total matches what alltoall() would have charged.
    const double share =
        net.alltoall_share_seconds(c.gsize_, block_ * sizeof(double), len * sizeof(double),
                                   static_cast<int>(c.group_->siblings));
    // Staggered peer order (the classic pairwise schedule) so no rank is
    // everyone's first target.
    for (std::size_t d = 1; d < p; ++d) {
        const int dest = static_cast<int>((me + d) % p);
        c.post_background(dest, tag_,
                          send.subspan(static_cast<std::size_t>(dest) * block_ + off, len),
                          share);
    }
    const double overhead = 0.5 * net.latency_us * 1e-6;
    c.rs_->wall += overhead;
    c.rs_->cpu += overhead * net.cpu_poll_fraction;
    c.trace_end(span);
}

void Ialltoall::wait_slice(std::size_t s) {
    if (!comm_) throw std::runtime_error("simmpi: wait_slice on an empty Ialltoall");
    if (s != next_wait_ || s >= nslices_)
        throw std::runtime_error("simmpi: ialltoall slices must be waited in ascending order");
    ++next_wait_;
    Comm& c = *comm_;
    const std::size_t p = static_cast<std::size_t>(c.gsize_);
    const std::uint32_t span = c.trace_begin("ialltoall.wait", CommKind::Alltoall,
                                             slice_len(s) * sizeof(double), /*overlapped=*/true);
    for (std::size_t d = 1; d < p; ++d) {
        const std::size_t src = (static_cast<std::size_t>(c.grank_) + d) % p;
        c.wait(recvs_[s * p + src]);
    }
    c.trace_end(span);
}

void Ialltoall::finish() {
    while (next_wait_ < nslices_) wait_slice(next_wait_);
}

double Comm::sync_and_charge(double coll_seconds) {
    // Per-rank perturbation: a straggler leaves the collective late, so its
    // peers accumulate idle time at the *next* synchronisation point —
    // exactly how a slow node degrades a real cluster.
    const double cost = faulted_cost(coll_seconds);
    const double all = world_->rendezvous_max(*group_, rs_->wall);
    const double idle = all - rs_->wall;
    rs_->wall = all + cost;
    rs_->cpu += (idle + cost) * world_->net_.cpu_poll_fraction;
    return rs_->wall;
}

void Comm::alltoall(std::span<const double> send, std::span<double> recv, std::size_t block) {
    require("alltoall");
    detail::GroupState& g = *group_;
    const std::size_t p = static_cast<std::size_t>(gsize_);
    if (send.size() != p * block || recv.size() != p * block)
        throw std::runtime_error("simmpi: alltoall size mismatch");
    const std::size_t bytes = block * sizeof(double);
    record(CommKind::Alltoall, bytes);
    const std::uint32_t span = trace_begin("alltoall", CommKind::Alltoall, bytes);

    // Stage the data: group rank r owns rows [r*p*block, (r+1)*p*block).
    {
        std::lock_guard lk(g.exch_mtx);
        if (g.exchange.size() < p * p * block) g.exchange.resize(p * p * block);
    }
    world_->rendezvous_max(g, rs_->wall); // everyone sized before anyone writes
    std::copy(send.begin(), send.end(),
              g.exchange.begin() +
                  static_cast<std::ptrdiff_t>(static_cast<std::size_t>(grank_) * p * block));
    world_->rendezvous_max(g, rs_->wall); // writes complete before reads
    for (std::size_t j = 0; j < p; ++j) {
        const double* srcp = g.exchange.data() + (j * p + static_cast<std::size_t>(grank_)) * block;
        std::copy(srcp, srcp + block, recv.begin() + static_cast<std::ptrdiff_t>(j * block));
    }
    sync_and_charge(
        world_->net_.alltoall_seconds(gsize_, bytes, static_cast<int>(g.siblings)));
    trace_end(span);
}

void Comm::allreduce_sum(std::span<double> data) {
    require("allreduce_sum");
    detail::GroupState& g = *group_;
    const std::size_t n = data.size();
    const std::size_t p = static_cast<std::size_t>(gsize_);
    record(CommKind::Allreduce, n * sizeof(double));
    const std::uint32_t span = trace_begin("allreduce", CommKind::Allreduce, n * sizeof(double));
    {
        std::lock_guard lk(g.exch_mtx);
        if (g.exchange.size() < p * n) g.exchange.resize(p * n);
    }
    world_->rendezvous_max(g, rs_->wall);
    std::copy(data.begin(), data.end(),
              g.exchange.begin() + static_cast<std::ptrdiff_t>(static_cast<std::size_t>(grank_) * n));
    world_->rendezvous_max(g, rs_->wall);
    for (std::size_t i = 0; i < n; ++i) {
        double s = 0.0;
        for (std::size_t r = 0; r < p; ++r) s += g.exchange[r * n + i];
        data[i] = s;
    }
    sync_and_charge(
        world_->net_.allreduce_seconds(gsize_, n * sizeof(double), static_cast<int>(g.siblings)));
    trace_end(span);
}

double Comm::allreduce_sum(double v) {
    double buf[1] = {v};
    allreduce_sum(std::span<double>(buf, 1));
    return buf[0];
}

double Comm::allreduce_max(double v) {
    require("allreduce_max");
    detail::GroupState& g = *group_;
    const std::size_t p = static_cast<std::size_t>(gsize_);
    record(CommKind::Allreduce, sizeof(double));
    const std::uint32_t span = trace_begin("allreduce", CommKind::Allreduce, sizeof(double));
    {
        std::lock_guard lk(g.exch_mtx);
        if (g.exchange.size() < p) g.exchange.resize(p);
    }
    world_->rendezvous_max(g, rs_->wall);
    g.exchange[static_cast<std::size_t>(grank_)] = v;
    world_->rendezvous_max(g, rs_->wall);
    double m = g.exchange[0];
    for (std::size_t r = 1; r < p; ++r) m = std::max(m, g.exchange[r]);
    sync_and_charge(
        world_->net_.allreduce_seconds(gsize_, sizeof(double), static_cast<int>(g.siblings)));
    trace_end(span);
    return m;
}

double Comm::allreduce_min(double v) { return -allreduce_max(-v); }

void Comm::gather(std::span<const double> send, std::vector<double>& recv, int root) {
    require("gather");
    detail::GroupState& g = *group_;
    const std::size_t n = send.size();
    const std::size_t p = static_cast<std::size_t>(gsize_);
    record(CommKind::Gather, n * sizeof(double));
    const std::uint32_t span = trace_begin("gather", CommKind::Gather, n * sizeof(double));
    {
        std::lock_guard lk(g.exch_mtx);
        if (g.exchange.size() < p * n) g.exchange.resize(p * n);
    }
    world_->rendezvous_max(g, rs_->wall);
    std::copy(send.begin(), send.end(),
              g.exchange.begin() + static_cast<std::ptrdiff_t>(static_cast<std::size_t>(grank_) * n));
    world_->rendezvous_max(g, rs_->wall);
    if (grank_ == root) {
        recv.assign(g.exchange.begin(),
                    g.exchange.begin() + static_cast<std::ptrdiff_t>(p * n));
    }
    sync_and_charge(
        world_->net_.gather_seconds(gsize_, n * sizeof(double), static_cast<int>(g.siblings)));
    trace_end(span);
}

void Comm::bcast(std::span<double> data, int root) {
    require("bcast");
    detail::GroupState& g = *group_;
    const std::size_t n = data.size();
    record(CommKind::Bcast, n * sizeof(double));
    const std::uint32_t span = trace_begin("bcast", CommKind::Bcast, n * sizeof(double));
    {
        std::lock_guard lk(g.exch_mtx);
        if (g.exchange.size() < n) g.exchange.resize(n);
    }
    world_->rendezvous_max(g, rs_->wall);
    if (grank_ == root)
        std::copy(data.begin(), data.end(), g.exchange.begin());
    world_->rendezvous_max(g, rs_->wall);
    if (grank_ != root)
        std::copy(g.exchange.begin(),
                  g.exchange.begin() + static_cast<std::ptrdiff_t>(n), data.begin());
    sync_and_charge(
        world_->net_.gather_seconds(gsize_, n * sizeof(double), static_cast<int>(g.siblings)));
    trace_end(span);
}

void Comm::barrier() {
    require("barrier");
    record(CommKind::Barrier, 0);
    const std::uint32_t span = trace_begin("barrier", CommKind::Barrier, 0);
    sync_and_charge(
        world_->net_.barrier_seconds(gsize_, static_cast<int>(group_->siblings)));
    trace_end(span);
}

// ---------------------------------------------------------------------------
// World
// ---------------------------------------------------------------------------

World::World(int nprocs, netsim::NetworkModel net)
    : nprocs_(nprocs),
      net_(std::move(net)),
      mailboxes_(static_cast<std::size_t>(nprocs)),
      world_group_(std::make_shared<detail::GroupState>()) {
    if (nprocs < 1) throw std::invalid_argument("simmpi: need at least one rank");
    world_group_->ctx = 0;
    world_group_->members.resize(static_cast<std::size_t>(nprocs));
    std::iota(world_group_->members.begin(), world_group_->members.end(), 0);
}

void World::deliver(int dest, Message msg) {
    Mailbox& box = mailboxes_[static_cast<std::size_t>(dest)];
    std::lock_guard lk(box.mtx);
    const MatchKey key{msg.src, msg.ctx, msg.tag};
    box.queues[key].push_back(std::move(msg));
    // The receiver parked on its mailbox: hand it back to its home worker.
    // (Lock order box.mtx -> scheduler mutex matches park().)
    if (box.waiting_task >= 0) sched_->unpark(box.waiting_task);
}

void World::abort_world() {
    aborted_.store(true);
    sched_->unpark_all();
}

World::Message World::take(int self, int src, std::uint64_t ctx, int tag) {
    Mailbox& box = mailboxes_[static_cast<std::size_t>(self)];
    std::unique_lock lk(box.mtx);
    const MatchKey key{src, ctx, tag};
    for (;;) {
        const auto it = box.queues.find(key);
        if (it != box.queues.end()) {
            Message msg = std::move(it->second.front());
            it->second.pop_front();
            if (it->second.empty()) box.queues.erase(it);
            return msg;
        }
        if (aborted_.load()) throw Aborted{};
        // Park this rank's fiber until a delivery (or an abort) wakes it.
        // A missing send is caught by the scheduler's exact quiescence
        // detection, not a timeout.
        box.waiting_task = detail::TaskScheduler::current_task();
        sched_->park(lk);
        box.waiting_task = -1;
    }
}

double World::rendezvous_max(detail::GroupState& g, double wall) {
    const int n = static_cast<int>(g.members.size());
    if (n <= 1) return wall;
    std::unique_lock lk(g.mtx);
    const std::uint64_t gen = g.generation;
    g.max_wall = std::max(g.max_wall, wall);
    if (++g.waiting == n) {
        g.waiting = 0;
        ++g.generation;
        // max_wall becomes this generation's result; snapshot and clear here
        // so the next generation starts from a clean slot.
        const double result = g.max_wall;
        g.max_wall = 0.0;
        g.result = result;
        for (const int t : g.parked) sched_->unpark(t);
        g.parked.clear();
        return result;
    }
    while (g.generation == gen) {
        if (aborted_.load()) throw Aborted{};
        g.parked.push_back(detail::TaskScheduler::current_task());
        sched_->park(lk);
    }
    return g.result;
}

std::shared_ptr<detail::GroupState> World::intern_group(std::uint64_t ctx,
                                                        std::vector<int> members,
                                                        std::uint32_t siblings) {
    std::lock_guard lk(groups_mtx_);
    auto& slot = groups_[ctx];
    if (!slot) {
        slot = std::make_shared<detail::GroupState>();
        slot->ctx = ctx;
        slot->members = std::move(members);
        slot->siblings = siblings;
    } else if (slot->members != members || slot->siblings != siblings) {
        // Two distinct groups hashing to one context would cross-match
        // messages silently; fail loudly instead (astronomically unlikely).
        throw std::logic_error("simmpi: split() communicator context collision");
    }
    return slot;
}

std::vector<RankReport> World::run(const std::function<void(Comm&)>& fn) {
    if (nprocs_ > max_tasks_)
        throw OversubscriptionError(
            "simmpi: " + std::to_string(nprocs_) +
            " ranks exceed the task scheduler's configured limit of " +
            std::to_string(max_tasks_) +
            " tasks; raise it with World::set_max_tasks() or shrink the world");

    std::vector<detail::RankState> states(static_cast<std::size_t>(nprocs_));
    std::vector<RankReport> reports(static_cast<std::size_t>(nprocs_));
    std::mutex err_mtx;
    std::exception_ptr first_error;
    std::exception_ptr kill_error;
    bool deadlocked = false;

    const auto body = [&](int r) {
        Comm comm(*this, &states[static_cast<std::size_t>(r)], world_group_, r, r, /*ctx=*/0);
        try {
            fn(comm);
            comm.check_no_pending();
        } catch (const Aborted&) {
            // Woken by another rank's failure; unwind quietly.
        } catch (const RankKilledError&) {
            // A fault-model node death.  Keep it separate from the generic
            // first_error slot: whatever else fails in the same run, the kill
            // is what run() must surface to a recovery harness.
            {
                std::lock_guard lk(err_mtx);
                if (!kill_error) kill_error = std::current_exception();
            }
            abort_world();
        } catch (...) {
            {
                std::lock_guard lk(err_mtx);
                if (!first_error) first_error = std::current_exception();
            }
            // Release every rank still blocked in take()/rendezvous so
            // run() can finish and rethrow instead of hanging.
            abort_world();
        }
        RankReport& rep = reports[static_cast<std::size_t>(r)];
        rep.rank = r;
        rep.cpu_seconds = comm.cpu_time();
        rep.wall_seconds = comm.wall_time();
        rep.log = comm.log();
        rep.fault_log = comm.fault_log();
        rep.overlap_log = comm.overlap_log();
    };

    // Fiber stacks are MAP_NORESERVE, so mostly-idle ranks stay cheap.
    constexpr std::size_t kTaskStackBytes = std::size_t{2} << 20;
    detail::TaskScheduler sched(nprocs_, kTaskStackBytes);
    sched.set_stall_handler([&] {
        // Exact quiescence: no rank runnable, some still parked.  Flag it
        // and abort; the scheduler then wakes every parked rank so it
        // observes the abort and unwinds.
        {
            std::lock_guard lk(err_mtx);
            deadlocked = true;
        }
        abort_world();
    });
    sched_ = &sched;
    try {
        sched.run(body);
    } catch (...) {
        sched_ = nullptr;
        throw;
    }
    sched_ = nullptr;

    if (kill_error || first_error || deadlocked) {
        // Scrub the half-finished run so the world is reusable: drop stale
        // messages and rewind the rendezvous (deserters left `waiting` high).
        // A recovery harness relies on this to roll back and replay on the
        // same World after a kill.
        aborted_.store(false);
        for (auto& box : mailboxes_) {
            box.queues.clear();
            box.waiting_task = -1;
        }
        const auto scrub = [](detail::GroupState& g) {
            g.waiting = 0;
            g.max_wall = 0.0;
            g.parked.clear();
        };
        scrub(*world_group_);
        {
            std::lock_guard lk(groups_mtx_);
            for (auto& [ctx, g] : groups_) {
                (void)ctx;
                scrub(*g);
            }
            groups_.clear();
        }
        if (kill_error) std::rethrow_exception(kill_error);
        if (first_error) std::rethrow_exception(first_error);
        throw DeadlockError(
            "simmpi: deadlock detected — no rank is runnable and at least one is still blocked "
            "(missing send, wrong tag, or a collective some rank never entered)");
    }
    // Split-derived groups do not outlive the run: a recovery replay
    // re-derives them (same contexts) from scratch.
    {
        std::lock_guard lk(groups_mtx_);
        groups_.clear();
    }
    return reports;
}

} // namespace simmpi
