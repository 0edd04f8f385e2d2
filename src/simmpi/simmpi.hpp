#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "netsim/netmodel.hpp"
#include "obs/trace.hpp"

/// \file simmpi.hpp
/// A simulated MPI: the message-passing runtime the parallel solvers run on.
///
/// Ranks are run-to-completion fiber tasks multiplexed over the deterministic
/// host thread pool, so thousands of simulated ranks cost fiber stacks, not
/// OS threads (see scheduler.hpp).  Point-to-point messages
/// really move through per-rank mailboxes (wrong tags or mismatched sizes
/// fail loudly, and a missing send is a detected deadlock — the semantics
/// are honest), while a virtual clock per rank models what the transfer
/// would have cost on a chosen 1999-era interconnect (see netsim).  Each
/// rank tracks
///
///   * cpu time  — compute charged by the application via advance_compute(),
///   * wall time — cpu time plus communication and idle time,
///
/// mirroring the paper's methodology: "The difference between the two types
/// of timings indicates idle CPU time, which is associated with network
/// inefficiency" (§4.2).
///
/// Collectives (alltoall, allreduce, gather, bcast, barrier) are built over
/// a shared exchange area with real data movement and are charged from the
/// network model's collective costs.  Comm::split(color, key) derives
/// subcommunicators (the row/column communicators of a 2-D pencil
/// decomposition); every communication event records the communicator size
/// and how many sibling communicators ran it concurrently, so a log can be
/// re-priced on topologies where concurrent groups share the wire.
///
/// If the network model carries an enabled netsim::FaultModel, every
/// communication cost is perturbed deterministically (seed, rank, per-rank
/// message index): jitter and retransmits land on the virtual clocks exactly
/// like honest slow hardware would, stragglers inflate their own comm costs
/// so their peers accumulate idle time at the next synchronisation, and the
/// per-stage FaultLog records the retransmit counts and the fault-attributed
/// extra seconds.  Faults never touch payloads — only time.
///
/// Nonblocking point-to-point (isend/irecv returning a Request, plus
/// wait/waitall and the chunked ialltoall) keeps the same honest
/// semantics: the transfer cost accrues in the background from the moment
/// the send is posted (consecutive posts queue behind one another on the
/// sender's NIC), and only the part of that window not covered by the
/// receiver's own work surfaces as idle time at wait().  The covered part is
/// recorded per stage in the OverlapLog — the "overlapped comm" column of
/// the application tables — and overlapped events carry a flag in the
/// CommLog so a run can be re-priced per network with and without the
/// overlap credit.  Faulted costs accrue in the background the same way.
namespace simmpi {

/// Communication operation categories for the event log.
enum class CommKind : std::uint8_t { Ptp, Alltoall, Allreduce, Gather, Bcast, Barrier, Split };

[[nodiscard]] std::string to_string(CommKind k);

/// Aggregation key: one collective/ptp call of a given per-message size.
struct CommEventKey {
    CommKind kind;
    std::size_t bytes;  ///< ptp: message size; collectives: per-rank block size
    /// Issued through the nonblocking API: the cost accrued in the
    /// background and could be hidden under computation.
    bool overlapped = false;
    /// Communicator size the event ran on; 0 = the world communicator
    /// (priced with the nprocs the pricing call supplies, which is what lets
    /// one world log be re-priced across rank counts).
    std::uint32_t group = 0;
    /// Sibling communicators from the same split() executing the collective
    /// concurrently; shared-medium topologies serialize them on the wire.
    std::uint32_t groups = 1;
    auto operator<=>(const CommEventKey&) const = default;
};

/// stage id -> (event key -> number of occurrences).  Stage -1 collects
/// everything issued outside an explicit stage.
using CommLog = std::map<int, std::map<CommEventKey, std::uint64_t>>;

/// stage id -> virtual comm seconds the nonblocking path hid under other
/// work (the part of each in-flight window that did not surface as idle).
using OverlapLog = std::map<int, double>;

/// A price split into the strictly blocking part and the part issued
/// through the nonblocking API (the latter is what overlap can recover).
struct SplitSeconds {
    double blocking = 0.0;
    double overlapped = 0.0;
    [[nodiscard]] double total() const noexcept { return blocking + overlapped; }
};

/// A comm log priced on one network.
struct CommPrice {
    /// stage id -> that stage's events (same stage keys as the CommLog).
    std::map<int, SplitSeconds> stages;
    /// Every event of the log, summed once over the merged (event key ->
    /// count) multiset, so the total does not depend on the stage tags.
    SplitSeconds total;
    /// One stage's split; zero for a stage with no events.
    [[nodiscard]] SplitSeconds stage(int s) const {
        const auto it = stages.find(s);
        return it != stages.end() ? it->second : SplitSeconds{};
    }
};

/// Prices a log on a given network for a run with `nprocs` ranks.
[[nodiscard]] CommPrice price(const CommLog& log, const netsim::NetworkModel& net, int nprocs);

/// Fault accounting for one stage: how many transmissions were lost and how
/// much virtual time the fault model added on top of the unfaulted costs.
struct FaultStageStats {
    std::uint64_t retransmits = 0;
    double extra_seconds = 0.0;
    FaultStageStats& operator+=(const FaultStageStats& o) {
        retransmits += o.retransmits;
        extra_seconds += o.extra_seconds;
        return *this;
    }
};

/// stage id -> fault accounting (same stage keys as CommLog).
using FaultLog = std::map<int, FaultStageStats>;

/// Thrown by World::run when a rank waits on a comm event that can never
/// arrive: a missing send, a mismatched tag, or a collective some rank never
/// enters.  It is detected exactly, not by a timeout: no rank is runnable and
/// some are still parked.  Without it these bugs would hang the harness.
class DeadlockError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Thrown by World::run (before any rank starts) when the requested rank
/// count exceeds the scheduler's configured task limit — a clear
/// diagnostic instead of an OOM or a scheduler hang.
class OversubscriptionError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Thrown inside a rank when the fault model's kill event fires: the "node"
/// dies at a deterministic position of its comm-event stream.  World::run
/// rethrows it in preference over any other rank's error and over a detected
/// deadlock, so a recovery harness can catch one exception type, roll back to
/// the last checkpoint and replay.
class RankKilledError : public std::runtime_error {
public:
    RankKilledError(int rank, std::uint64_t msg_index, double wall_seconds)
        : std::runtime_error("simmpi: rank " + std::to_string(rank) +
                             " killed by the fault model at comm event " +
                             std::to_string(msg_index) + " (virtual wall " +
                             std::to_string(wall_seconds) + " s)"),
          rank_(rank),
          msg_index_(msg_index),
          wall_seconds_(wall_seconds) {}

    [[nodiscard]] int rank() const noexcept { return rank_; }
    [[nodiscard]] std::uint64_t msg_index() const noexcept { return msg_index_; }
    /// The killed rank's virtual wall clock at the moment of death — the
    /// upper end of the recovery window a checkpoint rolls back from.
    [[nodiscard]] double wall_seconds() const noexcept { return wall_seconds_; }

private:
    int rank_;
    std::uint64_t msg_index_;
    double wall_seconds_;
};

struct RankReport {
    int rank = 0;
    double cpu_seconds = 0.0;
    double wall_seconds = 0.0;
    CommLog log;
    FaultLog fault_log;
    OverlapLog overlap_log;
};

class World;
class Comm;

namespace detail {

class TaskScheduler;

/// An in-flight point-to-point payload with its virtual-time price tag.
struct Message {
    int src;           ///< sender's rank *within the communicator* `ctx`
    std::uint64_t ctx; ///< communicator context the message travels in
    int tag;
    std::vector<double> payload;
    double avail_time; ///< virtual time at which the payload is deliverable
    double cost = 0.0; ///< transfer seconds that accrued in the background
};

/// Everything a world rank owns exactly once, shared by every Comm view
/// (world communicator and split() subcommunicators) that rank holds: the
/// virtual clocks, the NIC horizon, the deterministic fault-stream position,
/// and the per-stage logs.
struct RankState {
    int stage = -1;
    double cpu = 0.0;
    double wall = 0.0;
    double nic_busy = 0.0; ///< virtual time the NIC finishes its posted queue
    int pending_recvs = 0;
    std::uint64_t msg_index = 0; ///< per-rank deterministic fault stream position
    CommLog log;
    FaultLog fault_log;
    OverlapLog overlap_log;
    obs::Lane* trace_lane = nullptr; ///< this rank's obs lane, resolved lazily
};

/// The shared half of one communicator: the member list, the rendezvous the
/// members synchronise on, and the collective staging area.  The world
/// communicator has ctx 0; split() interns one GroupState per derived
/// context in the World registry (first arriver creates it).
struct GroupState {
    std::uint64_t ctx = 0;
    std::vector<int> members; ///< world rank of each group rank, in group order
    std::uint32_t siblings = 1; ///< concurrent communicators from the same split

    /// Reusable sense-reversing rendezvous with a max-reduction slot.
    std::mutex mtx;
    int waiting = 0;
    std::uint64_t generation = 0;
    double max_wall = 0.0;
    double result = 0.0; ///< snapshot of max_wall for the completed generation
    std::vector<int> parked; ///< task ids parked in this rendezvous

    std::mutex exch_mtx;
    std::vector<double> exchange; ///< collective staging area
};

} // namespace detail

/// Handle for one nonblocking operation (isend/irecv).  Move-only: a Request
/// represents exactly one pending completion, and wait() consumes it.
class Request {
public:
    Request() = default;
    Request(const Request&) = delete;
    Request& operator=(const Request&) = delete;
    Request(Request&& o) noexcept { *this = std::move(o); }
    Request& operator=(Request&& o) noexcept {
        kind_ = o.kind_;
        done_ = o.done_;
        peer_ = o.peer_;
        tag_ = o.tag_;
        buf_ = o.buf_;
        post_wall_ = o.post_wall_;
        o.kind_ = Kind::None;
        o.done_ = false;
        return *this;
    }

    [[nodiscard]] bool valid() const noexcept { return kind_ != Kind::None; }
    [[nodiscard]] bool done() const noexcept { return done_; }

private:
    friend class Comm;
    enum class Kind : std::uint8_t { None, Send, Recv };
    Kind kind_ = Kind::None;
    bool done_ = false;
    int peer_ = -1; ///< peer rank within the issuing communicator
    int tag_ = 0;
    std::span<double> buf_{};
    double post_wall_ = 0.0; ///< wall clock when the receive was posted
};

/// A chunked nonblocking alltoall in flight (see Comm::ialltoall).  The
/// per-peer block is divided into `num_slices()` contiguous sub-blocks
/// (multiples of the construction-time granule); slices must be sent and
/// waited in ascending order, but sends, waits, and the caller's computation
/// interleave freely — that interleaving is the communication/computation
/// overlap the pipelined exchanges are built on.
class Ialltoall {
public:
    Ialltoall() = default;

    [[nodiscard]] std::size_t num_slices() const noexcept { return nslices_; }
    /// Offset/length of slice `s` within each per-peer block, in doubles.
    [[nodiscard]] std::size_t slice_offset(std::size_t s) const noexcept;
    [[nodiscard]] std::size_t slice_len(std::size_t s) const noexcept;

    /// Ships slice `s` of every peer's block out of `send` (same size/layout
    /// as the recv buffer: size() blocks of `block` doubles).  The self
    /// block's slice is copied straight into the recv buffer.
    void send_slice(std::size_t s, std::span<const double> send);
    /// Blocks until slice `s` has arrived from every peer; the payload lands
    /// in the recv buffer given at ialltoall().
    void wait_slice(std::size_t s);
    /// Waits for every slice not yet waited on.
    void finish();

private:
    friend class Comm;
    Comm* comm_ = nullptr;
    std::span<double> recv_{};
    std::size_t block_ = 0;
    std::size_t granule_ = 1;
    std::size_t nslices_ = 0;
    int tag_ = 0;
    std::vector<Request> recvs_; ///< slice-major, size() entries per slice (self unused)
    std::size_t next_send_ = 0;
    std::size_t next_wait_ = 0;
};

/// A rank's view of one communicator, valid for the duration of World::run.
/// The world communicator is handed to the rank function; split() derives
/// subcommunicator views sharing the same per-rank clocks and logs.
/// Move-only: a Comm is one rank's membership, not a value.
class Comm {
public:
    Comm() = default; ///< null communicator until move-assigned
    Comm(const Comm&) = delete;
    Comm& operator=(const Comm&) = delete;
    Comm(Comm&&) noexcept = default;
    Comm& operator=(Comm&&) noexcept = default;

    /// Rank within this communicator (-1 on a null communicator).
    [[nodiscard]] int rank() const noexcept { return grank_; }
    /// Number of ranks in this communicator (0 on a null communicator).
    [[nodiscard]] int size() const noexcept { return gsize_; }
    /// This rank's id in the world communicator (stable across splits).
    [[nodiscard]] int world_rank() const noexcept { return wrank_; }
    /// True for a default-constructed Comm and for the color < 0 result of
    /// split(); every communication call on a null communicator throws.
    [[nodiscard]] bool is_null() const noexcept { return group_ == nullptr; }

    /// MPI_Comm_split: collective over this communicator.  Ranks passing the
    /// same color >= 0 form a new communicator, ordered by (key, rank);
    /// color < 0 yields a null Comm.  The derived context is a deterministic
    /// function of (parent context, split sequence number, color), so
    /// recovery replays rebuild identical communicators.  Charged as a small
    /// allgather; logged as CommKind::Split.
    [[nodiscard]] Comm split(int color, int key);

    /// Charges `seconds` of computation to both clocks.
    void advance_compute(double seconds) noexcept;

    /// Tags subsequent comm events with `stage` (paper stages 1-7; -1 none).
    void set_stage(int stage) noexcept { rs_->stage = stage; }

    /// Blocking tagged send/recv of doubles.  recv's span length must equal
    /// the sent length (checked).  Ranks are communicator-relative.
    void send(int dest, int tag, std::span<const double> data);
    void recv(int src, int tag, std::span<double> data);

    /// Combined exchange with a partner (both sides call it); avoids the
    /// deadlock a naive send+recv ordering would have on a synchronous model.
    void sendrecv(int partner, int tag, std::span<const double> send_data,
                  std::span<double> recv_data);

    /// Nonblocking send: the payload is buffered immediately (the request
    /// completes at once), but the transfer cost accrues in the background —
    /// consecutive posts queue behind one another on this rank's NIC, so a
    /// burst of isends to P-1 peers costs what P-1 serialized transfers
    /// cost, only hideable under whatever the rank computes meanwhile.
    Request isend(int dest, int tag, std::span<const double> data);

    /// Posts a receive; `data` must stay valid until wait() completes
    /// the request.  Posting is free — matching, payload delivery, idle
    /// charging, and overlap accounting all happen at completion.
    Request irecv(int src, int tag, std::span<double> data);

    /// Completes a request.  For a receive this blocks until the matching
    /// message exists, then advances the wall clock only by the *uncovered*
    /// remainder of the transfer window: the part already covered by work
    /// done since the post is credited to the stage's OverlapLog instead of
    /// becoming idle time.
    void wait(Request& r);
    void waitall(std::span<Request> rs);

    /// MPI_Alltoall: `send` and `recv` hold size() blocks of `block` doubles.
    void alltoall(std::span<const double> send, std::span<double> recv, std::size_t block);

    /// Chunked nonblocking alltoall.  Posts receives for every (peer, slice)
    /// sub-block up front; the caller ships slices with send_slice() and
    /// claims them with wait_slice(), computing in between.  Each per-peer
    /// message is priced as its share of the equivalent blocking collective
    /// (netsim::NetworkModel::alltoall_share_seconds), so the background
    /// total matches what alltoall() would have charged — the overlap
    /// changes who pays, not how much the network works.  Blocks must divide
    /// into `granule`-sized units; slices are near-equal runs of units.
    /// Logged as one overlapped Alltoall event.
    Ialltoall ialltoall(std::span<double> recv, std::size_t block, std::size_t nslices = 1,
                        std::size_t granule = 1);

    /// MPI_Allreduce(SUM) in place.
    void allreduce_sum(std::span<double> data);
    [[nodiscard]] double allreduce_sum(double v);
    [[nodiscard]] double allreduce_max(double v);
    [[nodiscard]] double allreduce_min(double v);

    /// MPI_Gather of equal blocks to `root`; recv is resized at the root.
    void gather(std::span<const double> send, std::vector<double>& recv, int root);

    /// MPI_Bcast from `root`.
    void bcast(std::span<double> data, int root);

    void barrier();

    [[nodiscard]] double cpu_time() const noexcept { return rs_->cpu; }
    [[nodiscard]] double wall_time() const noexcept { return rs_->wall; }
    [[nodiscard]] double idle_time() const noexcept { return rs_->wall - rs_->cpu; }
    [[nodiscard]] const CommLog& log() const noexcept { return rs_->log; }
    [[nodiscard]] const FaultLog& fault_log() const noexcept { return rs_->fault_log; }
    [[nodiscard]] const OverlapLog& overlap_log() const noexcept { return rs_->overlap_log; }
    /// Empties this rank's comm, fault and overlap logs, so they cover only
    /// what follows: a solver calls it where it opens a measured window
    /// (after the bootstrap step).  Nothing that drives the virtual time is
    /// touched — the clocks, the NIC horizon, the fault-stream position and
    /// the collective and split sequences run on, so every later cost and
    /// fault draw is bit-identical to a run that never cleared.
    void clear_logs() noexcept {
        rs_->log.clear();
        rs_->fault_log.clear();
        rs_->overlap_log.clear();
    }
    /// Receives posted but not yet completed (across every communicator this
    /// rank holds); a rank finishing with pending requests is a bug
    /// World::run reports.
    [[nodiscard]] int pending_requests() const noexcept { return rs_->pending_recvs; }

    /// This rank's comm-event counter (the deterministic fault/RNG stream
    /// position).  Tests use it to place a kill event at an exact step.
    [[nodiscard]] std::uint64_t comm_events() const noexcept { return rs_->msg_index; }

    /// Serializes this rank's full virtual state — both clocks, the NIC
    /// queue horizon, the fault-stream position (the "RNG stream"), the
    /// collective tag and split sequences, and the comm/fault/overlap logs —
    /// into a checkpoint section.  World communicator only; requires no
    /// pending nonblocking receives (a checkpoint mid-exchange is a caller
    /// bug, reported loudly).
    void save_state(ckpt::SectionWriter& w) const;
    /// Restores the state written by save_state; with every rank restored
    /// from the same checkpoint step, a replay is bit-identical to the
    /// original run — clocks, logs and fault draws included.
    void restore_state(ckpt::SectionReader& r);

private:
    friend class World;
    friend class Ialltoall;
    Comm(World& world, detail::RankState* rs, std::shared_ptr<detail::GroupState> group,
         int grank, int wrank, std::uint64_t ctx)
        : world_(&world),
          rs_(rs),
          group_(std::move(group)),
          grank_(grank),
          gsize_(group_ ? static_cast<int>(group_->members.size()) : 0),
          wrank_(wrank),
          ctx_(ctx) {}

    /// Throws on a null communicator (every comm entry point calls this).
    void require(const char* what) const {
        if (group_ == nullptr)
            throw std::logic_error(std::string("simmpi: ") + what + " on a null communicator");
    }

    void record(CommKind kind, std::size_t bytes, bool overlapped = false) {
        ++rs_->log[rs_->stage][{kind, bytes, overlapped,
                                ctx_ == 0 ? 0u : static_cast<std::uint32_t>(gsize_),
                                group_->siblings}];
    }
    /// Applies the fault model to one comm event of unfaulted cost
    /// `base_seconds`, consuming this rank's next message index; records the
    /// perturbation in the fault log and returns the faulted cost.  With no
    /// enabled fault model this returns `base_seconds` bit-exactly.
    double faulted_cost(double base_seconds);
    /// Synchronises this communicator's ranks, sets every wall clock to the
    /// max, then adds `coll_seconds` (fault-perturbed per rank); returns the
    /// post-collective wall time.
    double sync_and_charge(double coll_seconds);

    /// Queues a background transfer of unfaulted cost `base_cost` on this
    /// rank's NIC (posts serialize); fills the message's avail/cost fields
    /// and charges the sender-side injection overhead.
    void post_background(int dest, int tag, std::span<const double> data, double base_cost);
    /// Completion accounting for wait(): delivers the payload,
    /// charges the uncovered remainder as idle, credits the covered part to
    /// the overlap log.
    void absorb(Request& r, detail::Message&& msg);
    /// Called by World::run after the rank function returns cleanly.
    void check_no_pending() const;

    // --- obs tracing (one relaxed atomic load while the tracer is
    //     disabled) ---
    /// Opens a span named `name` on this rank's lane ("rank N" by world
    /// rank, created on first use) at the current virtual wall clock, tagged
    /// with a kind/bytes/overlapped argument fragment.  Returns the interned
    /// name id, or 0 when tracing is inactive (trace_end(0) is a no-op).
    std::uint32_t trace_begin(const char* name, CommKind kind, std::size_t bytes,
                              bool overlapped = false);
    /// Closes the span opened by the matching trace_begin at the current
    /// virtual wall clock.
    void trace_end(std::uint32_t name_id);
    /// Marks a zero-duration event (nonblocking posts).
    void trace_instant(const char* name, CommKind kind, std::size_t bytes, bool overlapped);
    /// Samples a per-rank counter track (fault extra seconds, overlap credit).
    void trace_counter(const char* name, double value);

    World* world_ = nullptr;
    detail::RankState* rs_ = nullptr;
    std::shared_ptr<detail::GroupState> group_;
    int grank_ = -1;
    int gsize_ = 0;
    int wrank_ = -1;
    std::uint64_t ctx_ = 0;
    int coll_seq_ = 0;  ///< nonblocking-collective sequence number (tag space)
    int split_seq_ = 0; ///< split() calls issued through this communicator
};

/// A simulated cluster: N ranks over one interconnect model.
class World {
public:
    World(int nprocs, netsim::NetworkModel net);

    /// Runs `fn(comm)` on every rank, each a fiber task of the scheduler,
    /// and returns the per-rank reports.  Any exception thrown by a
    /// rank is rethrown here; the remaining ranks are woken and unwound
    /// instead of blocking forever.
    std::vector<RankReport> run(const std::function<void(Comm&)>& fn);

    [[nodiscard]] int size() const noexcept { return nprocs_; }
    [[nodiscard]] const netsim::NetworkModel& network() const noexcept { return net_; }

    /// Rank ceiling (default 8192).  run() refuses more ranks with
    /// OversubscriptionError instead of silently exhausting memory.
    void set_max_tasks(int n) noexcept { max_tasks_ = n; }
    [[nodiscard]] int max_tasks() const noexcept { return max_tasks_; }

    /// Clears an armed fault-model kill event: the failed node has been
    /// "replaced by a spare" ahead of a recovery replay.  The fault model's
    /// cost perturbations are untouched — they are a pure function of
    /// (seed, rank, msg_index), so the replay re-draws them bit-identically.
    void disarm_kill() noexcept { net_.fault.kill_rank = -1; }

private:
    friend class Comm;
    friend class Ialltoall;

    using Message = detail::Message;

    /// What a receive matches on: sender, communicator context and tag.
    struct MatchKey {
        int src;
        std::uint64_t ctx;
        int tag;
        bool operator==(const MatchKey&) const = default;
    };
    struct MatchKeyHash {
        std::size_t operator()(const MatchKey& k) const noexcept {
            std::uint64_t h = k.ctx * 0x9e3779b97f4a7c15ull;
            h ^= (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.src)) << 32) |
                 static_cast<std::uint32_t>(k.tag);
            return static_cast<std::size_t>(h ^ (h >> 29));
        }
    };

    /// One FIFO per match key: matching is exact, so taking the front of a
    /// key's queue is MPI's non-overtaking order, found in O(1).  A key is
    /// erased when its queue empties (collective tags are one-shot).
    struct Mailbox {
        std::mutex mtx;
        std::unordered_map<MatchKey, std::deque<Message>, MatchKeyHash> queues;
        int waiting_task = -1; ///< task parked on this mailbox
    };

    /// Internal unwind signal for ranks woken by an abort; never escapes run().
    struct Aborted {};

    void deliver(int dest, Message msg);
    Message take(int self, int src, std::uint64_t ctx, int tag);
    /// Enters the group's rendezvous with this rank's wall clock; returns
    /// the max over all members.
    double rendezvous_max(detail::GroupState& g, double wall);
    /// Wakes every blocked rank; they unwind with Aborted.
    void abort_world();
    /// Registry lookup/create for a split()-derived group.  The first
    /// arriving member creates the GroupState; late arrivers attach to it.
    /// Cleared after every run() so recovery replays regenerate the same
    /// contexts from scratch.
    std::shared_ptr<detail::GroupState> intern_group(std::uint64_t ctx,
                                                     std::vector<int> members,
                                                     std::uint32_t siblings);

    int nprocs_;
    netsim::NetworkModel net_;
    int max_tasks_ = 8192;
    std::atomic<bool> aborted_{false};
    std::vector<Mailbox> mailboxes_;
    std::shared_ptr<detail::GroupState> world_group_;
    std::mutex groups_mtx_;
    std::map<std::uint64_t, std::shared_ptr<detail::GroupState>> groups_;
    detail::TaskScheduler* sched_ = nullptr; ///< live only inside run()
};

} // namespace simmpi
