#pragma once

#include <cstddef>
#include <functional>
#include <mutex>

/// \file scheduler.hpp
/// Run-to-completion fiber tasks multiplexed over the deterministic host
/// thread pool — the engine that lets simmpi scale past "one OS thread per
/// rank".
///
/// Each task is a ucontext fiber with its own guard-paged stack.  A task
/// runs until it parks (a blocking recv or collective rendezvous with no
/// matching event yet), at which point the worker saves its context and
/// picks up another task; unpark() makes it runnable again.  Two invariants
/// make the multiplexing invisible to the code running on top:
///
///   * Continuation affinity — once a fiber has started on an OS thread it
///     always resumes on that same thread.  The blaslite op counters and
///     the perf StageScope deltas are thread_local; migrating a fiber
///     mid-scope would corrupt the per-rank operation counts the machine
///     models price.
///   * Fiber-local op counters — the blaslite counter struct is swapped on
///     every switch, so a task parked mid-StageScope never sees the ops of
///     the tasks that ran on its worker meanwhile.
///
/// Deadlock detection is exact rather than timeout-based: every wake source
/// is itself a task, so "no task is runnable and at least one is parked"
/// is a proven deadlock.  The scheduler then invokes the stall handler
/// (simmpi::World aborts the world) and wakes every parked task so it can
/// observe the abort and unwind.
namespace simmpi::detail {

class TaskScheduler {
public:
    /// Prepares `ntasks` fibers of `stack_bytes` each (allocated lazily, one
    /// guard page below every stack; MAP_NORESERVE keeps the virtual-memory
    /// footprint of thousands of mostly-idle ranks cheap).
    TaskScheduler(int ntasks, std::size_t stack_bytes);
    ~TaskScheduler();
    TaskScheduler(const TaskScheduler&) = delete;
    TaskScheduler& operator=(const TaskScheduler&) = delete;

    /// Runs `body(task)` for every task to completion, multiplexed over the
    /// parallel::pool() workers (the calling thread is worker 0).  Task t
    /// starts on worker t mod W, W = min(pool size, ntasks), so host timing
    /// does not change how many tasks share a thread; a worker starts
    /// another worker's task only when parallel_for runs both workers'
    /// loops on one thread, the other's after its own (inline, or fewer
    /// threads than workers).  A worker whose thread starts late keeps its
    /// tasks, which count as live for the deadlock test.  `body` must not
    /// let exceptions escape.  Not reentrant: tasks must not start a nested
    /// run() on the same scheduler.
    void run(const std::function<void(int)>& body);

    /// The fiber id of the calling task (-1 outside every task).
    [[nodiscard]] static int current_task() noexcept;

    /// Parks the calling task until unpark().  `lk` (the caller's own
    /// structure lock, NOT held across unrelated work) is released after the
    /// task is registered as parking and re-acquired before park() returns —
    /// condition-variable semantics, so callers keep their predicate loops.
    void park(std::unique_lock<std::mutex>& lk);

    /// Makes a parked task runnable on its home worker.  Parking is
    /// race-free: an unpark that arrives while the task is still switching
    /// out is remembered and honoured immediately.  Callable from any task
    /// or from the workers themselves.
    void unpark(int task);

    /// Wakes every currently-parked task (abort/unwind path).
    void unpark_all();

    /// Invoked (once, on whichever worker detects it) when no task is
    /// runnable but some are still parked — a proven deadlock.  The handler
    /// runs without scheduler locks held; afterwards every parked task is
    /// woken so it can observe whatever the handler flagged and unwind.
    void set_stall_handler(std::function<void()> handler);

    struct Impl; ///< implementation detail, public only for internal linkage

private:
    Impl* impl_;
};

} // namespace simmpi::detail
