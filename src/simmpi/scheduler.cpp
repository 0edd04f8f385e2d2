#include "simmpi/scheduler.hpp"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <new>
#include <stdexcept>
#include <vector>

#include "blaslite/counters.hpp"
#include "parallel/thread_pool.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define SIMMPI_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#define SIMMPI_TSAN 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) && !defined(SIMMPI_ASAN)
#define SIMMPI_ASAN 1
#endif
#if __has_feature(thread_sanitizer) && !defined(SIMMPI_TSAN)
#define SIMMPI_TSAN 1
#endif
#endif

#if defined(SIMMPI_ASAN)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(SIMMPI_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

#ifndef MAP_STACK
#define MAP_STACK 0
#endif

namespace simmpi::detail {

namespace {

struct Fiber {
    enum class State : std::uint8_t { New, Ready, Running, Parking, Parked, Done };
    ucontext_t ctx{};
    std::uint8_t* map = nullptr; ///< mmap base; a PROT_NONE guard page sits first
    std::size_t map_bytes = 0;
    State state = State::New;
    bool wake_pending = false;
    int home = -1; ///< worker this fiber started on; it only ever resumes there
    /// The fiber's private blaslite counter stream, swapped in on every
    /// resume: a task parked mid-StageScope must not see the ops of tasks
    /// that shared its worker meanwhile.
    blaslite::OpCounts counts{};
#if defined(SIMMPI_TSAN)
    void* tsan = nullptr;
#endif
#if defined(SIMMPI_ASAN)
    void* fake_stack = nullptr;
#endif
};

struct Worker {
    ucontext_t ctx{};
    std::deque<int> ready;     ///< resumable fibers homed to this worker
    std::deque<int> unstarted; ///< never-run fibers placed on this worker
#if defined(SIMMPI_TSAN)
    void* tsan = nullptr;
#endif
#if defined(SIMMPI_ASAN)
    void* fake_stack = nullptr;
    const void* stack_bottom = nullptr;
    std::size_t stack_size = 0;
#endif
};

} // namespace

struct TaskScheduler::Impl {
    int ntasks = 0;
    std::size_t stack_bytes = 0;
    std::size_t page = 4096;
    const std::function<void(int)>* body = nullptr;
    std::function<void()> stall;

    std::mutex m;
    std::condition_variable cv;
    std::vector<Fiber> fibers;
    std::vector<Worker> workers;
    int nrunning = 0;
    int nparked = 0;
    int nfinished = 0;
    bool stalled = false;

    void worker_loop(int w, int chunk_end);
    void resume(int w, int f);
    void switch_out(int f, bool dying);
    void finalize_locked(int f);
    void wake_all_parked_locked();
    void prepare_fiber(int f);
    void release_stack(Fiber& fb);
};

namespace {

thread_local TaskScheduler::Impl* tls_impl = nullptr;
thread_local int tls_worker = -1;
thread_local int tls_fiber = -1;

/// Entry point of every fiber (reached through makecontext).  The resume()
/// that first switches here has already set the thread-locals on this
/// worker, and a fiber always resumes on the same OS thread, so they stay
/// valid for the fiber's whole life.
void fiber_main() {
    TaskScheduler::Impl* impl = tls_impl;
    const int f = tls_fiber;
#if defined(SIMMPI_ASAN)
    // First entry: no fake stack to restore; capture the worker's stack
    // bounds so switch_out() can annotate the return switch.
    Worker& wk = impl->workers[static_cast<std::size_t>(tls_worker)];
    __sanitizer_finish_switch_fiber(nullptr, &wk.stack_bottom, &wk.stack_size);
#endif
    (*impl->body)(f); // must not throw (simmpi::World catches everything)
    {
        std::lock_guard lk(impl->m);
        impl->fibers[static_cast<std::size_t>(f)].state = Fiber::State::Done;
    }
    impl->switch_out(f, /*dying=*/true);
    std::abort(); // unreachable: a Done fiber is never resumed
}

} // namespace

void TaskScheduler::Impl::release_stack(Fiber& fb) {
    if (fb.map != nullptr) {
        ::munmap(fb.map, fb.map_bytes);
        fb.map = nullptr;
    }
#if defined(SIMMPI_TSAN)
    if (fb.tsan != nullptr) {
        __tsan_destroy_fiber(fb.tsan);
        fb.tsan = nullptr;
    }
#endif
}

void TaskScheduler::Impl::prepare_fiber(int f) {
    Fiber& fb = fibers[static_cast<std::size_t>(f)];
    const std::size_t usable = (stack_bytes + page - 1) / page * page;
    const std::size_t total = usable + page;
    void* p = ::mmap(nullptr, total, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    ::mprotect(p, page, PROT_NONE); // overflow hits the guard, not another stack
    fb.map = static_cast<std::uint8_t*>(p);
    fb.map_bytes = total;
    if (getcontext(&fb.ctx) != 0) throw std::runtime_error("simmpi: getcontext failed");
    fb.ctx.uc_stack.ss_sp = fb.map + page;
    fb.ctx.uc_stack.ss_size = usable;
    fb.ctx.uc_link = nullptr;
    makecontext(&fb.ctx, fiber_main, 0);
#if defined(SIMMPI_TSAN)
    fb.tsan = __tsan_create_fiber(0);
#endif
}

void TaskScheduler::Impl::resume(int w, int f) {
    Fiber& fb = fibers[static_cast<std::size_t>(f)];
    Worker& wk = workers[static_cast<std::size_t>(w)];
    tls_fiber = f;
    // Swap in the fiber's op-counter stream; the worker's own stream (which
    // the thread pool folds back to its caller) is restored on return.
    blaslite::OpCounts& tl = blaslite::thread_counts();
    const blaslite::OpCounts worker_counts = tl;
    tl = fb.counts;
#if defined(SIMMPI_TSAN)
    __tsan_switch_to_fiber(fb.tsan, 0);
#endif
#if defined(SIMMPI_ASAN)
    __sanitizer_start_switch_fiber(&wk.fake_stack, fb.ctx.uc_stack.ss_sp,
                                   fb.ctx.uc_stack.ss_size);
#endif
    swapcontext(&wk.ctx, &fb.ctx);
    // Back on the worker: the fiber parked or finished.
#if defined(SIMMPI_ASAN)
    __sanitizer_finish_switch_fiber(wk.fake_stack, nullptr, nullptr);
#endif
    fb.counts = tl;
    tl = worker_counts;
    tls_fiber = -1;
}

void TaskScheduler::Impl::switch_out(int f, [[maybe_unused]] bool dying) {
    Fiber& fb = fibers[static_cast<std::size_t>(f)];
    Worker& wk = workers[static_cast<std::size_t>(fb.home)];
#if defined(SIMMPI_TSAN)
    __tsan_switch_to_fiber(wk.tsan, 0);
#endif
#if defined(SIMMPI_ASAN)
    // A dying fiber passes nullptr so ASan frees its fake-stack bookkeeping.
    __sanitizer_start_switch_fiber(dying ? nullptr : &fb.fake_stack, wk.stack_bottom,
                                   wk.stack_size);
#endif
    swapcontext(&fb.ctx, &wk.ctx);
    // Resumed later by resume() on the same worker (never reached if dying).
#if defined(SIMMPI_ASAN)
    __sanitizer_finish_switch_fiber(fb.fake_stack, nullptr, nullptr);
#endif
}

void TaskScheduler::Impl::finalize_locked(int f) {
    Fiber& fb = fibers[static_cast<std::size_t>(f)];
    switch (fb.state) {
        case Fiber::State::Done:
            ++nfinished;
            release_stack(fb);
            cv.notify_all();
            break;
        case Fiber::State::Parking:
            if (fb.wake_pending) {
                // unpark() raced the switch-out: runnable again immediately.
                fb.wake_pending = false;
                fb.state = Fiber::State::Ready;
                workers[static_cast<std::size_t>(fb.home)].ready.push_back(f);
            } else {
                fb.state = Fiber::State::Parked;
                ++nparked;
            }
            // Idle workers re-check their queues and the quiescence test.
            cv.notify_all();
            break;
        default:
            // A fiber only ever returns to its worker parking or done.
            std::abort();
    }
}

void TaskScheduler::Impl::wake_all_parked_locked() {
    for (int f = 0; f < ntasks; ++f) {
        Fiber& fb = fibers[static_cast<std::size_t>(f)];
        if (fb.state == Fiber::State::Parked) {
            fb.state = Fiber::State::Ready;
            --nparked;
            workers[static_cast<std::size_t>(fb.home)].ready.push_back(f);
        } else if (fb.state == Fiber::State::Parking) {
            fb.wake_pending = true;
        }
    }
    cv.notify_all();
}

/// Worker w's loop, run by the thread that runs the parallel_for chunk of
/// workers [.., chunk_end): the workers after w in that chunk enter only
/// once this loop returns, so this thread starts their fibers itself.
void TaskScheduler::Impl::worker_loop(int w, int chunk_end) {
    tls_impl = this;
    tls_worker = w;
    Worker& wk = workers[static_cast<std::size_t>(w)];
#if defined(SIMMPI_TSAN)
    wk.tsan = __tsan_get_current_fiber();
#endif
    std::unique_lock lk(m);
    while (nfinished < ntasks) {
        int f = -1;
        if (!wk.ready.empty()) {
            f = wk.ready.front();
            wk.ready.pop_front();
        } else {
            // Own unstarted fibers first, then those of the later workers
            // in this chunk (parallel_for ran their loops inline after this
            // one).  Another chunk's fibers wait for their own thread, even
            // a late one: placement stays task t on worker t mod W.
            for (int o = w; o < chunk_end && f < 0; ++o) {
                Worker& other = workers[static_cast<std::size_t>(o)];
                if (other.unstarted.empty()) continue;
                f = other.unstarted.front();
                other.unstarted.pop_front();
                fibers[static_cast<std::size_t>(f)].home = w; // affinity fixed here
            }
        }
        if (f >= 0) {
            fibers[static_cast<std::size_t>(f)].state = Fiber::State::Running;
            ++nrunning;
            lk.unlock();
            resume(w, f);
            lk.lock();
            --nrunning;
            finalize_locked(f);
            continue;
        }
        // Nothing runnable on this worker.  Every wake source is itself a
        // task, so "none running, ready or unstarted anywhere, some parked"
        // is a proven deadlock — detected instantly, no timeout needed.  A
        // fiber still unstarted on another chunk is live: its thread is
        // late, not missing.
        bool any_live = false;
        for (const Worker& other : workers)
            any_live |= !other.ready.empty() || !other.unstarted.empty();
        if (nrunning == 0 && nparked > 0 && !any_live) {
            if (!stalled) {
                stalled = true;
                lk.unlock();
                if (stall) stall();
                lk.lock();
                // Wake the parked tasks so they observe what the handler
                // flagged (simmpi aborts the world) and unwind.
                wake_all_parked_locked();
            }
            continue;
        }
        cv.wait(lk);
    }
    cv.notify_all();
    lk.unlock();
    tls_impl = nullptr;
    tls_worker = -1;
}

TaskScheduler::TaskScheduler(int ntasks, std::size_t stack_bytes) : impl_(new Impl) {
    if (ntasks < 1) throw std::invalid_argument("simmpi: TaskScheduler needs >= 1 task");
    impl_->ntasks = ntasks;
    impl_->stack_bytes = stack_bytes < 64 * 1024 ? 64 * 1024 : stack_bytes;
    const long page = ::sysconf(_SC_PAGESIZE);
    impl_->page = page > 0 ? static_cast<std::size_t>(page) : 4096;
}

TaskScheduler::~TaskScheduler() {
    for (Fiber& fb : impl_->fibers) impl_->release_stack(fb);
    delete impl_;
}

int TaskScheduler::current_task() noexcept { return tls_fiber; }

void TaskScheduler::set_stall_handler(std::function<void()> handler) {
    impl_->stall = std::move(handler);
}

void TaskScheduler::park(std::unique_lock<std::mutex>& lk) {
    Impl* impl = impl_;
    const int f = tls_fiber;
    if (impl != tls_impl || f < 0)
        throw std::logic_error("simmpi: park() called outside one of this scheduler's tasks");
    {
        std::lock_guard g(impl->m);
        impl->fibers[static_cast<std::size_t>(f)].state = Fiber::State::Parking;
    }
    // The caller's structure lock is released only after the parking state
    // is registered: an unpark triggered by data published under that lock
    // always lands as wake_pending at worst, never gets lost.
    lk.unlock();
    impl->switch_out(f, /*dying=*/false);
    lk.lock();
}

void TaskScheduler::unpark(int task) {
    Impl* impl = impl_;
    std::lock_guard g(impl->m);
    Fiber& fb = impl->fibers[static_cast<std::size_t>(task)];
    switch (fb.state) {
        case Fiber::State::Parked:
            fb.state = Fiber::State::Ready;
            --impl->nparked;
            impl->workers[static_cast<std::size_t>(fb.home)].ready.push_back(task);
            impl->cv.notify_all();
            break;
        case Fiber::State::Done:
            break;
        default:
            // Parking (switch-out in flight), Running or already Ready: the
            // task re-checks its predicate anyway; remember the wake so a
            // park racing this unpark resumes immediately.
            fb.wake_pending = true;
            break;
    }
}

void TaskScheduler::unpark_all() {
    std::lock_guard g(impl_->m);
    impl_->wake_all_parked_locked();
}

void TaskScheduler::run(const std::function<void(int)>& body) {
    Impl& im = *impl_;
    if (tls_impl != nullptr)
        throw std::logic_error("simmpi: nested TaskScheduler::run on one thread");
    im.body = &body;
    im.fibers.assign(static_cast<std::size_t>(im.ntasks), Fiber{});
    const unsigned pool_threads = parallel::pool().size();
    const int nworkers =
        static_cast<int>(pool_threads < 1 ? 1 : pool_threads) < im.ntasks
            ? static_cast<int>(pool_threads < 1 ? 1 : pool_threads)
            : im.ntasks;
    im.workers.assign(static_cast<std::size_t>(nworkers), Worker{});
    // All stacks and contexts are prepared up front so allocation failure
    // throws cleanly here instead of mid-multiplex on a worker.  Task t is
    // placed on worker t mod nworkers, so every run spreads the tasks the
    // same way whatever the threads' timing.
    for (int f = 0; f < im.ntasks; ++f) {
        im.prepare_fiber(f);
        im.workers[static_cast<std::size_t>(f % nworkers)].unstarted.push_back(f);
    }
    im.nrunning = im.nparked = im.nfinished = 0;
    im.stalled = false;
    parallel::pool().parallel_for(static_cast<std::size_t>(nworkers),
                                  [&im](std::size_t b, std::size_t e) {
                                      for (std::size_t w = b; w < e; ++w)
                                          im.worker_loop(static_cast<int>(w),
                                                         static_cast<int>(e));
                                  });
    for (Fiber& fb : im.fibers) im.release_stack(fb);
    im.body = nullptr;
}

} // namespace simmpi::detail
