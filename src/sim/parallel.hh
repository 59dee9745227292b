/**
 * @file
 * Fixed-size worker pool for System's barrier-synchronized parallel
 * epochs. The pool owns T-1 persistent helper threads; the calling
 * thread participates as a worker, so run() costs no hand-off when
 * T == 1 and the main thread is never parked while helpers work.
 *
 * The items of one run() must be mutually independent (they execute
 * concurrently with no ordering); run() returns only after every item
 * completed, which is the epoch barrier. Workers claim items from a
 * shared cursor rather than owning fixed stripes, so which thread runs
 * an item is up to the schedule — results cannot depend on it, since
 * the items are independent.
 *
 * The barrier is three atomics: an epoch counter the caller bumps to
 * publish work, a claim cursor tagged with that epoch, and a count of
 * items not yet finished. Waiters spin for a short, fixed number of
 * iterations and then park in std::atomic::wait (a futex on Linux);
 * notify costs no system call while nobody is parked. Epochs are often
 * only a few microseconds of work — less than it takes to wake a
 * parked thread on another CPU — which is why the caller does not wait
 * for helpers to arrive: it claims items itself from the start, and a
 * helper that wakes late finds the cursor drained and parks again. The
 * spin stays bounded because the simulator often shares its CPUs with
 * other processes (CI containers, farm workers, concurrent runs): a
 * helper spinning through its timeslice would steal the very CPU the
 * active worker needs.
 */

#ifndef BOP_SIM_PARALLEL_HH
#define BOP_SIM_PARALLEL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

namespace bop
{

/**
 * A task that escaped its worker with an exception, surfaced at
 * drain() instead of terminating the process or wedging the pool.
 * `index` is the task's submission ordinal (0-based), which the
 * harness layers arrange to equal the job_index of their error
 * records; `kind` is faultKindOf() of the escaped exception.
 */
struct JobError
{
    std::size_t index;
    std::string kind;
    std::string what;
};

/** T-worker pool with a blocking all-items-done barrier per run(). */
class WorkerPool
{
  public:
    /** @param workers total worker count including the caller (>= 1). */
    explicit WorkerPool(unsigned workers);
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    unsigned workerCount() const { return workers; }

    /**
     * Execute fn(i) for every i in [0, items), each exactly once on
     * some worker, and return once all completed. The functor is
     * invoked by multiple threads concurrently and must only touch
     * state disjoint between items (or read-only). @p items must be
     * below 2^32 (the claim cursor and pending count are 32-bit).
     *
     * If any item throws, the remaining items still run and the epoch
     * still completes its barrier (so the pool stays sound); run()
     * then rethrows the exception of the smallest-indexed failed item
     * on the calling thread. The pool remains usable afterwards.
     */
    template <typename F>
    void
    run(std::size_t items, F &&fn)
    {
        using Fn = std::remove_reference_t<F>;
        runImpl(items,
                [](void *ctx, std::size_t i) {
                    (*static_cast<Fn *>(ctx))(i);
                },
                &fn);
    }

  private:
    using Trampoline = void (*)(void *, std::size_t);

    void runImpl(std::size_t items, Trampoline call, void *ctx);
    void helperLoop();
    /** Claim and run items of epoch @p tag until none are left. */
    void claimItems(std::uint32_t tag);
    void recordFailure(std::size_t item);

    const unsigned workers; ///< total workers including the caller
    std::vector<std::thread> helpers;

    /**
     * The epoch's functor. Written by the caller while no item is
     * outstanding, before the release store that publishes the epoch;
     * read by a worker only after it claimed an item of that epoch —
     * the caller cannot move on while that item is unfinished.
     */
    Trampoline job = nullptr;
    void *jobCtx = nullptr;
    /** Item count of the current epoch. Atomic because a late helper
     *  may read it while the caller already publishes the next epoch;
     *  stored after the cursor so its claim then fails on the tag. */
    std::atomic<std::size_t> jobItems{0};
    /** Set at shutdown before the final epoch bump. Atomic because a
     *  late helper may still be checking it for the previous epoch. */
    std::atomic<bool> stopping{false};

    /** Bumped once per pooled run() (and once at shutdown). 32 bits
     *  because that is the width std::atomic::wait maps onto a futex;
     *  it is only compared for equality, so wrap-around is fine. */
    alignas(64) std::atomic<std::uint32_t> epoch{0};
    /** Claim cursor: epoch tag in the high 32 bits, next unclaimed
     *  item in the low 32. The tag keeps a helper that woke late for
     *  one epoch from claiming an item of the next. */
    alignas(64) std::atomic<std::uint64_t> cursor{0};
    /** Items of the current epoch not yet finished. */
    alignas(64) std::atomic<std::uint32_t> pending{0};

    /**
     * Exception of the smallest-indexed item that threw this epoch
     * (deterministic when several items fail concurrently); rethrown
     * by runImpl after the barrier. Guarded by failureMutex.
     */
    std::mutex failureMutex;
    std::exception_ptr failure;
    std::size_t failureItem = 0;
};

/**
 * Dynamic task executor for coarse-grain jobs (whole simulations),
 * complementing WorkerPool's static per-epoch striping. N dedicated
 * worker threads pull tasks from a FIFO queue; the caller does NOT
 * participate — it keeps submitting while workers run, which is what
 * lets a sweep overlap job generation with simulation.
 *
 * submit() applies backpressure: it blocks while the queue already
 * holds maxBacklog tasks, bounding memory for arbitrarily long job
 * streams (the --serve front end feeds thousands of jobs through a
 * pool of a few workers). drain() is the shutdown-side barrier: it
 * returns once the queue is empty and every in-flight task finished —
 * but it does NOT stop the workers: submitting after a drain() is an
 * ordinary submit, and the pool drains again (a sweep farm drains
 * once per figure pass and keeps submitting).
 *
 * Tasks must synchronise any shared state themselves; the pool only
 * guarantees each task runs exactly once, on some worker thread.
 *
 * A task that throws does not kill its worker or wedge drain(): the
 * escaped exception is captured as a JobError (indexed by the task's
 * submission ordinal) and the worker moves on to the next task.
 * Callers collect the failures with takeErrors() after drain().
 */
class TaskPool
{
  public:
    /**
     * @param workers  worker thread count (>= 1).
     * @param maxBacklog  queued-task bound submit() blocks on
     *                    (0 means 4 * workers).
     */
    explicit TaskPool(unsigned workers, std::size_t maxBacklog = 0);
    ~TaskPool(); ///< drains, then stops and joins the workers

    TaskPool(const TaskPool &) = delete;
    TaskPool &operator=(const TaskPool &) = delete;

    unsigned workerCount() const { return workers; }
    std::size_t backlogBound() const { return maxBacklog; }

    /** Enqueue a task; blocks while the queue is at the backlog bound. */
    void submit(std::function<void()> task);

    /** Block until the queue is empty and no task is running. */
    void drain();

    /**
     * Remove and return the errors of every task that escaped with an
     * exception since the last call, ordered by submission ordinal.
     * Meaningful after drain(); may be called repeatedly.
     */
    std::vector<JobError> takeErrors();

  private:
    void workerLoop();

    const unsigned workers;
    const std::size_t maxBacklog;
    std::vector<std::thread> threads;

    struct Queued
    {
        std::uint64_t ordinal;
        std::function<void()> task;
    };

    std::mutex m;
    std::condition_variable cvTask;  ///< queue became non-empty
    std::condition_variable cvSpace; ///< queue dropped below the bound
    std::condition_variable cvIdle;  ///< queue empty and nothing running
    std::deque<Queued> queue;
    std::uint64_t nextOrdinal = 0; ///< submission counter, tags tasks
    unsigned running = 0;          ///< tasks currently executing
    bool stopping = false;
    std::vector<JobError> errors; ///< escaped exceptions, per task
};

} // namespace bop

#endif // BOP_SIM_PARALLEL_HH
