#include "sim/parallel.hh"

#include <algorithm>

#include "common/fault.hh"

namespace bop
{

namespace
{

/**
 * Busy-poll budget before a waiter parks. About a microsecond of
 * polling: enough to catch a partner that is mid-item on another
 * CPU, and short enough that a waiter sharing its CPU with the worker
 * it waits for yields almost at once.
 */
constexpr unsigned spinIterations = 64;

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

/** Wait until @p a no longer holds @p old; returns the value seen. */
std::uint32_t
awaitChange(const std::atomic<std::uint32_t> &a, std::uint32_t old)
{
    for (unsigned i = 0; i < spinIterations; ++i) {
        const std::uint32_t v = a.load(std::memory_order_acquire);
        if (v != old)
            return v;
        cpuRelax();
    }
    for (;;) {
        const std::uint32_t v = a.load(std::memory_order_acquire);
        if (v != old)
            return v;
        a.wait(old, std::memory_order_acquire);
    }
}

} // namespace

WorkerPool::WorkerPool(unsigned workers_) : workers(workers_ ? workers_ : 1)
{
    for (unsigned w = 1; w < workers; ++w)
        helpers.emplace_back([this] { helperLoop(); });
}

WorkerPool::~WorkerPool()
{
    // No run() is in flight (the owner is destroying us), so no item
    // is outstanding and the descriptor may be written.
    stopping.store(true, std::memory_order_relaxed);
    epoch.fetch_add(1, std::memory_order_release);
    epoch.notify_all();
    for (std::thread &t : helpers)
        t.join();
}

void
WorkerPool::recordFailure(std::size_t item)
{
    std::lock_guard<std::mutex> lk(failureMutex);
    if (!failure || item < failureItem) {
        failure = std::current_exception();
        failureItem = item;
    }
}

void
WorkerPool::claimItems(std::uint32_t tag)
{
    std::uint64_t c = cursor.load(std::memory_order_relaxed);
    for (;;) {
        if (static_cast<std::uint32_t>(c >> 32) != tag)
            return; // the epoch is over: every item was claimed
        // Acquire pairs with the caller's release store of jobItems:
        // a count from a newer epoch proves that epoch's cursor store
        // precedes our CAS, which then fails on the stale tag instead
        // of claiming an item past the end of our epoch.
        const std::size_t i = static_cast<std::uint32_t>(c);
        if (i >= jobItems.load(std::memory_order_acquire))
            return;
        if (!cursor.compare_exchange_weak(c, c + 1,
                                          std::memory_order_relaxed))
            continue; // c now holds the fresh cursor
        // A throwing item must not abandon the epoch — the caller
        // waits for every item — so the exception is parked and
        // rethrown by the caller after the barrier.
        try {
            job(jobCtx, i);
        } catch (...) {
            recordFailure(i);
        }
        if (pending.fetch_sub(1, std::memory_order_acq_rel) == 1)
            pending.notify_one();
        c = cursor.load(std::memory_order_relaxed);
    }
}

void
WorkerPool::runImpl(std::size_t items, Trampoline call, void *ctx)
{
    if (workers == 1 || items <= 1) {
        for (std::size_t i = 0; i < items; ++i)
            call(ctx, i);
        return;
    }

    const std::uint32_t tag = epoch.load(std::memory_order_relaxed) + 1;
    job = call;
    jobCtx = ctx;
    pending.store(static_cast<std::uint32_t>(items),
                  std::memory_order_relaxed);
    // The cursor moves to the new tag before the item count changes
    // (see claimItems): a helper still draining the previous epoch
    // must never pair the old tag with the new, larger count.
    cursor.store(std::uint64_t{tag} << 32, std::memory_order_relaxed);
    jobItems.store(items, std::memory_order_release);
    epoch.store(tag, std::memory_order_release);
    epoch.notify_all();

    // The caller claims items too, from the start: with helpers parked
    // it may finish the whole epoch before the first one wakes.
    claimItems(tag);

    for (std::uint32_t left = pending.load(std::memory_order_acquire);
         left != 0;)
        left = awaitChange(pending, left);

    // Every item's decrement happened-before the acquire above, so
    // the failure slot is quiescent; the lock is for form.
    std::exception_ptr e;
    {
        std::lock_guard<std::mutex> lk(failureMutex);
        e.swap(failure);
        failureItem = 0;
    }
    if (e)
        std::rethrow_exception(e);
}

void
WorkerPool::helperLoop()
{
    std::uint32_t seen = 0;
    for (;;) {
        seen = awaitChange(epoch, seen);
        if (stopping.load(std::memory_order_relaxed))
            return;
        claimItems(seen);
    }
}

TaskPool::TaskPool(unsigned workers_, std::size_t maxBacklog_)
    : workers(workers_ ? workers_ : 1),
      maxBacklog(maxBacklog_ ? maxBacklog_ : 4 * (workers_ ? workers_ : 1))
{
    threads.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        threads.emplace_back([this] { workerLoop(); });
}

TaskPool::~TaskPool()
{
    drain();
    {
        std::lock_guard<std::mutex> lk(m);
        stopping = true;
    }
    cvTask.notify_all();
    for (std::thread &t : threads)
        t.join();
}

void
TaskPool::submit(std::function<void()> task)
{
    {
        std::unique_lock<std::mutex> lk(m);
        cvSpace.wait(lk, [this] { return queue.size() < maxBacklog; });
        queue.push_back(Queued{nextOrdinal++, std::move(task)});
    }
    cvTask.notify_one();
}

void
TaskPool::drain()
{
    std::unique_lock<std::mutex> lk(m);
    cvIdle.wait(lk, [this] { return queue.empty() && running == 0; });
}

std::vector<JobError>
TaskPool::takeErrors()
{
    std::vector<JobError> out;
    {
        std::lock_guard<std::mutex> lk(m);
        out.swap(errors);
    }
    std::sort(out.begin(), out.end(),
              [](const JobError &a, const JobError &b) {
                  return a.index < b.index;
              });
    return out;
}

void
TaskPool::workerLoop()
{
    for (;;) {
        Queued item;
        {
            std::unique_lock<std::mutex> lk(m);
            cvTask.wait(lk, [this] { return stopping || !queue.empty(); });
            if (queue.empty())
                return; // stopping, and nothing left to run
            item = std::move(queue.front());
            queue.pop_front();
            ++running;
        }
        cvSpace.notify_one();

        // Containment: a task that escapes with an exception becomes
        // a JobError instead of terminating the process, and the
        // --running bookkeeping below must run regardless or drain()
        // would wait forever on a failed task.
        try {
            item.task();
        } catch (const std::exception &e) {
            std::lock_guard<std::mutex> lk(m);
            errors.push_back(JobError{static_cast<std::size_t>(item.ordinal),
                                      faultKindOf(e), e.what()});
        } catch (...) {
            std::lock_guard<std::mutex> lk(m);
            errors.push_back(JobError{static_cast<std::size_t>(item.ordinal),
                                      "simulation", "unknown exception"});
        }

        {
            std::lock_guard<std::mutex> lk(m);
            --running;
            if (queue.empty() && running == 0)
                cvIdle.notify_all();
        }
    }
}

} // namespace bop
