#include "harness/sweep_farm.hh"

#include <chrono>
#include <cstdio>
#include <stdexcept>

namespace bop
{

SweepFarm::SweepFarm(ExperimentRunner &runner, int jobs_,
                     std::size_t backlog)
    : runner_(runner), jobs(jobs_ < 1 ? 1 : jobs_),
      pool(static_cast<unsigned>(jobs), backlog)
{
}

SweepFarm::~SweepFarm()
{
    // drain() throws only for a failed journal append; a destructor
    // cannot rethrow it, so report it rather than terminate.
    try {
        drain();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sweep farm: %s\n", e.what());
    }
}

void
SweepFarm::submit(const std::string &benchmark, const SystemConfig &cfg)
{
    const std::string key = runner_.runKey(benchmark, cfg);
    if (!submitted.insert(key).second)
        return;

    // A journal replay claims this submission slot before the memo is
    // even consulted (replayed success records ARE memoised): the
    // journaled record — error records included — is committed
    // verbatim at drain(), and the job index still advances so the
    // rest of the sweep keeps the indices an uninterrupted run would
    // produce.
    RunRecord replayed;
    const bool replay = runner_.consumeReplayed(key, replayed);
    if (!replay && runner_.memoised(key))
        return;

    const long jobIndex = runner_.reserveJobIndex();
    slots.push_back(Slot{key, std::move(replayed)});
    if (replay)
        return;

    Slot *slot = &slots.back();
    const JobSpec job{benchmark, cfg, runner_.budgets(),
                      runner_.checkpointSharing()};
    const auto submittedAt = std::chrono::steady_clock::now();
    pool.submit([this, slot, job, jobIndex, submittedAt] {
        slot->record = runner_.runJob(job, jobIndex, jobs, submittedAt,
                                      /*memoise=*/false);
        // Journal on completion, on this worker: once this returns, a
        // kill -9 of the sweep no longer loses the job. An append
        // failure escapes to the pool, and drain() rethrows it.
        runner_.journalRecord(slot->key, slot->record);
    });
}

void
SweepFarm::drain()
{
    pool.drain();
    const std::vector<JobError> errors = pool.takeErrors();
    if (!errors.empty()) {
        // A write-ahead journal that cannot persist must fail loudly;
        // nothing from this batch is acknowledged in memory.
        slots.clear();
        throw std::runtime_error(errors.front().what);
    }
    for (Slot &slot : slots)
        runner_.commitRecord(slot.key, std::move(slot.record));
    slots.clear();
}

} // namespace bop
