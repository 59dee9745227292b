/**
 * @file
 * Job-queue sweep engine over ExperimentRunner.
 *
 * A figure sweep is hundreds of independent (benchmark, config)
 * design points; each System is self-contained and deterministic, so
 * they parallelise perfectly at job granularity. SweepFarm accepts
 * submissions, deduplicates them through the runner's memo key, fans
 * unique jobs out across a TaskPool (ExperimentRunner::runJob() on a
 * worker, for every worker count), and commits the resulting
 * RunRecords in submission order — so the runner's JSON output is
 * byte-identical for every worker count (timing fields aside).
 *
 * Determinism contract:
 *  - job_index is reserved at submission time, before any worker
 *    touches the job, so it depends only on the submission sequence;
 *  - records are committed at drain() in submission order, never in
 *    completion order;
 *  - with a journal attached, each record is journaled on its worker
 *    as soon as its job completes (completion order — replay is by
 *    key), so a killed sweep loses no finished job for any worker
 *    count; a journal append failure propagates out of drain();
 *  - a job whose simulation throws commits an error record (same
 *    job_index, same submission-order slot — docs/ROBUSTNESS.md) and
 *    is never memoised; every other job completes unaffected, so the
 *    surviving records stay byte-identical to a fault-free sweep;
 *  - a design point the runner replayed from a write-ahead journal
 *    (--resume) commits its journaled record verbatim into its
 *    submission slot without simulating — job indices still advance,
 *    so the un-journaled remainder of the sweep lands on exactly the
 *    indices an uninterrupted run would have given it;
 *  - jobs failing with a transient error kind ("io") retry in place
 *    on their worker with exponential backoff, up to
 *    1 + runner.retries() attempts (records carry `attempts`).
 *
 * Usage: submit the whole sweep (a "prefetch pass"), drain(), then
 * compute derived numbers (speedups, geomeans) through the runner's
 * now-warm memo cache.
 */

#ifndef BOP_HARNESS_SWEEP_FARM_HH
#define BOP_HARNESS_SWEEP_FARM_HH

#include <deque>
#include <set>
#include <string>

#include "harness/experiment.hh"
#include "sim/parallel.hh"

namespace bop
{

/** Deduplicating, order-preserving parallel sweep executor. */
class SweepFarm
{
  public:
    /**
     * @param runner  shared memo/record store (outlives the farm).
     * @param jobs    worker count (at least 1).
     * @param backlog in-flight bound for TaskPool::submit backpressure
     *                (0 means 4 * jobs).
     */
    explicit SweepFarm(ExperimentRunner &runner, int jobs = 1,
                       std::size_t backlog = 0);
    ~SweepFarm(); ///< drains outstanding jobs

    SweepFarm(const SweepFarm &) = delete;
    SweepFarm &operator=(const SweepFarm &) = delete;

    int jobCount() const { return jobs; }
    ExperimentRunner &runner() { return runner_; }

    /**
     * Submit one design point under the runner's budget. Duplicates
     * (already memoised, or already submitted to this farm) are
     * dropped — a design point never simulates twice. Blocks when the
     * pool backlog is full.
     */
    void submit(const std::string &benchmark, const SystemConfig &cfg);

    /**
     * Wait for all submitted jobs, then commit their records to the
     * runner in submission order. After drain() every submitted
     * design point is memoised, so derived lookups through
     * ExperimentRunner::run() are pure cache hits. Throws, committing
     * nothing, when a journal append failed.
     */
    void drain();

  private:
    struct Slot
    {
        std::string key;
        RunRecord record; ///< filled by a worker, or a journal replay
    };

    ExperimentRunner &runner_;
    const int jobs;
    TaskPool pool;
    /** Deque for reference stability: workers fill earlier slots
     *  while submit() keeps appending. Drained in order. */
    std::deque<Slot> slots;
    std::set<std::string> submitted; ///< keys queued this farm
};

} // namespace bop

#endif // BOP_HARNESS_SWEEP_FARM_HH
