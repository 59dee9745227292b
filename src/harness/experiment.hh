/**
 * @file
 * Experiment harness shared by all bench binaries.
 *
 * Provides the paper's six baseline configurations (1/2/4 active cores
 * x 4KB/4MB pages, Sec. 5.1), workload/trace assembly (core 0 runs the
 * benchmark; other active cores run the cache-thrashing
 * micro-benchmark), instruction budgets, and a memoising runner so
 * figures that share baselines do not re-simulate them. The runner
 * takes only explicit settings; the front ends read the BOP_*
 * environment variables (harness/job_fields.hh) and pass them in.
 *
 * The runner is thread-safe: the sweep farm (sweep_farm.hh) and the
 * `bopsim --serve` front end call it from worker threads. A single
 * mutex guards the memo cache and record vector, and a per-key
 * in-flight latch makes concurrent run() calls for the same design
 * point simulate it exactly once (late arrivals block until the
 * winner commits).
 */

#ifndef BOP_HARNESS_EXPERIMENT_HH
#define BOP_HARNESS_EXPERIMENT_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "harness/journal.hh"
#include "harness/json_report.hh"
#include "sim/config.hh"
#include "sim/system.hh"

namespace bop
{

/** Instruction budgets for one simulation run. */
struct Budget
{
    std::uint64_t warmup = 100000;
    std::uint64_t measure = 400000;
};

/**
 * One job: a design point plus the per-job choices a `--serve` line or
 * bopsim's flags carry (harness/job_fields.hh is that vocabulary).
 */
struct JobSpec
{
    std::string benchmark;
    SystemConfig cfg;
    Budget budget;
    bool share = false; ///< warmup-prefix sharing for this job
};

/**
 * The paper's baseline: next-line L2 prefetcher, 5P L3 policy, DL1
 * stride prefetcher on. Any core count is accepted; beyond the paper's
 * 4-core chip the channel count is scaled so each channel keeps
 * serving at most 2 cores (8 cores -> 4 channels, 16 -> 8).
 */
SystemConfig baselineConfig(int cores, PageSize page);

/** All six (cores, page) baseline combinations, in paper order. */
std::vector<std::pair<int, PageSize>> baselineGrid();

/**
 * Core counts for contention/scaling studies: the paper's 1/2/4 plus
 * the beyond-paper 8 and 16 (Shakerinava et al., arXiv:2009.00715,
 * motivate revisiting prefetcher interference at server core counts).
 */
std::vector<int> scalingCoreCounts();

/** Human-readable label like "1-core/4KB". */
std::string gridLabel(int cores, PageSize page);

/** Unique key of a configuration (for memoisation). */
std::string configFingerprint(const SystemConfig &cfg);

/** Assemble traces: benchmark on core 0, thrashers elsewhere. */
std::vector<std::unique_ptr<TraceSource>>
makeTraces(const std::string &benchmark, const SystemConfig &cfg);

/** Memoising, thread-safe simulation runner. */
class ExperimentRunner
{
  public:
    explicit ExperimentRunner(Budget budget_ = Budget{})
        : budget(budget_)
    {
    }

    /** Run (or recall) one benchmark under one configuration. */
    const RunStats &run(const std::string &benchmark,
                        const SystemConfig &cfg);

    /**
     * Same, with an explicit per-job budget (the --serve front end
     * carries budgets per job line) and the full memoised record.
     * Safe to call concurrently: the in-flight latch guarantees each
     * distinct (benchmark, config, budget) simulates exactly once.
     */
    const RunRecord &run(const std::string &benchmark,
                         const SystemConfig &cfg, const Budget &b);

    /** Same, with an explicit warmup-prefix-sharing choice for this
     *  job (overriding the runner-wide setting). */
    const RunRecord &run(const std::string &benchmark,
                         const SystemConfig &cfg, const Budget &b,
                         bool share_warmup);

    /** Speedup of @p cfg over @p base for one benchmark (IPC ratio). */
    double speedup(const std::string &benchmark, const SystemConfig &cfg,
                   const SystemConfig &base);

    /** Geometric-mean speedup over a set of benchmarks. */
    double geomeanSpeedup(const std::vector<std::string> &benchmarks,
                          const SystemConfig &cfg,
                          const SystemConfig &base);

    const Budget &budgets() const { return budget; }

    /**
     * Warmup-prefix sharing: when enabled, jobs sharing a (benchmark,
     * config, warmup budget) prefix simulate the warmup exactly once —
     * the first arrival saves an in-memory checkpoint at the
     * measurement boundary, later arrivals restore it and only pay
     * the measurement window. Bit-identity of checkpoint restore
     * (tests/test_checkpoint.cc) guarantees the resulting stats equal
     * a cold run's. Default: off.
     */
    void setCheckpointSharing(bool on) { shareWarmup = on; }
    bool checkpointSharing() const { return shareWarmup; }

    /**
     * Per-job wall-clock deadline in seconds (0 = none). A job still
     * simulating past it throws JobTimeout, which the farm/serve
     * layers convert into a per-job error record while the rest of
     * the batch keeps running. Default: off.
     */
    void setJobTimeout(double seconds) { jobTimeout = seconds; }
    double jobTimeoutSeconds() const { return jobTimeout; }

    /**
     * Bounded retry for transient failures (`--retries N`; default
     * 0): runJob() re-runs a job whose error kind is
     * transient (transientFaultKind(), currently "io") in place, up
     * to N more times, sleeping 50 ms * 2^(attempt-2) before attempt
     * `attempt`; records carry the final `attempts` count.
     * Deterministic failure kinds (timeout/checkpoint/simulation)
     * never retry — docs/ROBUSTNESS.md has the decision table.
     */
    void setRetries(int n) { retries_ = n < 0 ? 0 : n; }
    int retries() const { return retries_; }

    /**
     * Attach a write-ahead result journal (`--journal FILE`): every
     * farm run/error record is appended with fsync-on-commit framing
     * as soon as its job completes, every memoised run() before it is
     * acknowledged (journal.hh). Throws on open failure or a budget
     * mismatch with an existing journal.
     */
    void attachJournal(const std::string &path)
    {
        journal.open(path, budget.warmup, budget.measure);
    }

    /**
     * Replay a journal into the memo (`--resume FILE`): journaled
     * success records become memo hits (flagged journalReplayed) and
     * both success and error records become pending replays the farm
     * commits verbatim instead of re-simulating, so a killed sweep
     * resumed under the same config produces byte-identical final
     * output (timing fields aside). Config drift is refused with a
     * named mismatch: budgets via the journal header, everything else
     * via the fingerprint-bearing memo key (a drifted design point
     * simply never matches and re-simulates). Returns the number of
     * replayed entries.
     */
    std::size_t resumeFromJournal(const std::string &path,
                                  std::ostream &diag);

    /**
     * Claim the pending replay for @p key, if any (last journal entry
     * wins). The farm calls this before considering simulation; a
     * claimed record is gone, so a key replays into the record stream
     * exactly once per resume.
     */
    bool consumeReplayed(const std::string &key, RunRecord &out);

    /** Entries loaded by resumeFromJournal() (consumed or not). */
    std::uint64_t replayedCount() const
    {
        std::lock_guard<std::mutex> lk(m);
        return replayCount;
    }

    /**
     * Disk-backed checkpoint cache directory: shared
     * warmup prefixes are persisted atomically (tmp+fsync+rename)
     * under their (workload, config fingerprint, warmup budget) key
     * and reloaded across processes — the in-memory warmup-prefix
     * latch, promoted to disk. Corrupt or mismatched entries are
     * refused (validate-before-apply, byte-offset diagnostics) and
     * fall back to a cold warmup that overwrites the entry. Empty
     * disables (the default). Only consulted when checkpoint sharing
     * is on.
     */
    void setCheckpointDir(const std::string &dir) { ckptDir = dir; }
    const std::string &checkpointDir() const { return ckptDir; }

    /** Print one progress line per simulation to stderr (default off). */
    void setVerbose(bool on) { verbose = on; }

    /**
     * Warmup prefixes actually simulated so far (each shared prefix
     * counts once, however many jobs consumed it). Only read this
     * when no jobs are in flight.
     */
    std::uint64_t prefixSimulations() const
    {
        std::lock_guard<std::mutex> lk(m);
        return prefixSims;
    }

    /** Memo key of one design point (benchmark, config, budget). */
    static std::string runKey(const std::string &benchmark,
                              const SystemConfig &cfg, const Budget &b);

    /**
     * Memo key under this runner's own budget and sharing mode. The
     * sharing marker keeps warm-shared records from ever aliasing
     * cold ones in the memo cache (their stats are bit-identical,
     * but their `checkpoint` provenance field is not).
     */
    std::string
    runKey(const std::string &benchmark, const SystemConfig &cfg) const
    {
        return jobKey(benchmark, cfg, budget, shareWarmup);
    }

    /** Cached record for @p key, or nullptr (pointer stays valid). */
    const RunRecord *memoised(const std::string &key) const;

    /**
     * Next farm job index (monotone per runner). Reserved at
     * submission time so job_index depends only on submission order,
     * never on worker scheduling.
     */
    long reserveJobIndex();

    /**
     * Simulate one design point without touching the memo or the
     * record list: the leaf a sweep-farm job runs. Returns a record
     * with stats, threads and wall clock filled in; memo/record
     * bookkeeping is the caller's job (commitRecord()).
     */
    RunRecord simulateRecord(const std::string &benchmark,
                             const SystemConfig &cfg,
                             const Budget &b) const
    {
        return simulateRecord(benchmark, cfg, b, shareWarmup);
    }

    /** Same, with an explicit warmup-prefix-sharing choice. */
    RunRecord simulateRecord(const std::string &benchmark,
                             const SystemConfig &cfg, const Budget &b,
                             bool share_warmup) const;

    /**
     * Run one farm or serve job — the single job path. Opens the
     * job's FaultScope, runs an attempt (memoised run() when
     * @p memoise, as serve does; simulateRecord() otherwise, as the
     * farm does, which commits at drain), retries transient failures
     * in place (setRetries()), and returns the record stamped with
     * jobs/job_index/queue_wait_seconds/attempts — or, when the job
     * failed, its error record. Never throws for a failed job.
     */
    RunRecord runJob(const JobSpec &job, long jobIndex, int jobs,
                     std::chrono::steady_clock::time_point submitted,
                     bool memoise);

    /**
     * Journal-append one record under @p key (write + fsync; no-op
     * when no journal is attached or the record was itself replayed
     * from the journal). Throws when the append fails.
     */
    void journalRecord(const std::string &key, const RunRecord &record)
    {
        if (journal.isOpen() && !record.journalReplayed)
            journal.append(key, record);
    }

    /**
     * Append a finished job's record without journaling it. Success
     * records are memoised under @p key; error records (see
     * RunRecord::errored()) never are — failures are never cached, so
     * resubmitting the design point re-simulates it.
     */
    void commitRecord(const std::string &key, RunRecord record);

    /** journalRecord(), then commitRecord(). */
    void commitJob(const std::string &key, RunRecord record)
    {
        journalRecord(key, record);
        commitRecord(key, std::move(record));
    }

    /**
     * One record per actual (non-memoised) simulation, in commit
     * order. Only read this when no jobs are in flight (after a farm
     * drain / worker join); the reference bypasses the runner lock.
     */
    const std::vector<RunRecord> &records() const { return runRecords; }

    /** Append a record produced outside run() (e.g. direct System use). */
    void addRecord(RunRecord record)
    {
        std::lock_guard<std::mutex> lk(m);
        runRecords.push_back(std::move(record));
    }

    /** Write all records to @p path as JSON (see json_report.hh). */
    bool writeJson(const std::string &path) const
    {
        std::lock_guard<std::mutex> lk(m);
        return writeRunRecordsFile(path, runRecords);
    }

  private:
    /** Memo key including the warmup-sharing marker. */
    static std::string
    jobKey(const std::string &benchmark, const SystemConfig &cfg,
           const Budget &b, bool share_warmup)
    {
        return runKey(benchmark, cfg, b) +
               (share_warmup ? "##ckpt-share" : "");
    }

    /** Shared-warmup-prefix cache key. */
    static std::string prefixKey(const std::string &benchmark,
                                 const SystemConfig &cfg,
                                 const Budget &b);

    /**
     * Find-or-claim-or-wait latch over one memo table (the run memo
     * and the warmup-prefix cache both use it): returns the value
     * cached under @p key, blocking while another caller produces it;
     * otherwise claims @p key, runs produce() outside the lock and
     * publishes its result, calling onPublish(value) under the lock.
     * A producer that throws releases the claim so waiters retry
     * instead of hanging. The bool is true when this call produced.
     */
    template <typename Value, typename Produce, typename OnPublish>
    std::pair<const Value *, bool>
    shareOnce(std::map<std::string, Value> &table,
              std::set<std::string> &claims, const std::string &key,
              Produce produce, OnPublish onPublish) const;

    /**
     * Disk checkpoint-cache entry for @p pkey, or false. Throws
     * CheckpointError (byte-offset diagnostics) on a corrupt or
     * key-mismatched entry — validate-before-apply, the caller falls
     * back to a cold warmup.
     */
    bool loadCacheEntry(const std::string &pkey,
                        std::vector<std::uint8_t> &container) const;

    /** Persist a warm prefix atomically (writeFileAtomically());
     *  best-effort — failures warn on stderr, the cache is only an
     *  optimisation. */
    void saveCacheEntry(const std::string &pkey,
                        const std::vector<std::uint8_t> &container) const;

    /** Cache-entry file path for a prefix key (FNV-1a name). */
    std::string cacheEntryPath(const std::string &pkey) const;

    Budget budget;
    bool shareWarmup = false;
    double jobTimeout = 0.0;
    int retries_ = 0;
    std::string ckptDir;
    bool verbose = false;

    mutable std::mutex m;
    /** shareOnce() publication. Mutable: simulateRecord() is const
     *  but waits on shared prefixes. */
    mutable std::condition_variable cv;
    std::set<std::string> inflight; ///< keys being simulated right now
    std::map<std::string, RunRecord> cache;
    std::vector<RunRecord> runRecords;
    long nextJobIndex = 0;

    ResultJournal journal; ///< write-ahead record log (--journal)
    /** Journal entries awaiting their submission slot (--resume);
     *  consumeReplayed() pops them. */
    std::map<std::string, RunRecord> replayed;
    std::uint64_t replayCount = 0;

    /**
     * Warm-state bytes per prefix key. Node-stable (std::map, never
     * erased): consumers hold pointers into it outside the lock.
     */
    mutable std::map<std::string, std::vector<std::uint8_t>> prefixCache;
    mutable std::set<std::string> prefixInflight;
    mutable std::uint64_t prefixSims = 0;
};

} // namespace bop

#endif // BOP_HARNESS_EXPERIMENT_HH
