#include "harness/experiment.hh"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include <sys/stat.h>

#include "common/fault.hh"
#include "common/serializer.hh"
#include "dram/address_map.hh"
#include "harness/checkpoint.hh"
#include "trace/workloads.hh"

namespace bop
{

SystemConfig
baselineConfig(int cores, PageSize page)
{
    SystemConfig cfg;
    cfg.activeCores = cores;
    cfg.pageSize = page;
    cfg.l2Prefetcher = L2PrefetcherKind::NextLine;
    cfg.l3Policy = L3PolicyKind::P5;
    cfg.dl1StridePrefetcher = true;
    // Paper topologies keep the 2-channel chip (Table 1); beyond 4
    // cores, grow the channel count so each channel serves at most 2
    // cores (8 cores -> 4 channels, 16 -> 8).
    while (cfg.numChannels * 2 < cores &&
           cfg.numChannels < maxDramChannels)
        cfg.numChannels *= 2;
    return cfg;
}

std::vector<std::pair<int, PageSize>>
baselineGrid()
{
    return {{1, PageSize::FourKB}, {2, PageSize::FourKB},
            {4, PageSize::FourKB}, {1, PageSize::FourMB},
            {2, PageSize::FourMB}, {4, PageSize::FourMB}};
}

std::vector<int>
scalingCoreCounts()
{
    return {1, 2, 4, 8, 16};
}

std::string
gridLabel(int cores, PageSize page)
{
    std::ostringstream oss;
    oss << cores << "-core/"
        << (page == PageSize::FourKB ? "4KB" : "4MB");
    return oss.str();
}

std::string
configFingerprint(const SystemConfig &cfg)
{
    std::ostringstream oss;
    oss << cfg.describe() << "|seed=" << cfg.seed
        << "|bo=" << cfg.bo.rrEntries << "," << cfg.bo.scoreMax << ","
        << cfg.bo.roundMax << "," << cfg.bo.badScore << ","
        << cfg.bo.maxOffset << "," << cfg.bo.degree << ","
        << cfg.bo.includeNegative << ","
        << cfg.bo.adaptiveBadScore << "," << cfg.bo.coverageWeight
        << "|sbp=" << cfg.sbp.evalPeriod << "," << cfg.sbp.maxActiveOffsets
        << "|fdp=" << cfg.fdp.initialLevel << "," << cfg.fdp.sampleInterval
        << "|ghb=" << cfg.ghb.adaptiveZones << ","
        << cfg.ghb.zoneLineBitsCandidates.front() << "," << cfg.ghb.degree
        << "|sbuf=" << cfg.streamBuf.buffers << "," << cfg.streamBuf.depth
        << "|dpc2=" << cfg.boDpc2.badScore << ","
        << cfg.boDpc2.delayCycles
        << "|D=" << cfg.fixedOffset;
    return oss.str();
}

std::vector<std::unique_ptr<TraceSource>>
makeTraces(const std::string &benchmark, const SystemConfig &cfg)
{
    std::vector<std::unique_ptr<TraceSource>> traces;
    traces.push_back(makeWorkload(benchmark, cfg.seed));
    for (int c = 1; c < cfg.activeCores; ++c)
        traces.push_back(makeThrasher(cfg.seed + static_cast<unsigned>(c)));
    return traces;
}

std::string
ExperimentRunner::runKey(const std::string &benchmark,
                         const SystemConfig &cfg, const Budget &b)
{
    // Budgets are part of the design point: the --serve front end can
    // carry a different budget per job line, and memo hits must never
    // conflate a short run with a long one.
    return benchmark + "##" + configFingerprint(cfg) + "##" +
           std::to_string(b.warmup) + "+" + std::to_string(b.measure);
}

std::string
ExperimentRunner::prefixKey(const std::string &benchmark,
                            const SystemConfig &cfg, const Budget &b)
{
    // The warm state depends on everything the config fingerprint
    // covers (prefetcher choice included) plus the warmup length —
    // but NOT the measure budget, which is exactly what makes the
    // prefix shareable across jobs that differ only in it.
    return benchmark + "##" + configFingerprint(cfg) + "##warm" +
           std::to_string(b.warmup);
}

std::string
ExperimentRunner::cacheEntryPath(const std::string &pkey) const
{
    // FNV-1a 64 of the prefix key names the file; the key itself is
    // embedded in the entry and verified on load, so a hash collision
    // can never restore the wrong warm state.
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : pkey) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    char name[32];
    std::snprintf(name, sizeof name, "%016llx.bopckpt",
                  static_cast<unsigned long long>(h));
    return ckptDir + "/" + name;
}

namespace
{
constexpr char cacheMagic[8] = {'B', 'O', 'P', 'C', 'A', 'C', 'H', '1'};

/** Sleep before the first retry; each further retry doubles it. */
constexpr double retryBackoffSeconds = 0.05;
} // namespace

bool
ExperimentRunner::loadCacheEntry(const std::string &pkey,
                                 std::vector<std::uint8_t> &container) const
{
    const std::string path = cacheEntryPath(pkey);
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false; // no entry: a plain cache miss, not an error
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());

    // Validate everything before handing anything to the caller; a
    // refused entry falls back to cold warmup (and is overwritten by
    // the fresh save), never restored.
    if (bytes.size() < sizeof cacheMagic + 4)
        throw CheckpointError("checkpoint-cache entry '" + path +
                                  "' truncated (" +
                                  std::to_string(bytes.size()) + " bytes)",
                              bytes.size());
    if (std::memcmp(bytes.data(), cacheMagic, sizeof cacheMagic) != 0)
        throw CheckpointError("checkpoint-cache entry '" + path +
                                  "' has bad magic",
                              0);
    const std::uint32_t keyLen = getU32(bytes.data() + sizeof cacheMagic);
    const std::size_t keyOff = sizeof cacheMagic + 4;
    if (keyLen > bytes.size() - keyOff)
        throw CheckpointError("checkpoint-cache entry '" + path +
                                  "' key length " +
                                  std::to_string(keyLen) +
                                  " overruns the file",
                              sizeof cacheMagic);
    const std::string storedKey(
        reinterpret_cast<const char *>(bytes.data() + keyOff), keyLen);
    if (storedKey != pkey)
        throw CheckpointError("checkpoint-cache entry '" + path +
                                  "' is keyed for \"" + storedKey +
                                  "\", not \"" + pkey + "\"",
                              keyOff);
    container.assign(bytes.begin() +
                         static_cast<std::ptrdiff_t>(keyOff + keyLen),
                     bytes.end());
    // Fault injection (docs/ROBUSTNESS.md): a bit-rotted entry — the
    // flipped byte trips the container's section CRC inside
    // restoreCheckpointBytes, which must refuse before applying.
    if (!container.empty() &&
        FaultPlan::global().fireCounted("ckpt_cache_corrupt"))
        container[container.size() / 2] ^= 0xff;
    return true;
}

void
ExperimentRunner::saveCacheEntry(
    const std::string &pkey,
    const std::vector<std::uint8_t> &container) const
{
    ::mkdir(ckptDir.c_str(), 0777); // best effort; EEXIST is fine
    const std::string path = cacheEntryPath(pkey);
    std::vector<std::uint8_t> entry;
    entry.reserve(sizeof cacheMagic + 4 + pkey.size() + container.size());
    appendBytes(entry, cacheMagic, sizeof cacheMagic);
    putU32(entry, static_cast<std::uint32_t>(pkey.size()));
    appendBytes(entry, pkey.data(), pkey.size());
    appendBytes(entry, container.data(), container.size());
    // Atomic publish: the entry appears under its final name only
    // complete and fsynced, so a crashed writer leaves nothing a
    // reader could mistake for a checkpoint.
    try {
        writeFileAtomically(path, entry, "checkpoint-cache entry");
    } catch (const std::runtime_error &e) {
        std::fprintf(stderr,
                     "checkpoint-cache: failed to persist '%s' "
                     "(continuing without): %s\n",
                     path.c_str(), e.what());
    }
}

std::size_t
ExperimentRunner::resumeFromJournal(const std::string &path,
                                    std::ostream &diag)
{
    std::vector<JournalEntry> entries =
        ResultJournal::load(path, budget.warmup, budget.measure, diag);
    std::lock_guard<std::mutex> lk(m);
    for (JournalEntry &entry : entries) {
        entry.record.journalReplayed = true;
        if (!entry.record.errored())
            cache[entry.key] = entry.record; // memo hit for run()
        // Success and error records both land in the pending-replay
        // map (last entry wins) so the farm re-emits a crashed
        // sweep's record stream — errors included — verbatim.
        replayed[entry.key] = std::move(entry.record);
    }
    replayCount += entries.size();
    diag << "journal: replayed " << entries.size() << " record"
         << (entries.size() == 1 ? "" : "s") << " from '" << path
         << "'\n";
    return entries.size();
}

bool
ExperimentRunner::consumeReplayed(const std::string &key, RunRecord &out)
{
    std::lock_guard<std::mutex> lk(m);
    auto it = replayed.find(key);
    if (it == replayed.end())
        return false;
    out = std::move(it->second);
    replayed.erase(it);
    return true;
}

const RunRecord *
ExperimentRunner::memoised(const std::string &key) const
{
    std::lock_guard<std::mutex> lk(m);
    auto it = cache.find(key);
    return it == cache.end() ? nullptr : &it->second;
}

long
ExperimentRunner::reserveJobIndex()
{
    std::lock_guard<std::mutex> lk(m);
    return nextJobIndex++;
}

template <typename Value, typename Produce, typename OnPublish>
std::pair<const Value *, bool>
ExperimentRunner::shareOnce(std::map<std::string, Value> &table,
                            std::set<std::string> &claims,
                            const std::string &key, Produce produce,
                            OnPublish onPublish) const
{
    std::unique_lock<std::mutex> lk(m);
    for (;;) {
        auto it = table.find(key);
        if (it != table.end())
            return {&it->second, false};
        if (claims.insert(key).second)
            break; // claimed: produce outside the lock
        // Someone else is producing this key: wait for their
        // publication instead of duplicating the work.
        cv.wait(lk);
    }
    lk.unlock();

    Value value;
    try {
        value = produce();
    } catch (...) {
        // Release the claim so waiters retry (and likely hit the same
        // error themselves) instead of blocking forever.
        lk.lock();
        claims.erase(key);
        cv.notify_all();
        throw;
    }
    lk.lock();
    const Value &published =
        table.emplace(key, std::move(value)).first->second;
    onPublish(published);
    claims.erase(key);
    cv.notify_all();
    return {&published, true};
}

RunRecord
ExperimentRunner::simulateRecord(const std::string &benchmark,
                                 const SystemConfig &cfg,
                                 const Budget &b,
                                 bool share_warmup) const
{
    // Fault injection (docs/ROBUSTNESS.md): job_wedge and job_throw
    // target the job by its deterministic farm/serve index, carried
    // by the FaultScope the submitting layer opened on this thread.
    const long fjob = FaultScope::currentJob();
    FaultPlan &faults = FaultPlan::global();
    if (fjob >= 0 &&
        faults.fireAt("job_wedge", static_cast<std::uint64_t>(fjob))) {
        // A "wedged" simulation: no progress, but bounded so an armed
        // plan can never hang the process even when no deadline is
        // configured — past the limit the wedge reports itself as the
        // timeout the deadline would have produced.
        const double limit = jobTimeout > 0.0 ? jobTimeout : 2.0;
        const auto until =
            std::chrono::steady_clock::now() +
            std::chrono::duration<double>(limit);
        while (std::chrono::steady_clock::now() < until)
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        std::ostringstream oss;
        oss << "injected fault job_wedge: job " << fjob
            << " exceeded its " << limit << "s wall-clock deadline";
        throw JobTimeout(oss.str());
    }
    auto throwInjected = [&faults, fjob] {
        if (fjob >= 0 &&
            faults.fireAt("job_throw",
                          static_cast<std::uint64_t>(fjob))) {
            throw std::runtime_error("injected fault job_throw at job " +
                                     std::to_string(fjob));
        }
        if (fjob >= 0 &&
            faults.fireAt("job_io", static_cast<std::uint64_t>(fjob))) {
            // Transient by definition (fireAt is exactly-once): a
            // retried attempt of the same job succeeds, which is what
            // lets the chaos battery pin the --retries path.
            throw TransientIoError("injected fault job_io at job " +
                                   std::to_string(fjob));
        }
    };

    System system(cfg, makeTraces(benchmark, cfg));
    system.setJobDeadline(jobTimeout);
    const auto t0 = std::chrono::steady_clock::now();

    RunStats stats;
    if (!share_warmup) {
        throwInjected();
        stats = system.run(b.warmup, b.measure);
    } else {
        // Shared warmup prefix: the first arrival for this (benchmark,
        // config, warmup) prefix simulates the warmup and publishes
        // the warm state as an in-memory checkpoint; later arrivals
        // restore it and pay only the measurement window. Restore
        // bit-identity makes both paths produce identical stats.
        const std::string pkey = prefixKey(benchmark, cfg, b);
        bool fromDisk = false;
        const auto [bytes, produced] = shareOnce(
            prefixCache, prefixInflight, pkey,
            [&] {
                // An injected producer throw releases the prefix
                // latch exactly like a real warmup failure, so
                // waiters retry as producers (falling back to a cold
                // warmup) instead of deadlocking.
                throwInjected();
                std::vector<std::uint8_t> warm;
                if (!ckptDir.empty()) {
                    // Disk-backed prefix cache (setCheckpointDir()): another
                    // process may have paid this warmup already.
                    // Validate-before-apply: a refused entry leaves
                    // the System untouched, so the cold-warmup
                    // fallback below starts from pristine state.
                    try {
                        if (loadCacheEntry(pkey, warm)) {
                            system.restoreCheckpointBytes(warm);
                            fromDisk = true;
                        }
                    } catch (const CheckpointError &e) {
                        std::fprintf(
                            stderr,
                            "checkpoint-cache: refusing entry for "
                            "\"%s\": %s — falling back to cold "
                            "warmup\n",
                            pkey.c_str(), e.what());
                    }
                }
                if (!fromDisk) {
                    system.warmup(b.warmup);
                    warm = system.saveCheckpointBytes();
                    if (!ckptDir.empty())
                        saveCacheEntry(pkey, warm); // overwrites a
                                                    // refused entry
                }
                return warm;
            },
            [&](const std::vector<std::uint8_t> &) {
                if (!fromDisk)
                    ++prefixSims;
            });
        if (!produced) {
            throwInjected();
            // prefixCache nodes are never erased, so the pointer
            // stays valid outside the lock.
            system.restoreCheckpointBytes(*bytes);
        }
        stats = system.measure(b.measure);
    }

    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    RunRecord record{benchmark, cfg.describe(), stats,
                     /*traceSource=*/"", system.threadCount(), wall};
    if (share_warmup)
        record.checkpoint = "warm-shared";

    if (verbose) {
        std::fprintf(stderr, "  [run] %-16s %-44s IPC=%.3f\n",
                     benchmark.c_str(), cfg.describe().c_str(),
                     stats.ipc());
    }
    return record;
}

void
ExperimentRunner::commitRecord(const std::string &key, RunRecord record)
{
    std::lock_guard<std::mutex> lk(m);
    runRecords.push_back(record);
    if (!record.errored())
        cache.emplace(key, std::move(record));
}

RunRecord
ExperimentRunner::runJob(const JobSpec &job, long jobIndex, int jobs,
                         std::chrono::steady_clock::time_point submitted,
                         bool memoise)
{
    const double queueWait =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      submitted)
            .count();
    // Containment: a failing attempt becomes this job's error record,
    // so the rest of the batch keeps going and the failure lands in
    // the job's own slot/answer.
    FaultScope scope(jobIndex);
    for (int attempt = 1;; ++attempt) {
        try {
            RunRecord record =
                memoise ? run(job.benchmark, job.cfg, job.budget, job.share)
                        : simulateRecord(job.benchmark, job.cfg,
                                         job.budget, job.share);
            record.jobs = jobs;
            record.jobIndex = jobIndex;
            record.queueWaitSeconds = queueWait;
            record.attempts = attempt;
            return record;
        } catch (const std::exception &e) {
            // Bounded retry: a transient failure re-runs in place
            // through the never-memoise path (a failed run() released
            // its latch); any other failure answers at once.
            if (!transientFaultKind(faultKindOf(e)) || attempt > retries_) {
                RunRecord record;
                record.workload = job.benchmark;
                record.config = job.cfg.describe();
                record.jobs = jobs;
                record.jobIndex = jobIndex;
                record.errorKind = faultKindOf(e);
                record.errorDetail = e.what();
                record.attempts = attempt;
                return record;
            }
        }
        std::this_thread::sleep_for(std::chrono::duration<double>(
            std::ldexp(retryBackoffSeconds, attempt - 1)));
    }
}

const RunStats &
ExperimentRunner::run(const std::string &benchmark, const SystemConfig &cfg)
{
    return run(benchmark, cfg, budget).stats;
}

const RunRecord &
ExperimentRunner::run(const std::string &benchmark, const SystemConfig &cfg,
                      const Budget &b)
{
    return run(benchmark, cfg, b, shareWarmup);
}

const RunRecord &
ExperimentRunner::run(const std::string &benchmark, const SystemConfig &cfg,
                      const Budget &b, bool share_warmup)
{
    const std::string key = jobKey(benchmark, cfg, b, share_warmup);
    auto simulate = [&] {
        RunRecord record = simulateRecord(benchmark, cfg, b, share_warmup);
        // Write-ahead, outside the memo lock: a failed append releases
        // the latch like any other failure, so waiters never hang on a
        // dead commit.
        journalRecord(key, record);
        return record;
    };
    auto commit = [this](const RunRecord &record) {
        runRecords.push_back(record);
    };
    return *shareOnce(cache, inflight, key, simulate, commit).first;
}

double
ExperimentRunner::speedup(const std::string &benchmark,
                          const SystemConfig &cfg,
                          const SystemConfig &base)
{
    const double a = run(benchmark, cfg).ipc();
    const double b = run(benchmark, base).ipc();
    return b > 0.0 ? a / b : 0.0;
}

double
ExperimentRunner::geomeanSpeedup(const std::vector<std::string> &benchmarks,
                                 const SystemConfig &cfg,
                                 const SystemConfig &base)
{
    std::vector<double> speedups;
    speedups.reserve(benchmarks.size());
    for (const auto &bench : benchmarks)
        speedups.push_back(speedup(bench, cfg, base));
    return geomean(speedups);
}

} // namespace bop
