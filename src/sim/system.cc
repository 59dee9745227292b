#include "sim/system.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "common/fault.hh"

namespace bop
{

namespace
{

/** BOP_DISABLE_FASTFORWARD set to anything but "" or "0" forces the
 *  per-cycle reference loop (CI's exactness gate). */
bool
fastForwardDisabledByEnv()
{
    const char *v = std::getenv("BOP_DISABLE_FASTFORWARD");
    return v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0;
}

/** BOP_THREADS set to a positive integer overrides cfg.numThreads
 *  (host-side speed knob; simulated results are identical). */
int
threadsFromEnv(int cfg_threads)
{
    const char *v = std::getenv("BOP_THREADS");
    if (v == nullptr || v[0] == '\0')
        return cfg_threads;
    const int n = std::atoi(v);
    return n >= 1 ? n : cfg_threads;
}

/**
 * Run @p fn over a phase's @p items: on @p pool when @p busy (the items
 * with work) reaches its worker count, else inline in item order.
 * Returns whether the pool ran it.
 */
template <typename F>
bool
runPhase(WorkerPool &pool, std::size_t items, std::size_t busy, F &&fn)
{
    if (busy >= pool.workerCount()) {
        pool.run(items, fn);
        return true;
    }
    for (std::size_t i = 0; i < items; ++i)
        fn(i);
    return false;
}

} // namespace

RunStats
deltaStats(const RunStats &end, const RunStats &begin)
{
    RunStats d = end;
    d.cycles = end.cycles - begin.cycles;
    d.instructions = end.instructions - begin.instructions;
    d.dl1Accesses = end.dl1Accesses - begin.dl1Accesses;
    d.dl1Misses = end.dl1Misses - begin.dl1Misses;
    d.dl1PrefIssued = end.dl1PrefIssued - begin.dl1PrefIssued;
    d.dl1PrefDropTlb = end.dl1PrefDropTlb - begin.dl1PrefDropTlb;
    d.l2Accesses = end.l2Accesses - begin.l2Accesses;
    d.l2Misses = end.l2Misses - begin.l2Misses;
    d.l2PrefetchedHits = end.l2PrefetchedHits - begin.l2PrefetchedHits;
    d.l2PrefIssued = end.l2PrefIssued - begin.l2PrefIssued;
    d.l2PrefDropped = end.l2PrefDropped - begin.l2PrefDropped;
    d.l2PrefFills = end.l2PrefFills - begin.l2PrefFills;
    d.l2LatePromotions = end.l2LatePromotions - begin.l2LatePromotions;
    d.l2PrefUselessEvicted =
        end.l2PrefUselessEvicted - begin.l2PrefUselessEvicted;
    d.l3Accesses = end.l3Accesses - begin.l3Accesses;
    d.l3Misses = end.l3Misses - begin.l3Misses;
    d.l3ChannelStalls = end.l3ChannelStalls - begin.l3ChannelStalls;
    d.dtlb1Misses = end.dtlb1Misses - begin.dtlb1Misses;
    d.tlb2Misses = end.tlb2Misses - begin.tlb2Misses;
    d.branches = end.branches - begin.branches;
    d.branchMispredicts = end.branchMispredicts - begin.branchMispredicts;
    d.dramReads = end.dramReads - begin.dramReads;
    d.dramWrites = end.dramWrites - begin.dramWrites;
    d.dramRowHits = end.dramRowHits - begin.dramRowHits;
    d.dramRowMisses = end.dramRowMisses - begin.dramRowMisses;
    // boLearningPhases etc. are end-of-run state: keep end's values.
    return d;
}

System::System(const SystemConfig &cfg_,
               std::vector<std::unique_ptr<TraceSource>> traces_)
    : cfg(cfg_.resolved()), traces(std::move(traces_)), hier(cfg),
      fastForward(cfg.fastForward && !fastForwardDisabledByEnv()),
      threads(std::min(threadsFromEnv(cfg.numThreads), 64))
{
    if (static_cast<int>(traces.size()) != cfg.activeCores) {
        throw std::invalid_argument(
            "System: need exactly one trace per active core");
    }
    for (int c = 0; c < cfg.activeCores; ++c) {
        cores.push_back(std::make_unique<CoreModel>(
            c, cfg.core, *traces[static_cast<std::size_t>(c)], hier));
        hier.attachCore(c, cores.back().get());
    }
    // Every component starts with its staleness flag set, so these
    // placeholders are refreshed before they are ever consulted.
    coreHorizon.assign(cores.size(), 0);

    // The widest phase has max(cores, channels) items; workers beyond
    // that would only ever park, and farm jobs running many Systems
    // at once would multiply the idle threads.
    const int widest = std::max(cfg.activeCores, cfg.numChannels);
    const int workers = std::min(threads, widest);
    if (workers > 1) {
        pool = std::make_unique<WorkerPool>(
            static_cast<unsigned>(workers));
        coreDue.assign(cores.size(), 1);
    }
}

Cycle
System::nextEventCycle()
{
    // Refresh every stale cache entry — step() bases its tick-or-skip
    // decisions on these values, so none may be left stale here.
    for (std::size_t c = 0; c < cores.size(); ++c) {
        if (cores[c]->horizonStale()) {
            coreHorizon[c] = cores[c]->nextEventAt(now);
            cores[c]->clearHorizonStale();
        }
    }
    if (hier.horizonStale()) {
        hierHorizon = hier.nextEventAt(now);
        hier.clearHorizonStale();
    }

    Cycle ev = hierHorizon;
    for (const Cycle h : coreHorizon)
        ev = std::min(ev, h);
    const Cycle next = now + 1;
    if (ev <= next)
        return next;
    // A horizon of neverCycle means no component has any future work —
    // a genuine deadlock. Cap the jump just past the watchdog window so
    // the deadlock trap fires with its diagnostic instead of the clock
    // leaping to infinity.
    return std::min(ev, now + watchdogCycles + 1);
}

void
System::step()
{
    if (!fastForward) {
        // Reference semantics: tick everything, every cycle.
        ++now;
        if (pool) {
            std::fill(coreDue.begin(), coreDue.end(), 1);
            stepParallel(true);
            return;
        }
        for (auto &core : cores)
            core->tick(now);
        hier.tick(now);
        return;
    }

    const Cycle at = nextEventCycle();
    // When only cores are due for a while (the uncore is idle until
    // hierHorizon) and a retire target bounds the run, batch many core
    // events into one pool epoch instead of paying the epoch barrier
    // per event.
    if (pool && stopTarget != 0 && hierHorizon > at) {
        stepBatchedCores(at);
        return;
    }
    stepAt(at);
}

void
System::stepAt(Cycle at)
{
    epochs.skippedCycles += at - now - 1;
    now = at;
    // Tick only the components whose horizon is due. Skipped ticks are
    // exactly the ones the horizon contract proves are no-ops; ticking
    // anyway would be correct but wasted (the reference loop does, and
    // the equivalence tests pin the two modes against each other).
    if (pool) {
        for (std::size_t c = 0; c < cores.size(); ++c)
            coreDue[c] = coreHorizon[c] <= now ? 1 : 0;
        stepParallel(hierHorizon <= now);
        return;
    }
    for (std::size_t c = 0; c < cores.size(); ++c) {
        if (coreHorizon[c] <= now)
            cores[c]->tick(now);
    }
    if (hierHorizon <= now)
        hier.tick(now);
}

void
System::stepBatchedCores(Cycle at)
{
    // The uncore is quiescent until hierHorizon, so until a core tick
    // pushes it new work, every core's event schedule is independent:
    // a core only observes other cores through the shared uncore, and
    // its pre-batch in-flight requests complete at >= hierHorizon.
    // Each worker therefore advances its cores event-by-event at their
    // own horizons and stops the moment its core hands the uncore work
    // (toL2 depth change) or core 0 hits the retire target. Ticks a
    // core runs beyond the earliest stop are exactly the ticks the
    // serial schedule would run later, unchanged — no input can reach
    // the core in between. The cap keeps runUntilRetired's per-core
    // deadlock watchdog live when the uncore is idle forever.
    const Cycle limit = std::min(hierHorizon, at + watchdogCycles);
    batchStopAt.assign(cores.size(), neverCycle);
    batchTargetAt = neverCycle;
    ++epochs.batched;

    pool->run(cores.size(), [&](std::size_t c) {
        CoreModel &core = *cores[c];
        const CoreId id = static_cast<CoreId>(c);
        const std::size_t work0 = hier.pendingCoreRequests(id);
        Cycle h = coreHorizon[c];
        while (h < limit) {
            core.tick(h);
            const Cycle ticked = h;
            h = core.nextEventAt(ticked);
            core.clearHorizonStale();
            // Both stop conditions are checked on every tick: the tick
            // that pushes uncore work may be the one that retires the
            // target instruction, and the final clock must honor both.
            bool stop = false;
            if (hier.pendingCoreRequests(id) != work0) {
                batchStopAt[c] = ticked;
                stop = true;
            }
            if (c == 0 && core.retired() >= stopTarget) {
                batchTargetAt = ticked; // only item 0 writes it
                stop = true;
            }
            if (stop)
                break;
        }
        coreHorizon[c] = h; // loop-final horizon; stale flag is clear
    });

    Cycle stale_min = neverCycle;
    for (const Cycle s : batchStopAt)
        stale_min = std::min(stale_min, s);

    if (batchTargetAt != neverCycle) {
        // Core 0 hit the target at t0. Another core may have handed
        // the uncore work before t0; the serial schedule would have
        // ticked the hierarchy (and the cores it feeds) in between, so
        // rewind to the earliest stop and replay per-event up to t0.
        // Stopped cores resume at their stored horizons; cores that
        // ran past t0 have horizons beyond it and are not re-ticked.
        const Cycle t0 = batchTargetAt;
        now = std::min(stale_min, t0);
        for (;;) {
            const Cycle next = nextEventCycle();
            if (next > t0)
                break;
            stepAt(next);
        }
        now = t0; // the cycle the run window ends on, exactly serial
        return;
    }

    // No target hit: resume per-event stepping at the earliest cycle a
    // core handed the uncore work (its reaction is due at >= that + 1),
    // or just short of the limit when no core did.
    now = stale_min != neverCycle ? stale_min : limit - 1;
}

void
System::stepParallel(bool hier_due)
{
    const Cycle at = now;
    const std::size_t numCores = cores.size();
    bool pooled = false;

    // Epoch 1: due cores tick, and (hierarchy due) each core's ingress
    // stages run — both touch only that core's side of the hierarchy,
    // plus read-only probes of the quiescent controllers; L2 misses
    // are staged per side instead of crossing into the shared queues.
    std::size_t busy = 0;
    for (std::size_t c = 0; c < numCores; ++c) {
        busy += coreDue[c] ||
                (hier_due &&
                 hier.coreIngressWork(static_cast<CoreId>(c), at));
    }
    pooled |= runPhase(*pool, numCores, busy, [&](std::size_t c) {
        if (coreDue[c])
            cores[c]->tick(at);
        if (hier_due)
            hier.tickCoreIngress(static_cast<CoreId>(c), at);
    });
    if (hier_due) {
        // Serial: merge staged misses in core order, L3 arbitration.
        hier.commitIngress(at);

        // Epoch 2: the channel/bank pairs are mutually independent.
        const int channels = hier.channelCount();
        busy = 0;
        for (int ch = 0; ch < channels; ++ch)
            busy += hier.controller(ch).scheduleDue(at);
        pooled |= runPhase(*pool, static_cast<std::size_t>(channels), busy,
                           [&](std::size_t ch) {
                               hier.tickChannel(static_cast<int>(ch), at);
                           });

        // Serial: DRAM completions, L3 fill drain in global id order.
        hier.drainUncore(at);

        // Epoch 3: per-core egress (L2/DL1 fills, completion callbacks —
        // strictly core-local; L2 victims staged per side).
        busy = 0;
        for (std::size_t c = 0; c < numCores; ++c)
            busy += hier.coreEgressWork(static_cast<CoreId>(c), at);
        pooled |= runPhase(*pool, numCores, busy, [&](std::size_t c) {
            hier.tickCoreEgress(static_cast<CoreId>(c), at);
        });

        // Serial: merge staged L2 victims in core order.
        hier.commitEgress(at);
    }
    ++(pooled ? epochs.pooled : epochs.inlined);
}

void
System::runUntilRetired(std::uint64_t target)
{
    // Watchdog over every active core: a wedged core is a simulator
    // bug wherever it sits, and blaming core 0 for core 3's stall
    // buries the diagnosis. (Thrasher cores retire continuously, so
    // per-core progress is the cheap invariant to watch.)
    const std::size_t n = cores.size();
    std::vector<std::uint64_t> last_retired(n);
    std::vector<Cycle> last_progress(n, now);
    for (std::size_t c = 0; c < n; ++c)
        last_retired[c] = cores[c]->retired();

    // Arm the batched-epoch stop condition for the loop's duration
    // (cleared again on every exit path: step() must never batch past
    // a retire boundary armed by a previous window).
    stopTarget = target;
    const bool deadlineArmed =
        jobDeadline != std::chrono::steady_clock::time_point{};
    std::uint64_t deadlineChecks = 0;
    try {
        while (cores[0]->retired() < target) {
            step();
            // The deadline check is time-based, so sample the clock
            // only every 256 steps — cheap enough to leave armed on
            // every farm job without skewing throughput numbers.
            if (deadlineArmed && (++deadlineChecks & 255) == 0 &&
                std::chrono::steady_clock::now() >= jobDeadline) {
                std::ostringstream oss;
                oss << "System: job exceeded its " << jobDeadlineSeconds
                    << "s wall-clock deadline at cycle " << now
                    << " (core 0 retired " << cores[0]->retired() << "/"
                    << target << ")";
                throw JobTimeout(oss.str());
            }
            for (std::size_t c = 0; c < n; ++c) {
                const std::uint64_t retired = cores[c]->retired();
                if (retired != last_retired[c]) {
                    last_retired[c] = retired;
                    last_progress[c] = now;
                } else if (now - last_progress[c] > watchdogCycles) {
                    std::ostringstream oss;
                    oss << "System: core " << c
                        << " made no progress for "
                        << "1M cycles at cycle " << now << " (retired "
                        << retired;
                    if (c == 0)
                        oss << ", target " << target;
                    oss << ") — deadlock?";
                    throw std::runtime_error(oss.str());
                }
            }
        }
    } catch (...) {
        stopTarget = 0;
        throw;
    }
    stopTarget = 0;
}

void
System::setJobDeadline(double seconds)
{
    jobDeadlineSeconds = seconds;
    jobDeadline =
        seconds > 0.0
            ? std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(seconds))
            : std::chrono::steady_clock::time_point{};
}

RunStats
System::run(std::uint64_t warmup_instr, std::uint64_t measure_instr)
{
    warmup(warmup_instr);
    return measure(measure_instr);
}

void
System::warmup(std::uint64_t warmup_instr)
{
    runUntilRetired(cores[0]->retired() + warmup_instr);
}

RunStats
System::measure(std::uint64_t measure_instr)
{
    RunStats begin = hier.collectStats();
    begin.branches = cores[0]->branchCount();
    begin.branchMispredicts = cores[0]->mispredictCount();
    const Cycle start_cycle = now;
    const std::uint64_t start_instr = cores[0]->retired();

    runUntilRetired(start_instr + measure_instr);

    RunStats end = hier.collectStats();
    end.branches = cores[0]->branchCount();
    end.branchMispredicts = cores[0]->mispredictCount();

    RunStats d = deltaStats(end, begin);
    d.cycles = now - start_cycle;
    d.instructions = cores[0]->retired() - start_instr;
    return d;
}

} // namespace bop
