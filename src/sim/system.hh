/**
 * @file
 * Top-level simulated system: N active cores (the paper evaluates 1, 2
 * and 4, Sec. 5.1; the topology is runtime configuration), each driven
 * by its own trace source, sharing the uncore. All reported numbers are
 * for core 0; the other active cores run the cache-thrashing
 * micro-benchmark, as in the paper. The SystemConfig topology is
 * validated at construction (std::invalid_argument on inconsistency).
 */

#ifndef BOP_SIM_SYSTEM_HH
#define BOP_SIM_SYSTEM_HH

#include <chrono>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "sim/config.hh"
#include "sim/core_model.hh"
#include "sim/mem_hierarchy.hh"
#include "sim/parallel.hh"
#include "trace/trace.hh"

namespace bop
{

/**
 * Counter delta helper: subtract the cumulative counters in @p begin
 * from @p end (non-cumulative fields are copied from @p end).
 */
RunStats deltaStats(const RunStats &end, const RunStats &begin);

/**
 * How System's engine ran (observation only: the counts depend on the
 * schedule, never the reverse; host-side, outside RunStats, so they
 * move no stats digest). The epoch counts are zero on the serial path.
 */
struct EpochCounters
{
    /** Per-event epochs with at least one phase on the worker pool. */
    std::uint64_t pooled = 0;
    /** Per-event epochs run entirely on the calling thread. */
    std::uint64_t inlined = 0;
    /** Batched fast-forward core epochs (always on the pool). */
    std::uint64_t batched = 0;
    /** Uncore (MemHierarchy) ticks run. */
    std::uint64_t hierarchyTicks = 0;
    /** Cycles the per-event clock jumped over with no component
     *  ticking (a step from t to t + k skips k - 1). */
    std::uint64_t skippedCycles = 0;
    /** Uncore ticks skipped because the stall latch showed they would
     *  only re-poll a blocked head (MemHierarchy::nextEventAt). */
    std::uint64_t stalledSkips = 0;
};

/** The simulated chip. */
class System
{
  public:
    /**
     * @param cfg     system configuration
     * @param traces  one trace source per active core (core 0 first)
     */
    System(const SystemConfig &cfg,
           std::vector<std::unique_ptr<TraceSource>> traces);

    /**
     * Warm up for @p warmup_instr core-0 instructions, then measure
     * @p measure_instr instructions and return the window's statistics.
     * Equivalent to warmup() followed by measure().
     */
    RunStats run(std::uint64_t warmup_instr, std::uint64_t measure_instr);

    /** Advance core 0 by @p warmup_instr retired instructions. */
    void warmup(std::uint64_t warmup_instr);

    /**
     * Measure the next @p measure_instr core-0 instructions. The
     * baseline counters are sampled at call time, so measuring after a
     * checkpoint restore yields the same deltas as an uninterrupted
     * warmup+measure run.
     */
    RunStats measure(std::uint64_t measure_instr);

    /**
     * Arm a wall-clock deadline @p seconds from now for the
     * run()/warmup()/measure() windows that follow: a window still
     * running past the deadline throws JobTimeout (common/fault.hh),
     * which the harness layers convert into a per-job error record
     * instead of letting one wedged simulation stall a whole batch.
     * Complements the per-core retire watchdog, which catches cores
     * that stop making progress but not runs that progress too slowly
     * to ever finish. seconds <= 0 disarms. The deadline is host-side
     * only: simulated statistics of runs that finish are unaffected.
     */
    void setJobDeadline(double seconds);

    /**
     * Write the complete warm microarchitectural state to @p path in
     * the BOPCKPT1 format (docs/CHECKPOINT_FORMAT.md). Defined in
     * src/harness/checkpoint.cc; link bop_harness to use.
     */
    void saveCheckpoint(const std::string &path);

    /** saveCheckpoint() into a byte buffer (tests, in-memory sharing). */
    std::vector<std::uint8_t> saveCheckpointBytes();

    /**
     * Restore state saved by saveCheckpoint(). The System must have
     * been constructed with the same topology/config fingerprint and
     * the same traces; throws CheckpointError (with the offending byte
     * offset) on any mismatch, truncation or corruption — the system
     * is not modified unless the whole checkpoint validates.
     */
    void restoreCheckpoint(const std::string &path);

    /** restoreCheckpoint() from a byte buffer. */
    void restoreCheckpointBytes(const std::vector<std::uint8_t> &bytes);

    /**
     * Advance the whole system to the next cycle in which anything can
     * happen. With fast-forward enabled (the default) that is the
     * event-horizon minimum over all components — the clock may jump
     * by more than one cycle over provably idle stretches, with
     * bit-identical simulated statistics; with it disabled (config or
     * BOP_DISABLE_FASTFORWARD) exactly one cycle.
     */
    void step();

    /**
     * The cycle the next step() will tick at: the minimum over every
     * component's nextEventAt horizon, clamped to at most
     * watchdogCycles + 1 ahead so a dead system still reaches the
     * deadlock trap. Refreshes the stale entries of the horizon cache
     * (hence not const). Exposed for the fast-forward soundness tests.
     */
    Cycle nextEventCycle();

    /** True when event-horizon fast-forward is active for this run. */
    bool fastForwardEnabled() const { return fastForward; }

    /**
     * Worker threads requested for this System (cfg.numThreads,
     * possibly overridden by BOP_THREADS). 1 = the serial path, no
     * pool. The pool itself is capped at the widest phase —
     * max(active cores, channels) workers — since workers beyond it
     * would never receive an item; see poolWorkers().
     */
    int threadCount() const { return threads; }

    /** Workers the epoch pool actually runs (1 = no pool). */
    int poolWorkers() const
    {
        return pool ? static_cast<int>(pool->workerCount()) : 1;
    }

    /** Cumulative engine counts (tests, profiling). */
    EpochCounters
    epochCounters() const
    {
        EpochCounters e = epochs;
        e.hierarchyTicks = hier.ticksRun();
        e.stalledSkips = hier.stalledTicksSkipped();
        return e;
    }

    /** Progress window of the per-core deadlock watchdog. */
    static constexpr Cycle watchdogCycles = 1000000;

    Cycle currentCycle() const { return now; }
    MemHierarchy &hierarchy() { return hier; }
    CoreModel &core(CoreId id)
    {
        return *cores.at(static_cast<std::size_t>(id));
    }
    /** Trace source driving core @p id (checkpoint fingerprinting). */
    TraceSource &traceSource(CoreId id)
    {
        return *traces.at(static_cast<std::size_t>(id));
    }
    int coreCount() const { return static_cast<int>(cores.size()); }
    const SystemConfig &config() const { return cfg; }

  private:
    /** Run until core 0 has retired @p target instructions in total. */
    void runUntilRetired(std::uint64_t target);

    /**
     * Set the clock to @p at and tick every component whose horizon is
     * due (the single-event core of the fast-forward step, shared by
     * step() and the batched-epoch replay drain).
     */
    void stepAt(Cycle at);

    /**
     * Batched fast-forward core epochs: when the pool is active, a
     * retire target is set and the uncore is provably idle until
     * hierHorizon, one pool epoch advances every core through many
     * successive events instead of paying the epoch barrier per
     * event. Each worker ticks its cores at their own horizons while
     * (a) the core hands the uncore no new work (its toL2 depth is
     * unchanged — cross-core timing stays exact) and (b) core 0 has
     * not hit the retire target. Afterwards the
     * clock rewinds to the earliest stop and the normal per-event path
     * replays from there, so simulated state and statistics are
     * bit-identical to the serial schedule. @p at is the entry event
     * cycle (== nextEventCycle()); requires hierHorizon > at.
     */
    void stepBatchedCores(Cycle at);

    /**
     * One clock tick as a barrier-synchronized parallel epoch on the
     * worker pool. Due cores and — when the hierarchy is due — the
     * per-core ingress phases tick concurrently, then the serial
     * ingress commit, then the channel/bank pairs in parallel, the
     * serial uncore drain, the per-core egress phases in parallel and
     * the serial egress commit. Bit-identical to the serial tick: the
     * parallel phases touch disjoint per-core/per-channel state and
     * every cross-shard hand-off moves at a serial commit point in
     * global arrival order.
     *
     * Work gating: a phase goes to the pool only when at least
     * workerCount() of its items have work (MemHierarchy's work
     * hints). A typical event has one or two due cores and a few
     * microseconds of work, less than one cross-CPU wake-up, so
     * smaller phases run on the calling thread, in item order — the
     * serial call sequence.
     */
    void stepParallel(bool hier_due);

    SystemConfig cfg;
    std::vector<std::unique_ptr<TraceSource>> traces;
    MemHierarchy hier;
    std::vector<std::unique_ptr<CoreModel>> cores;
    Cycle now = 0;
    bool fastForward = true; ///< cfg.fastForward minus the env override
    int threads = 1;         ///< cfg.numThreads with BOP_THREADS applied
    std::unique_ptr<WorkerPool> pool; ///< null when one worker suffices
    std::vector<char> coreDue; ///< per-core due flags for stepParallel
    EpochCounters epochs;

    /**
     * Cached per-component horizons (fast-forward only). A component's
     * cached value stays valid until its horizonStale() flag reports a
     * state change: its own tick, or a cross-component callback
     * (loadCompleted/storeCompleted into a core, coreLoad/coreStore
     * into the uncore). nextEventCycle() refreshes stale entries;
     * step() then ticks only the components whose horizon is due —
     * skipping a tick before a component's horizon is exactly the
     * no-op the horizon contract guarantees it would have been.
     */
    std::vector<Cycle> coreHorizon;
    Cycle hierHorizon = 0;

    /**
     * Core-0 retire target of the runUntilRetired() in progress (0 =
     * none). Batched epochs only fire while a target is set, so tests
     * driving step() directly keep the one-event-per-step contract.
     */
    std::uint64_t stopTarget = 0;
    /** Per-core batch stop cycles (neverCycle = ran to the limit). */
    std::vector<Cycle> batchStopAt;
    /** Cycle core 0 hit stopTarget within the batch, or neverCycle. */
    Cycle batchTargetAt = neverCycle;

    /** Wall-clock deadline armed by setJobDeadline() (unarmed: zero). */
    std::chrono::steady_clock::time_point jobDeadline{};
    double jobDeadlineSeconds = 0.0; ///< for the timeout message
};

} // namespace bop

#endif // BOP_SIM_SYSTEM_HH
