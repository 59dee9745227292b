/**
 * @file
 * The full memory hierarchy of the simulated chip (paper Sec. 5): per
 * active core a DL1 + private L2 with fill queue, stride prefetcher, L2
 * prefetcher with 8-entry prefetch queue, two-level TLBs and a
 * randomised page table; a shared non-inclusive L3 with its own fill
 * queue and the 5P (or LRU/DRRIP) replacement policy; M DDR3 channels
 * with fairness-aware controllers. Core and channel counts are runtime
 * topology from SystemConfig (the paper's chip is 4 cores x 2
 * channels), validated at construction.
 *
 * The L2-miss-to-L3 demand path is sharded per DRAM channel: each
 * channel owns its own pending-request queue, and the L3 stage
 * arbitrates between the channel heads in global arrival order with a
 * per-cycle budget that scales with the channel count, as does the L3
 * fill queue capacity (it bounds all in-flight DRAM reads). A full
 * fill queue is global backpressure and stops the stage, exactly as
 * before; a full per-core read queue in one controller is
 * channel-local congestion and parks only that channel's shard for
 * the cycle (counted in RunStats::l3ChannelStalls), so imbalanced
 * traffic on wide chips no longer serializes the other channels.
 *
 * The L3 tag array itself is banked per DRAM channel whenever the
 * channel XOR-fold is a pure function of the set index (4 k-bit fields
 * at line bits [2, 2+4k) all inside the set index — true for the
 * default 8 MB cache up to 4 channels; wider chips fall back to one
 * bank). Each bank pairs with its channel's demand shard and memory
 * controller and owns its slice of the tag array, its replacement-
 * policy instance, its bank of the (architecturally single) fill
 * queue, victim-writeback routing to its own controller, and a stats
 * shard; the shards merge deterministically in collectStats(). State
 * that is architecturally global to the LLC — the 5P/DRRIP counters
 * and BIP RNG, fill-queue capacity/ids — stays shared across banks,
 * so a banked cache is bit-identical to the monolithic one.
 *
 * tick() is decomposed into barrier-friendly phases so System can run
 * the per-core and per-channel phases on a worker pool: tickCoreIngress
 * (core c only touches side c; L2 misses are staged per side),
 * commitIngress (serial: merge staged misses in core order, stamp
 * global seqs, L3 demand/prefetch arbitration), tickChannel (each
 * controller independent), drainUncore (serial: completions, L3 fill
 * drain in global id order, L2 writebacks), tickCoreEgress (L2/DL1
 * fills, per-side; L2 victims staged), commitEgress (serial merge).
 * Cross-shard hand-offs therefore move only at the serial commit
 * points, in global arrival order, which is what keeps the parallel
 * schedule bit-identical to the serial one.
 *
 * The fill-queue protocol is the paper's MSHR-free design (Sec. 5.4):
 * entries are allocated when a miss issues to the next level, released
 * when that level misses too, refilled when data returns, and CAM
 * searches promote in-flight prefetches hit by demand misses. Prefetch
 * requests have lowest priority into the L3 and can be cancelled any
 * time (oldest-first when the 8-entry prefetch queue overflows).
 *
 * Deadlock freedom: fill queues keep two slots in reserve that pure
 * "waiting" allocations may not use, dirty victims of the L2 drain into
 * an unbounded (in practice tiny) writeback buffer, and the memory
 * controllers drain independently — so every blocked queue eventually
 * observes progress downstream.
 */

#ifndef BOP_SIM_MEM_HIERARCHY_HH
#define BOP_SIM_MEM_HIERARCHY_HH

#include <atomic>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "cache/cache.hh"
#include "cache/fill_queue.hh"
#include "cache/mshr.hh"
#include "cache/prefetch_queue.hh"
#include "cache/req.hh"
#include "common/stats.hh"
#include "dram/mem_controller.hh"
#include "prefetch/l2_prefetcher.hh"
#include "prefetch/stride.hh"
#include "sim/config.hh"
#include "sim/core_model.hh"
#include "sim/tlb.hh"
#include "sim/vmem.hh"

namespace bop
{

/** Builds the L3 replacement policy selected by the config. */
std::unique_ptr<ReplacementPolicy> makeL3Policy(const SystemConfig &cfg);

/** Builds the L2 prefetcher selected by the config. */
std::unique_ptr<L2Prefetcher> makeL2Prefetcher(const SystemConfig &cfg);

/** The complete uncore + DL1s. */
class MemHierarchy : public CoreMemInterface
{
  public:
    explicit MemHierarchy(const SystemConfig &cfg);

    /** Register the core object completion callbacks are routed to. */
    void attachCore(CoreId core, CoreModel *model);

    // -- CoreMemInterface ---------------------------------------------------
    LoadOutcome coreLoad(CoreId core, Addr vaddr, Addr pc,
                         std::uint32_t rob_tag, Cycle now) override;
    StoreOutcome coreStore(CoreId core, Addr vaddr, Addr pc,
                           Cycle now) override;
    void retireMemOp(CoreId core, Addr pc, Addr vaddr) override;

    /** Advance the uncore one core cycle. */
    void tick(Cycle now);

    // -- parallel-epoch phases (System's worker pool) ------------------------
    // tick(now) == for all cores: tickCoreIngress; commitIngress;
    //              for all channels: tickChannel; drainUncore;
    //              for all cores: tickCoreEgress; commitEgress.
    // The per-core and per-channel phases touch only that core's /
    // channel's state (plus read-only probes of quiescent controllers
    // and core-0 stats only side 0 writes), so System may run them
    // concurrently between the serial commit phases.
    void tickCoreIngress(CoreId core, Cycle now);
    void commitIngress(Cycle now);
    void tickChannel(int channel, Cycle now);
    void drainUncore(Cycle now);
    void tickCoreEgress(CoreId core, Cycle now);
    void commitEgress(Cycle now);

    // Work gates for the per-core phases above (tickChannel's hint is
    // MemoryController::scheduleDue): whether the phase would find
    // anything due at @p now. tickCoreIngress/tickCoreEgress return at
    // once without work, on the serial tick and the parallel engine
    // alike, and System sends a phase to its worker pool only when
    // enough items have work. A gated-off phase would have been a
    // no-op, so the gates cannot change results.
    bool coreIngressWork(CoreId core, Cycle now) const;
    bool coreEgressWork(CoreId core, Cycle now) const;

    /**
     * Earliest cycle > @p now at which any uncore component can act
     * (event-horizon fast-forward); neverCycle when every queue is
     * empty and every controller idle. Time-gated queues (fill queues
     * with data, prefetch queues, DL1 deliveries, the inter-level
     * request queues) report their min-readyAt; the writeback buffers
     * report "due now" while occupied. Contract: ticking the hierarchy
     * at any cycle strictly between @p now and the returned horizon
     * would change no state.
     *
     * Stall latch: when the last tick made no progress (see
     * stallLatched), every head that was due at it was structurally
     * blocked — a full fill, read or write queue — and stays blocked
     * until another component's event frees the resource: a DRAM
     * completion or bus edge, an L2 fill's readyAt, or a later tick's
     * progress. Those events are folded as usual, so the blocked heads
     * (sources due at or before that tick) are dropped instead of
     * pinning the horizon to now + 1.
     */
    Cycle nextEventAt(Cycle now) const;

    /** True while the stall latch is armed: the last tick made no
     *  progress (tests). */
    bool stalled() const { return stallLatched; }

    /** Hierarchy ticks run so far (host-side engine counter). */
    std::uint64_t ticksRun() const { return ticks; }

    /**
     * Cycles the stall latch let fast-forward skip: ticks that would
     * have re-polled a blocked head and changed nothing (host-side
     * engine counter, not checkpointed).
     */
    std::uint64_t stalledTicksSkipped() const { return stalledSkips; }

    /** True when uncore state changed since clearHorizonStale() (own
     *  tick, or a core-side entry point pushed work in). Atomic only
     *  because concurrently ticking cores may all set it; reads happen
     *  on the serial path. */
    bool horizonStale() const
    {
        return horizonStaleFlag.load(std::memory_order_relaxed);
    }
    void clearHorizonStale()
    {
        horizonStaleFlag.store(false, std::memory_order_relaxed);
    }

    /**
     * Requests queued from @p core into the uncore (its toL2 FIFO
     * depth). Every core-tick entry point that hands the hierarchy
     * work (coreLoad, coreStore, the DL1 prefetcher) lands here, so a
     * depth change is exactly "this core's tick produced uncore work"
     * — the stop condition of System's batched fast-forward epochs.
     * Reads only the caller's own side, so concurrent per-core ticks
     * may poll it race-free.
     */
    std::size_t pendingCoreRequests(CoreId core) const
    {
        return sides[static_cast<std::size_t>(core)]->toL2.size();
    }

    /** Cumulative counters (take deltas across windows for results). */
    RunStats collectStats() const;

    /** True when no request is in flight anywhere (tests). */
    bool quiescent() const;

    /**
     * Checkpoint every core side (caches, MSHRs, queues, prefetchers,
     * TLBs), the L3 banks with their shared fill-queue group and
     * policy-global state, the inter-level queues and the cumulative
     * stats. The per-phase staging buffers are empty between ticks and
     * are not saved; the cached horizons are marked stale on restore.
     * DRAM controller state is a separate section: serializeDram().
     */
    void serialize(Serializer &s);

    /** Checkpoint all memory controllers (bus, banks, queues). */
    void serializeDram(Serializer &s);

    // -- component access (tests, examples) ---------------------------------
    SetAssocCache &dl1(CoreId core) { return side(core).dl1; }
    SetAssocCache &l2(CoreId core) { return side(core).l2; }
    /** The L3 bank holding @p line (the only bank when un-banked). */
    SetAssocCache &l3(LineAddr line = 0) { return bankFor(line).cache; }
    /** Number of L3 banks (numChannels when banked, else 1). */
    int l3BankCount() const { return static_cast<int>(l3Banks.size()); }
    /** Direct bank access (tests). */
    SetAssocCache &l3BankCache(int b)
    {
        return l3Banks[static_cast<std::size_t>(b)]->cache;
    }
    /** Bank index of @p line (0 when un-banked). */
    int l3BankOf(LineAddr line) const
    {
        return l3Banks.size() > 1 ? channelOf(line) : 0;
    }
    L2Prefetcher &l2Prefetcher(CoreId core) { return *side(core).l2pf; }
    MemoryController &controller(int channel)
    {
        return *mcs[static_cast<std::size_t>(channel)];
    }
    int channelCount() const { return static_cast<int>(mcs.size()); }
    const SystemConfig &config() const { return cfg; }

  private:
    /** A request travelling between cache levels. */
    struct PendingReq
    {
        LineAddr line = 0;
        ReqMeta meta;
        Cycle readyAt = 0;
        std::uint64_t seq = 0; ///< global arrival order (L3 path only)
    };

    /** A block scheduled to be written into a DL1. */
    struct Dl1Delivery
    {
        LineAddr line = 0;
        ReqMeta meta;
        Cycle at = 0;
    };

    /** Everything private to one core. */
    struct CoreSide
    {
        CoreSide(const SystemConfig &cfg, CoreId id);

        CoreId id;
        SetAssocCache dl1;
        SetAssocCache l2;
        MshrFile mshr;
        FillQueue l2Fill;
        PrefetchQueue prefetchQueue;
        std::unique_ptr<L2Prefetcher> l2pf;
        std::optional<StridePrefetcher> stride;
        TlbHierarchy tlb;
        VirtualMemory vmem;

        std::deque<PendingReq> toL2;     ///< DL1 misses / L1 prefetches
        std::deque<LineAddr> wbToL2;     ///< DL1 dirty victims
        std::deque<Dl1Delivery> dl1Due;  ///< blocks headed into the DL1

        /**
         * Cross-shard hand-offs produced by this side's parallel
         * phases, merged into the global queues (seq-stamped, core
         * order) at the next serial commit phase.
         */
        std::vector<PendingReq> stagedToL3;
        std::vector<std::pair<LineAddr, CoreId>> stagedWbToL3;

        /** Per-side scratch for the L2 prefetcher's proposals (must
         *  not be shared: sides tick concurrently). */
        std::vector<LineAddr> prefetchScratch;

        /**
         * Horizon sub-cache: this side's time-gated sources in
         * absolute cycles (0 = due now, neverCycle = none), recomputed
         * by nextEventAt only when something mutated the side. Saves
         * the per-side queue scans on the many calls where only one or
         * two sides moved. The heads a full queue can block (the DL1
         * writeback buffer, the toL2 head, the prefetch-queue head)
         * stay apart from the fills, which always drain, so the stall
         * latch can drop a blocked head without hiding a later fill.
         */
        Cycle wbHead = neverCycle;
        Cycle toL2Head = neverCycle;
        Cycle prefetchHead = neverCycle;
        Cycle fillHorizon = neverCycle; ///< L2 fill data, DL1 deliveries
        bool horizonDirty = true;

        /** A tick stage changed this side (stall latch input). Written
         *  by this side's phases and the serial ones; merged and
         *  cleared at commitEgress. */
        bool progress = false;
    };

    /**
     * One L3 bank: a slice of the tag array paired with one DRAM
     * channel, its own replacement-policy instance (sharing LLC-global
     * counter/RNG state with its siblings), its bank of the fill queue
     * (sharing capacity/ids via FillQueueGroup), and a stats shard.
     */
    struct L3Bank
    {
        L3Bank(std::string name, std::size_t sets, unsigned ways,
               std::unique_ptr<ReplacementPolicy> policy,
               const SetIndexFold &fold, FillQueueGroup &group)
            : cache(std::move(name), sets, ways, std::move(policy), fold),
              fill(cache.cacheName() + ".fq", group)
        {
        }

        SetAssocCache cache;
        FillQueue fill;
        // Core-0-attributed counters (merged in collectStats).
        std::uint64_t l3Accesses = 0;
        std::uint64_t l3Misses = 0;
        std::uint64_t l3ChannelStalls = 0; ///< all-cores, like RunStats
    };

    // -- per-cycle stages ---------------------------------------------------
    void processWbToL2(CoreSide &cs, Cycle now);
    void processToL2(CoreSide &cs, Cycle now);
    void processToL3(Cycle now);
    void processPrefetchQueues(Cycle now);
    void drainDramCompletions(Cycle now);
    bool drainOneL3Fill(Cycle now);
    void processWbToL3(Cycle now);
    void drainL2Fill(CoreSide &cs, Cycle now);
    void processDl1Deliveries(CoreSide &cs, Cycle now);

    // -- helpers -------------------------------------------------------------
    /** A tick stage changed @p cs: its cached horizon is stale and the
     *  tick made progress. (Core entry points only mark the horizon.) */
    static void
    touched(CoreSide &cs)
    {
        cs.horizonDirty = true;
        cs.progress = true;
    }
    void triggerL2Prefetcher(CoreSide &cs, const L2AccessEvent &ev);
    void issueL1Prefetch(CoreSide &cs, Addr pc, Addr vaddr, Cycle now);
    void deliverToDl1(CoreSide &cs, LineAddr line, const ReqMeta &meta,
                      Cycle at);
    int channelOf(LineAddr line) const;

    CoreSide &side(CoreId core)
    {
        return *sides[static_cast<std::size_t>(core)];
    }

    L3Bank &bankFor(LineAddr line)
    {
        return *l3Banks[static_cast<std::size_t>(l3BankOf(line))];
    }

    /** True when any bank's (i.e. the group's) fill queue is full. */
    bool l3FillFull() const
    {
        return l3FillGroup->liveEntries >= l3FillGroup->capacity;
    }

    /** Live entries across all fill-queue banks. */
    std::size_t l3FillSize() const { return l3FillGroup->liveEntries; }

    /** Build the per-bank replacement policies (shared global state). */
    std::vector<std::unique_ptr<ReplacementPolicy>>
    makeL3BankPolicies(std::size_t num_banks,
                       const std::vector<std::vector<std::size_t>>
                           &bank_global_sets) const;

    SystemConfig cfg;          ///< resolved topology (numCores concrete)
    std::vector<std::unique_ptr<CoreSide>> sides;
    /** Shared capacity/occupancy/ids of the banked L3 fill queue. */
    std::unique_ptr<FillQueueGroup> l3FillGroup;
    /** The L3, banked per channel when the channel map allows it. */
    std::vector<std::unique_ptr<L3Bank>> l3Banks;
    std::vector<std::unique_ptr<MemoryController>> mcs;

    /** Demand L2 misses, sharded per DRAM channel. */
    std::vector<std::deque<PendingReq>> toL3;
    std::uint64_t toL3Seq = 0; ///< global arrival-order stamp
    std::deque<std::pair<LineAddr, CoreId>> wbToL3; ///< L2 dirty victims

    std::vector<CoreModel *> cores;
    unsigned prefetchRr = 0;   ///< round-robin over cores' prefetch queues
    Cycle lastTicked = 0;      ///< gap detection (fast-forward catch-up)
    std::atomic<bool> horizonStaleFlag = true; ///< see horizonStale()
    /** l3FillFull() latched by commitIngress for the channel phase. */
    bool l3FillWasFull = false;
    RunStats stats;            ///< cumulative core-0 + chip counters
    std::vector<char> chanStalled; ///< per-channel scratch (processToL3)

    /**
     * Stall latch. A tick makes progress when any stage pops,
     * allocates, fills, delivers, completes a DRAM read, runs a
     * controller scheduling step or counts a channel stall (skipping
     * that tick would lose the count). The flags are kept per shard so
     * the parallel phases never share one: per side (CoreSide::
     * progress), per channel, and one for the serial phases; they
     * merge at commitEgress. A tick without progress arms the latch,
     * and the next tick (or a restore) disarms it. The only state a
     * no-progress tick moves is prefetchRr, which commitIngress
     * catches up over a skipped gap.
     */
    bool uncoreProgress = false;
    std::vector<char> channelProgress;
    bool stallLatched = false;
    /** nextEventAt dropped a blocked head under the latch (counter
     *  input; refreshed by every nextEventAt call). */
    mutable bool latchDropped = false;
    std::uint64_t ticks = 0;        ///< see ticksRun()
    std::uint64_t stalledSkips = 0; ///< see stalledTicksSkipped()

    // per-cycle processing budgets; the L3-stage budgets are per
    // channel pair, so the paper's 2-channel chip gets exactly the
    // historical 4 demands + 2 prefetches per cycle and wider
    // topologies scale proportionally.
    static constexpr unsigned l2ReqsPerCycle = 3;
    static constexpr unsigned l3DemandsPerCycle = 4;
    static constexpr unsigned l3PrefetchesPerCycle = 2;
    static constexpr unsigned l3FillsPerCycle = 2;
    static constexpr unsigned l2FillsPerCycle = 2;
    static constexpr unsigned wbPerCycle = 2;

    /** Budget multiplier for the sharded L3 stage. */
    unsigned
    channelLanes() const
    {
        const unsigned ch = static_cast<unsigned>(cfg.numChannels);
        return ch > 2 ? ch / 2 : 1;
    }

    bool anyToL3() const;
};

} // namespace bop

#endif // BOP_SIM_MEM_HIERARCHY_HH
