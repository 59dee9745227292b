/**
 * @file
 * Per-channel memory controller (paper Sec. 5.3).
 *
 * Each channel has its own controller working independently. For
 * fairness, every core owns a 32-entry read queue and a 32-entry write
 * queue in each controller. Scheduling:
 *
 *  - steady mode: a "served core" is selected through four 7-bit
 *    proportional counters (one per core, incremented when a read from
 *    that core issues). The served core changes only when a write queue
 *    fills up or when the served core has no pending read hitting an
 *    open row buffer. Reads use FR-FCFS; rows are left open. Writes
 *    drain in batches of 16, selected out-of-order for row locality
 *    and bank parallelism.
 *  - urgent mode (preempts steady): the lagging core is the one with
 *    the smallest counter among non-empty read queues; if the L3 fill
 *    queue is not full and served-minus-lagging counter difference
 *    exceeds 31, a lagging-core read issues instead.
 *
 * Demand and prefetch reads are treated identically. The read queues
 * are associatively searched before insertion (redundant prefetch
 * removal, Sec. 6.3 footnote).
 */

#ifndef BOP_DRAM_MEM_CONTROLLER_HH
#define BOP_DRAM_MEM_CONTROLLER_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "cache/req.hh"
#include "common/prop_counter.hh"
#include "common/types.hh"
#include "dram/address_map.hh"
#include "dram/dram_timing.hh"

namespace bop
{

/** Aggregate DRAM statistics for one channel. */
struct DramChannelStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    std::uint64_t urgentIssues = 0;
    std::uint64_t writeBatches = 0;
};

/** A finished read travelling back up the hierarchy. */
struct CompletedRead
{
    LineAddr line = 0;
    ReqMeta meta;
    Cycle finishCycle = 0; ///< core cycle the data is available at the L3
};

/** One memory channel's controller + timing state. */
class MemoryController
{
  public:
    /** Queue capacity per core per direction (Table 1). */
    static constexpr std::size_t queueCapacity = 32;
    /** Write-drain batch size (Sec. 5.3). */
    static constexpr int writeBatchSize = 16;
    /** Urgent-mode counter-difference threshold (Sec. 5.3). */
    static constexpr std::uint32_t urgentThreshold = 31;

    /**
     * @param timing     DDR3 timing parameters
     * @param channel_id this channel's index
     * @param num_cores  cores sharing the channel: one read queue, one
     *                   write queue and one fairness counter each
     *                   (deliberately no default — the queues index by
     *                   CoreId unchecked, so the topology must be
     *                   stated explicitly)
     */
    MemoryController(const DramTiming &timing, int channel_id,
                     int num_cores);

    // -- enqueue side -----------------------------------------------------
    bool readQueueFull(CoreId core) const;
    bool writeQueueFull(CoreId core) const;
    /** Associative search of all read queues (prefetch dedup). */
    bool readQueueContains(LineAddr line) const;
    void enqueueRead(LineAddr line, const ReqMeta &meta, Cycle now);
    void enqueueWrite(LineAddr line, CoreId core, Cycle now);

    /** Urgent mode needs to know whether the L3 fill queue has room. */
    void setL3FillQueueFull(bool full) { l3FillFull = full; }

    // -- scheduling --------------------------------------------------------
    /**
     * Advance to @p now (core cycles); schedules on bus-cycle edges.
     * Returns whether a scheduling step ran, which issues a request or
     * closes a drained write batch (the hierarchy's stall latch counts
     * it as progress).
     */
    bool tick(Cycle now);

    /**
     * Earliest core cycle > @p now at which this controller can act:
     * the next bus edge inside the scheduling look-ahead window while
     * any request is queued (or a write-drain batch is open), or the
     * completion time of a finished read awaiting pickup. neverCycle
     * when fully idle. Contract (event-horizon fast-forward): ticking
     * at any cycle strictly between @p now and the returned horizon
     * would neither issue a request nor complete one.
     */
    Cycle nextEventAt(Cycle now) const;

    /**
     * Whether tick(@p now) would run a scheduling step: @p now is a
     * bus edge, a request is queued or a write drain is open, and the
     * command stream is inside its look-ahead window. A cheap hint for
     * the parallel engine's phase gating (every other tick only
     * advances the bus-edge counters); it never decides what tick()
     * does.
     */
    bool
    scheduleDue(Cycle now) const
    {
        const unsigned ratio = timing.params().busRatio;
        return now % ratio == 0 && !schedulerIdle() &&
               inLookahead(now / ratio);
    }

    /** Drain reads whose data is available by @p now. */
    std::vector<CompletedRead> popCompleted(Cycle now);

    /**
     * Cheap per-tick gate for the completion drain: most cycles finish
     * no read, and the caller should not pay a vector round trip to
     * learn that.
     */
    bool hasCompletedReads() const { return !completedReads.empty(); }

    /**
     * Earliest finishCycle among completed-but-unclaimed reads
     * (neverCycle when none). Scheduled reads sit here until their
     * data-bus burst ends, so this gates the per-tick drain — and it
     * is the completion half of nextEventAt().
     */
    Cycle nextCompletionAt() const { return minFinishAt; }

    // -- observability -----------------------------------------------------
    const DramChannelStats &stats() const { return chanStats; }
    CoreId servedCore() const { return served; }
    int coreCount() const { return static_cast<int>(readQueues.size()); }
    std::size_t readQueueSize(CoreId core) const;
    std::size_t writeQueueSize(CoreId core) const;
    bool anyPending() const;

    /**
     * Checkpoint queues, fairness counters, scheduling mode, bank/bus
     * timing and completed-but-unclaimed reads. The incrementally
     * maintained counts and bus-edge bookkeeping are serialized (not
     * rebuilt) so the restored controller is field-identical.
     */
    void
    serialize(Serializer &s)
    {
        const std::size_t cores = readQueues.size();
        timing.serialize(s);
        for (auto &q : readQueues) {
            s.seq(q, [](Serializer &sr, ReadReq &r) {
                sr.value(r.line);
                r.meta.serialize(sr);
                sr.value(r.enqueued);
                sr.value(r.coord.channel);
                sr.value(r.coord.bank);
                sr.value(r.coord.rowOffset);
                sr.value(r.coord.row);
            });
            if (s.loading() && q.size() > queueCapacity)
                s.fail("DRAM read queue over capacity");
        }
        for (auto &q : writeQueues) {
            s.seq(q, [](Serializer &sr, WriteReq &w) {
                sr.value(w.line);
                sr.value(w.core);
                sr.value(w.enqueued);
                sr.value(w.coord.channel);
                sr.value(w.coord.bank);
                sr.value(w.coord.rowOffset);
                sr.value(w.coord.row);
            });
            if (s.loading() && q.size() > queueCapacity)
                s.fail("DRAM write queue over capacity");
        }
        fairness.serialize(s);
        std::uint64_t reads64 = pendingReadCount;
        std::uint64_t writes64 = pendingWriteCount;
        s.value(reads64);
        s.value(writes64);
        s.value(served);
        s.value(writeDrainRemaining);
        s.value(l3FillFull);
        s.value(lastTicked);
        s.value(busPhase);
        s.value(busCycleNum);
        s.seq(completedReads, [](Serializer &sr, CompletedRead &c) {
            sr.value(c.line);
            c.meta.serialize(sr);
            sr.value(c.finishCycle);
        });
        s.value(minFinishAt);
        s.value(chanStats.reads);
        s.value(chanStats.writes);
        s.value(chanStats.rowHits);
        s.value(chanStats.rowMisses);
        s.value(chanStats.urgentIssues);
        s.value(chanStats.writeBatches);
        if (s.loading()) {
            if (readQueues.size() != cores || writeQueues.size() != cores)
                s.fail("DRAM controller core count mismatch");
            if (reads64 > cores * queueCapacity ||
                writes64 > cores * queueCapacity)
                s.fail("DRAM pending counts out of range");
            pendingReadCount = static_cast<std::size_t>(reads64);
            pendingWriteCount = static_cast<std::size_t>(writes64);
            if (served < 0 || static_cast<std::size_t>(served) >= cores)
                s.fail("DRAM served core out of range");
        }
    }

  private:
    struct ReadReq
    {
        LineAddr line;
        ReqMeta meta;
        Cycle enqueued;
        DramCoord coord;
    };
    struct WriteReq
    {
        LineAddr line;
        CoreId core;
        Cycle enqueued;
        DramCoord coord;
    };

    /** Nothing queued and no drain batch open: scheduleStep cannot
     *  issue or change state. */
    bool
    schedulerIdle() const
    {
        return pendingReadCount == 0 && pendingWriteCount == 0 &&
               writeDrainRemaining == 0;
    }

    /** The command stream may run at most a couple of bursts ahead of
     *  the data bus (see tick()). */
    bool
    inLookahead(BusCycle bc) const
    {
        return timing.busFreeAt() <= bc + 2 * timing.params().tBURST;
    }

    /** One scheduling decision at bus cycle @p bc. Returns true if a
     *  request issued. */
    bool scheduleStep(BusCycle bc);
    bool issueWrite(BusCycle bc);
    bool issueReadFrom(CoreId core, BusCycle bc);
    /** Core with smallest counter among non-empty read queues; -1. */
    CoreId laggingCore() const;
    bool servedHasRowHit() const;

    DramChannelTiming timing;
    int channelId;
    std::vector<std::deque<ReadReq>> readQueues;
    std::vector<std::deque<WriteReq>> writeQueues;
    PropCounterGroup fairness;
    std::size_t pendingReadCount = 0;  ///< over all read queues (CAM gate)
    std::size_t pendingWriteCount = 0; ///< over all write queues
    CoreId served = 0;
    int writeDrainRemaining = 0;
    bool l3FillFull = false;
    Cycle lastTicked = 0;
    /**
     * Bus-edge bookkeeping: tick() runs every core cycle and the
     * core/bus ratio is a runtime value, so deriving the bus cycle with
     * divisions every call is measurable. The counters advance
     * incrementally while calls stay contiguous (the simulator's case)
     * and fall back to the exact divide on any gap.
     */
    unsigned busPhase = 0;
    BusCycle busCycleNum = 0;
    std::vector<CompletedRead> completedReads;
    Cycle minFinishAt = neverCycle; ///< min finishCycle in completedReads
    DramChannelStats chanStats;
};

} // namespace bop

#endif // BOP_DRAM_MEM_CONTROLLER_HH
