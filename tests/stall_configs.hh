/**
 * @file
 * Stall-heavy design points shared by the fast-forward, thread and
 * checkpoint equivalence suites. Each keeps the uncore's queues full
 * for most of the run, so structurally blocked heads — and the stall
 * latch that stops re-polling them — are the common case, not a
 * corner. Measured with per-path counters on an instrumented build,
 * at the budgets the suites use:
 *
 *  - shrunkQueues(4) with 429.mcf: blocked prefetch heads, toL3 heads
 *    on a full L3 fill queue, L3-fill drains on a full DRAM write
 *    queue (and, rarely, a full L2 fill queue), L2 writebacks on a
 *    full L3 fill queue and L2 misses at the fill-queue reserve;
 *  - shrunkQueues(16) with 429.mcf: blocked prefetch, toL3 and
 *    L2-miss heads across 16 cores;
 *  - channelPileup() with pileupTraces(): per-core DRAM read queues
 *    fill on the piled-on channels while the wide L3 fill queue has
 *    room, so the demand stage counts l3ChannelStalls and prefetch
 *    heads wait on the full read queues.
 *
 * The DRAM read/write queues are fixed at Table 1's 32 entries per
 * core (there is no knob to shrink them), so they fill here from slow
 * DRAM (busRatio 16), small L2/L3 caches (more dirty victims) and
 * traffic piled onto one channel instead.
 */

#ifndef BOP_TESTS_STALL_CONFIGS_HH
#define BOP_TESTS_STALL_CONFIGS_HH

#include <memory>
#include <vector>

#include "harness/experiment.hh"
#include "trace/generators.hh"

namespace bop
{

/** @p cores cores sharing shrunk L2/L3 fill queues and slow DRAM. */
inline SystemConfig
shrunkQueues(int cores)
{
    SystemConfig cfg = baselineConfig(cores, PageSize::FourKB);
    cfg.l2Prefetcher = L2PrefetcherKind::BestOffset;
    if (cores > 4)
        cfg.numChannels = 4;
    cfg.caches.l3FillQueue = 12;
    cfg.caches.l2FillQueue = 3;
    cfg.caches.l2Bytes = 64 << 10;
    cfg.caches.l3Bytes = (cores > 4 ? 256 : 128) << 10;
    cfg.dram.busRatio = 16;
    return cfg;
}

/** Four cores on four channels with a wide L3 fill queue. */
inline SystemConfig
channelPileup()
{
    SystemConfig cfg = baselineConfig(4, PageSize::FourKB);
    cfg.l2Prefetcher = L2PrefetcherKind::BestOffset;
    cfg.numChannels = 4;
    cfg.caches.l3FillQueue = 128;
    return cfg;
}

/** 64 KB strides: every core's lines pile onto few channels. */
inline std::vector<std::unique_ptr<TraceSource>>
pileupTraces(const SystemConfig &cfg)
{
    WorkloadSpec w;
    w.name = "stride64k";
    w.memFraction = 0.6;
    w.branchFraction = 0.0;
    w.depFraction = 0.2;
    StreamSpec s;
    s.regionBytes = 256ull << 20;
    s.stepBytes = 65536;
    w.streams = {s};
    std::vector<std::unique_ptr<TraceSource>> traces;
    for (int c = 0; c < cfg.activeCores; ++c)
        traces.push_back(std::make_unique<SyntheticTrace>(
            w, 3 + static_cast<std::uint64_t>(c)));
    return traces;
}

} // namespace bop

#endif // BOP_TESTS_STALL_CONFIGS_HH
