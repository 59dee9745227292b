/**
 * @file
 * Simulated-system configuration (paper Table 1 + Table 2).
 *
 * One SystemConfig value describes a complete experiment configuration:
 * core counts, page size, cache/DRAM parameters, which L2 prefetcher to
 * use and its parameters, L3 replacement policy, and the DL1 stride
 * prefetcher switch. The benchmark harness builds these per figure.
 */

#ifndef BOP_SIM_CONFIG_HH
#define BOP_SIM_CONFIG_HH

#include <cstdint>
#include <string>

#include "core/best_offset.hh"
#include "core/best_offset_dpc2.hh"
#include "dram/dram_timing.hh"
#include "prefetch/fdp.hh"
#include "prefetch/ghb.hh"
#include "prefetch/sandbox.hh"
#include "prefetch/stream.hh"
#include "prefetch/stream_buffer.hh"
#include "prefetch/stride.hh"
#include "common/types.hh"

namespace bop
{

/** Which L2 prefetcher the system instantiates (Sec. 5.6 / 6). */
enum class L2PrefetcherKind
{
    None,        ///< no L2 prefetching
    NextLine,    ///< baseline next-line with prefetch bits
    FixedOffset, ///< fixed offset D (Figs. 7/8)
    BestOffset,  ///< the paper's contribution
    Sandbox,     ///< SBP comparison point
    Stream,      ///< extension: classical stream prefetcher (Sec. 2)
    Fdp,         ///< extension: feedback-directed prefetching [37]
    Acdc,        ///< extension: GHB CZone/delta-correlation [22]
    StreamBuffer,///< extension: Jouppi stream buffers [15]
    BestOffsetDpc2, ///< extension: DPC-2 tuned BO (footnote 1)
};

/** L3 replacement policy selection (Fig. 3). */
enum class L3PolicyKind
{
    P5,    ///< the paper's 5P baseline policy
    Lru,
    Drrip,
};

/** Core pipeline parameters (loosely Haswell, Table 1). */
struct CoreParams
{
    unsigned robSize = 256;
    unsigned dispatchWidth = 8;   ///< decode 8 instructions/cycle
    unsigned retireWidth = 12;    ///< retire 12 micro-ops/cycle
    unsigned loadPorts = 2;
    unsigned storePorts = 1;
    unsigned storeQueue = 42;
    unsigned loadQueue = 72;
    unsigned branchPenalty = 12;  ///< minimum redirect penalty
    unsigned intLatency = 1;
    unsigned fpLatency = 4;
};

/** Cache hierarchy latencies/sizes (Table 1). */
struct CacheParams
{
    std::uint64_t dl1Bytes = 32 * 1024;
    unsigned dl1Ways = 8;
    unsigned dl1Latency = 3;
    std::size_t dl1Mshrs = 32;

    std::uint64_t l2Bytes = 512 * 1024;
    unsigned l2Ways = 8;
    unsigned l2Latency = 11;
    unsigned l2TagLatency = 4;    ///< miss detection time
    std::size_t l2FillQueue = 16;

    std::uint64_t l3Bytes = 8 * 1024 * 1024;
    unsigned l3Ways = 16;
    unsigned l3Latency = 21;
    unsigned l3TagLatency = 10;   ///< miss detection time
    std::size_t l3FillQueue = 32;

    std::size_t prefetchQueue = 8;
};

/** Full system configuration. */
struct SystemConfig
{
    /**
     * Cores actually running a trace (the paper evaluates 1, 2 and 4,
     * Sec. 5.1; the reproduction accepts any count up to numCores).
     */
    int activeCores = 1;

    /**
     * Total cores in the chip topology — sizes every per-core uncore
     * structure (DRAM read/write queues, fairness counters, 5P per-core
     * miss counters). 0 means "same as activeCores".
     */
    int numCores = 0;

    /**
     * DRAM channels, each with its own independent controller. Must be
     * a power of two (the line-to-channel map XOR-folds address bits);
     * the paper's chip has 2 (Table 1).
     */
    int numChannels = 2;

    PageSize pageSize = PageSize::FourKB;

    CoreParams core;
    CacheParams caches;
    DramTiming dram;

    L3PolicyKind l3Policy = L3PolicyKind::P5;

    bool dl1StridePrefetcher = true;
    StrideConfig stride;

    L2PrefetcherKind l2Prefetcher = L2PrefetcherKind::NextLine;
    int fixedOffset = 1;          ///< for L2PrefetcherKind::FixedOffset
    BoConfig bo;
    SbpConfig sbp;
    StreamConfig stream;          ///< extension prefetcher parameters
    FdpConfig fdp;
    GhbConfig ghb;
    StreamBufferConfig streamBuf;
    BoDpc2Config boDpc2;

    std::uint64_t seed = 42;      ///< run seed (vmem, policies, traces)

    /**
     * Event-horizon fast-forward: System::step() jumps the clock over
     * cycles in which no component can possibly act (every component
     * reports a nextEventAt horizon and the step takes the minimum).
     * Provably cycle-exact — all simulated statistics and cycle counts
     * are bit-identical with this off — so it is a pure speed knob
     * (`bopsim --no-fast-forward` turns it off).
     */
    bool fastForward = true;

    /**
     * Fill the shared L3 with (clean) placeholder lines at construction
     * so replacement behaviour is exercised from the first cycle. The
     * paper's 1B-instruction samples run with a long-filled cache; at
     * this repository's instruction budgets a cold 8MB L3 would act as
     * an infinite cache and mask the replacement policies entirely.
     */
    bool prewarmL3 = true;

    /**
     * Worker threads for the barrier-synchronized parallel epochs in
     * System::step(): cores and channel/bank pairs tick concurrently
     * on a fixed pool of this many workers, with cross-shard hand-offs
     * exchanged only at the epoch barriers — simulated statistics and
     * cycle counts are bit-identical for every value. 1 (the default)
     * runs today's serial path with no pool at all (`bopsim --threads
     * N`, the `threads` job field). Deliberately NOT part of describe():
     * thread count is a host-side speed knob, not a configuration.
     */
    int numThreads = 1;

    /** Topology core count with the numCores=0 default resolved. */
    int
    coreCount() const
    {
        return numCores > 0 ? numCores : activeCores;
    }

    /**
     * Check the topology for consistency; throws std::invalid_argument
     * with a descriptive message on the first violated constraint.
     * System and MemHierarchy validate at construction so a bad
     * configuration fails loudly instead of indexing out of bounds.
     */
    void validate() const;

    /** Validated copy with the numCores=0 default resolved. */
    SystemConfig resolved() const;

    /** Short human-readable description of this configuration. */
    std::string describe() const;
};

} // namespace bop

#endif // BOP_SIM_CONFIG_HH
