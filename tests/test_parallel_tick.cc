/**
 * @file
 * Parallel-epoch engine tests: ticking cores and channel shards on a
 * worker pool (SystemConfig::numThreads > 1) must be bit-identical to
 * the serial engine for every thread count, topology (banked and
 * un-banked L3), fast-forward mode and workload mix. The whole-run
 * RunStats comparison uses the defaulted field-wise operator==, so any
 * divergent counter anywhere in the chip fails the test.
 */

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "sim/mem_hierarchy.hh"
#include "sim/system.hh"
#include "stall_configs.hh"
#include "trace/generators.hh"
#include "trace/workloads.hh"

namespace bop
{
namespace
{

/** @p bench on @p cfg at @p threads workers ("pileup": pileupTraces). */
RunStats
runWith(SystemConfig cfg, const std::string &bench, int threads,
        std::uint64_t warm = 2000, std::uint64_t measure = 10000,
        EpochCounters *epochs = nullptr)
{
    cfg.numThreads = threads;
    System sys(cfg, tracesFor(bench, cfg));
    EXPECT_EQ(sys.threadCount(), threads);
    const RunStats stats = sys.run(warm, measure);
    if (epochs)
        *epochs = sys.epochCounters();
    return stats;
}

/** Field-wise comparison so a failure names the diverging counter. */
void
expectStatsEqual(const RunStats &parallel, const RunStats &serial,
                 const std::string &label)
{
#define BOP_EXPECT_FIELD(f) EXPECT_EQ(parallel.f, serial.f) << label
    BOP_EXPECT_FIELD(cycles);
    BOP_EXPECT_FIELD(instructions);
    BOP_EXPECT_FIELD(dl1Accesses);
    BOP_EXPECT_FIELD(dl1Misses);
    BOP_EXPECT_FIELD(dl1PrefIssued);
    BOP_EXPECT_FIELD(dl1PrefDropTlb);
    BOP_EXPECT_FIELD(l2Accesses);
    BOP_EXPECT_FIELD(l2Misses);
    BOP_EXPECT_FIELD(l2PrefetchedHits);
    BOP_EXPECT_FIELD(l2PrefIssued);
    BOP_EXPECT_FIELD(l2PrefDropped);
    BOP_EXPECT_FIELD(l2PrefFills);
    BOP_EXPECT_FIELD(l2LatePromotions);
    BOP_EXPECT_FIELD(l2PrefUselessEvicted);
    BOP_EXPECT_FIELD(l3Accesses);
    BOP_EXPECT_FIELD(l3Misses);
    BOP_EXPECT_FIELD(l3ChannelStalls);
    BOP_EXPECT_FIELD(dtlb1Misses);
    BOP_EXPECT_FIELD(tlb2Misses);
    BOP_EXPECT_FIELD(branches);
    BOP_EXPECT_FIELD(branchMispredicts);
    BOP_EXPECT_FIELD(dramReads);
    BOP_EXPECT_FIELD(dramWrites);
    BOP_EXPECT_FIELD(dramRowHits);
    BOP_EXPECT_FIELD(dramRowMisses);
    BOP_EXPECT_FIELD(boLearningPhases);
    BOP_EXPECT_FIELD(boPrefetchOffPhases);
    BOP_EXPECT_FIELD(boFinalOffset);
    BOP_EXPECT_FIELD(boFinalScore);
#undef BOP_EXPECT_FIELD
    EXPECT_TRUE(parallel == serial)
        << label << ": a counter outside the listed fields diverged "
        << "(extend this comparison when adding RunStats fields)";
}

/**
 * Serial vs threads 2/4/8. The engine runs a per-event phase on the
 * calling thread unless at least workerCount() of its items have work
 * (work gating), so each case must also prove it exercised the pool:
 * at least one per-event epoch with a phase on the worker pool over
 * its threaded runs, or the comparison would only pit the serial code
 * against itself. The check spans the case's runs: a wide pool on a
 * narrow chip (8 workers for two cores) may legitimately never fill a
 * phase.
 */
void
expectThreadEquivalence(SystemConfig cfg, const std::string &bench,
                        std::uint64_t warm = 2000,
                        std::uint64_t measure = 10000)
{
    EpochCounters epochs;
    const RunStats serial = runWith(cfg, bench, 1, warm, measure, &epochs);
    EXPECT_EQ(epochs.pooled + epochs.inlined + epochs.batched, 0u)
        << "the serial path must not count epochs";
    std::uint64_t pooled = 0;
    std::string profile;
    for (const int threads : {2, 4, 8}) {
        const RunStats parallel =
            runWith(cfg, bench, threads, warm, measure, &epochs);
        expectStatsEqual(parallel, serial,
                         bench + " " + cfg.describe() +
                             " threads=" + std::to_string(threads));
        pooled += epochs.pooled;
        profile += " threads=" + std::to_string(threads) + ": " +
                   std::to_string(epochs.pooled) + " pooled/" +
                   std::to_string(epochs.inlined) + " inline/" +
                   std::to_string(epochs.batched) + " batched;";
    }
    EXPECT_GE(pooled, 1u) << bench << " " << cfg.describe()
                          << ": no per-event epoch reached the pool:"
                          << profile;
}

TEST(ParallelTick, SingleCoreBankedL3)
{
    // 2 channels: the default 8MB L3 banks per channel.
    expectThreadEquivalence(baselineConfig(1, PageSize::FourKB),
                            "462.libquantum");
}

TEST(ParallelTick, FourCoreFourChannelBanked)
{
    SystemConfig cfg = baselineConfig(4, PageSize::FourKB);
    cfg.numChannels = 4;
    cfg.l2Prefetcher = L2PrefetcherKind::BestOffset;
    expectThreadEquivalence(cfg, "429.mcf");
}

TEST(ParallelTick, EightChannelSingleBankFallback)
{
    // 8 channels need 14 XOR-fold bits but the 8MB L3 has only 13 set
    // bits: the cache must fall back to one bank, and the parallel
    // engine must still match the serial one on the un-banked shape.
    SystemConfig cfg = baselineConfig(2, PageSize::FourKB);
    cfg.numChannels = 8;
    expectThreadEquivalence(cfg, "433.milc");
}

TEST(ParallelTick, NoFastForwardPath)
{
    // The reference engine ticks every cycle; the worker pool must not
    // change that schedule either.
    SystemConfig cfg = baselineConfig(2, PageSize::FourKB);
    cfg.fastForward = false;
    expectThreadEquivalence(cfg, "450.soplex", 1000, 6000);
}

TEST(ParallelTick, RandomizedConfigsMatchSerial)
{
    // Deterministically-seeded random sweep over topology, policy,
    // prefetcher, page size and run seed: every drawn configuration
    // must tick bit-identically on 2/4/8 workers. Random interleaving
    // of per-core work onto the pool is exactly what this hunts —
    // worker assignment is static but completion order is not, so any
    // cross-shard state touched outside the serial commit phases would
    // show up as a diverging counter under some draw.
    std::mt19937 rng(0xb0b5u);
    const std::vector<std::string> benches = {
        "401.bzip2", "456.hmmer", "470.lbm", "482.sphinx3", "403.gcc"};
    const std::vector<L2PrefetcherKind> pfs = {
        L2PrefetcherKind::None, L2PrefetcherKind::NextLine,
        L2PrefetcherKind::BestOffset, L2PrefetcherKind::Stream};
    const std::vector<L3PolicyKind> policies = {
        L3PolicyKind::P5, L3PolicyKind::Lru, L3PolicyKind::Drrip};
    for (int draw = 0; draw < 4; ++draw) {
        const int cores = 1 << (rng() % 3); // 1, 2 or 4
        SystemConfig cfg = baselineConfig(
            cores, (rng() & 1) ? PageSize::FourKB : PageSize::FourMB);
        cfg.numChannels = (rng() & 1) ? 2 : 4;
        cfg.l2Prefetcher = pfs[rng() % pfs.size()];
        cfg.l3Policy = policies[rng() % policies.size()];
        cfg.seed = 1 + rng() % 1000;
        const std::string &bench = benches[rng() % benches.size()];
        expectThreadEquivalence(cfg, bench, 1500, 6000);
    }
}

TEST(ParallelTick, SixteenCoreEightChannelThrasher)
{
    // The shape the engine exists for: core 0 plus 15 thrasher cores
    // on 8 channels (un-banked L3). Most events have one or two due
    // cores, so nearly every phase runs inline and only the busy ones
    // reach the pool — both halves must match the serial engine, with
    // and without fast-forward.
    SystemConfig cfg = baselineConfig(16, PageSize::FourKB);
    cfg.l2Prefetcher = L2PrefetcherKind::BestOffset;
    expectThreadEquivalence(cfg, "462.libquantum", 1000, 3000);
    cfg.fastForward = false;
    expectThreadEquivalence(cfg, "462.libquantum", 500, 1500);
}

TEST(ParallelTick, StallHeavyMatchesSerial)
{
    // The stall latch's progress flags are written from the parallel
    // phases (per side, per channel) and merged at commitEgress; on
    // designs where most uncore ticks are skipped as stalled, threads
    // 4 must still retrace the serial schedule exactly. The channel
    // pile-up also parks channels (l3ChannelStalls) from the parallel
    // per-channel phase.
    struct StallCase
    {
        SystemConfig cfg;
        std::string bench;
        std::uint64_t warm, measure;
    };
    const StallCase cases[] = {
        {shrunkQueues(4), "429.mcf", 5000, 20000},
        {shrunkQueues(16), "429.mcf", 1000, 4000},
        {channelPileup(), "pileup", 0, 10000},
    };
    for (const StallCase &c : cases) {
        const std::string label = c.bench + " " + c.cfg.describe();
        EpochCounters epochs;
        const RunStats serial =
            runWith(c.cfg, c.bench, 1, c.warm, c.measure, &epochs);
        EXPECT_GT(epochs.stalledSkips, 0u) << label;
        const RunStats parallel =
            runWith(c.cfg, c.bench, 4, c.warm, c.measure, &epochs);
        expectStatsEqual(parallel, serial, label + " threads=4");
        EXPECT_GT(epochs.stalledSkips, 0u) << label;
        if (c.bench == "pileup")
            EXPECT_GT(serial.l3ChannelStalls, 0u) << label;
    }
}

TEST(ParallelTick, EveryPrefetcherTwoCoreMatchesSerial)
{
    // The zoo's two-core contention shape (a sequential stream on core
    // 0, the thrasher on core 1) for every L2 prefetcher kind: each
    // prefetcher's state is touched from the parallel per-core phase,
    // so threads 4 must retrace the serial run for all of them.
    WorkloadSpec stream;
    stream.name = "zoo-stream";
    stream.memFraction = 0.5;
    stream.branchFraction = 0.0;
    stream.depFraction = 0.3;
    stream.streams = {StreamSpec{}};
    stream.streams[0].regionBytes = 32ull << 20;
    stream.streams[0].stepBytes = 8;
    std::uint64_t pooled = 0;
    const auto run = [&](SystemConfig cfg, int threads) {
        cfg.numThreads = threads;
        std::vector<std::unique_ptr<TraceSource>> traces;
        traces.push_back(std::make_unique<SyntheticTrace>(stream, 3));
        traces.push_back(makeThrasher(4));
        System sys(cfg, std::move(traces));
        const RunStats stats = sys.run(5000, 15000);
        pooled += sys.epochCounters().pooled;
        return stats;
    };
    for (const L2PrefetcherKind kind :
         {L2PrefetcherKind::None, L2PrefetcherKind::NextLine,
          L2PrefetcherKind::FixedOffset, L2PrefetcherKind::BestOffset,
          L2PrefetcherKind::Sandbox, L2PrefetcherKind::Stream,
          L2PrefetcherKind::Fdp, L2PrefetcherKind::Acdc,
          L2PrefetcherKind::StreamBuffer,
          L2PrefetcherKind::BestOffsetDpc2}) {
        SystemConfig cfg = baselineConfig(2, PageSize::FourKB);
        cfg.l2Prefetcher = kind;
        expectStatsEqual(run(cfg, 4), run(cfg, 1),
                         cfg.describe() + " threads=4");
    }
    EXPECT_GT(pooled, 0u) << "no per-event epoch reached the pool";
}

TEST(ParallelTick, PoolCappedAtWidestPhase)
{
    // Workers beyond max(active cores, channels) could never receive
    // an item, so the pool does not spawn them; the requested count
    // is still what threadCount() (and run records) report.
    SystemConfig cfg = baselineConfig(1, PageSize::FourKB);
    cfg.numThreads = 4;
    {
        System sys(cfg, makeTraces("456.hmmer", cfg)); // 1 core, 2 ch
        EXPECT_EQ(sys.threadCount(), 4);
        EXPECT_EQ(sys.poolWorkers(), 2);
    }
    cfg.numChannels = 1;
    {
        System sys(cfg, makeTraces("456.hmmer", cfg));
        EXPECT_EQ(sys.threadCount(), 4);
        EXPECT_EQ(sys.poolWorkers(), 1); // no phase has two items
        const RunStats threaded = sys.run(1000, 4000);
        cfg.numThreads = 1;
        EXPECT_TRUE(threaded == runWith(cfg, "456.hmmer", 1, 1000, 4000));
        EXPECT_EQ(sys.epochCounters().pooled, 0u);
    }
    cfg = baselineConfig(16, PageSize::FourKB);
    cfg.numChannels = 8;
    cfg.numThreads = 64;
    System wide(cfg, makeTraces("456.hmmer", cfg));
    EXPECT_EQ(wide.threadCount(), 64);
    EXPECT_EQ(wide.poolWorkers(), 16);
}

TEST(ParallelTick, ThreadCountValidated)
{
    SystemConfig cfg = baselineConfig(1, PageSize::FourKB);
    cfg.numThreads = 0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg.numThreads = 65;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg.numThreads = 8;
    EXPECT_NO_THROW(cfg.validate());
}

} // namespace
} // namespace bop
