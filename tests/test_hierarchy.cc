/**
 * @file
 * Integration tests of the memory hierarchy through a full System with
 * scripted single-pattern workloads.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "sim/system.hh"
#include "trace/generators.hh"

namespace bop
{
namespace
{

std::unique_ptr<TraceSource>
seqTrace(std::uint64_t region = 32ull << 20, std::int64_t step = 8,
         double stores = 0.0, int accesses_per_element = 1)
{
    WorkloadSpec w;
    w.name = "seq";
    w.memFraction = 0.5;
    w.branchFraction = 0.0;
    // Address-generation dependences bound the core's spontaneous MLP,
    // which is what leaves prefetchers room to matter (see DESIGN.md).
    w.depFraction = 0.3;
    StreamSpec s;
    s.regionBytes = region;
    s.stepBytes = step;
    s.storeRatio = stores;
    s.accessesPerElement = accesses_per_element;
    w.streams = {s};
    return std::make_unique<SyntheticTrace>(w, 123);
}

SystemConfig
cfg1core(L2PrefetcherKind pf = L2PrefetcherKind::NextLine)
{
    SystemConfig cfg;
    cfg.activeCores = 1;
    cfg.l2Prefetcher = pf;
    return cfg;
}

TEST(Hierarchy, SequentialRunCompletes)
{
    std::vector<std::unique_ptr<TraceSource>> traces;
    traces.push_back(seqTrace());
    System sys(cfg1core(), std::move(traces));
    const RunStats stats = sys.run(2000, 20000);
    // Retirement is up to retireWidth per cycle, so the window may
    // overshoot the target by a few instructions.
    EXPECT_GE(stats.instructions, 20000u);
    EXPECT_LT(stats.instructions, 20000u + 12u);
    EXPECT_GT(stats.cycles, 0u);
    EXPECT_GT(stats.dl1Accesses, 8000u);
    EXPECT_GT(stats.dramReads, 0u);
}

TEST(Hierarchy, CacheResidentWorkloadStopsMissing)
{
    // 64KB working set fits the 512KB L2: after warmup, DRAM traffic
    // must be (nearly) zero.
    std::vector<std::unique_ptr<TraceSource>> traces;
    traces.push_back(seqTrace(64 << 10));
    System sys(cfg1core(L2PrefetcherKind::None), std::move(traces));
    const RunStats stats = sys.run(50000, 20000);
    EXPECT_LT(stats.dramPer1kInstr(), 1.0);
    EXPECT_LT(stats.l2Mpki(), 1.0);
}

TEST(Hierarchy, NextLineProducesPrefetchedHits)
{
    std::vector<std::unique_ptr<TraceSource>> traces;
    traces.push_back(seqTrace());
    System sys(cfg1core(), std::move(traces));
    const RunStats stats = sys.run(5000, 30000);
    EXPECT_GT(stats.l2PrefIssued, 100u);
    EXPECT_GT(stats.l2PrefetchedHits + stats.l2LatePromotions, 50u)
        << "a sequential stream must profit from next-line prefetching";
}

TEST(Hierarchy, PrefetchingReducesCyclesOnStream)
{
    auto run = [](L2PrefetcherKind kind) {
        std::vector<std::unique_ptr<TraceSource>> traces;
        traces.push_back(seqTrace(32ull << 20, 8, 0.0, 3));
        System sys(cfg1core(kind), std::move(traces));
        return sys.run(60000, 120000); // BO needs phases to converge
    };
    const RunStats none = run(L2PrefetcherKind::None);
    const RunStats nl = run(L2PrefetcherKind::NextLine);
    const RunStats bo = run(L2PrefetcherKind::BestOffset);
    EXPECT_GT(nl.ipc(), none.ipc() * 1.02)
        << "next-line must beat no-prefetch on a sequential stream";
    EXPECT_GT(bo.ipc(), nl.ipc() * 1.02)
        << "BO must beat next-line via larger, timely offsets";
}

TEST(Hierarchy, BoLearnsLargeOffsetOnStream)
{
    std::vector<std::unique_ptr<TraceSource>> traces;
    traces.push_back(seqTrace());
    SystemConfig cfg = cfg1core(L2PrefetcherKind::BestOffset);
    System sys(cfg, std::move(traces));
    const RunStats stats = sys.run(20000, 50000);
    EXPECT_GT(stats.boLearningPhases, 0u);
    EXPECT_GT(stats.boFinalOffset, 1)
        << "timeliness-aware learning must move beyond next-line";
}

TEST(Hierarchy, WritebacksReachDram)
{
    std::vector<std::unique_ptr<TraceSource>> traces;
    traces.push_back(seqTrace(32ull << 20, 8, 1.0)); // all stores
    // Shrink the caches so dirty data cascades to DRAM within the
    // budget of a unit test (the default 8MB L3 absorbs ~130K lines).
    SystemConfig cfg = cfg1core();
    cfg.caches.l2Bytes = 64 * 1024;
    cfg.caches.l3Bytes = 64 * 1024;
    System sys(cfg, std::move(traces));
    const RunStats stats = sys.run(5000, 60000);
    EXPECT_GT(stats.dramWrites, 100u)
        << "streaming stores must generate DRAM writebacks";
}

TEST(Hierarchy, StridedPatternBenefitsFromBo)
{
    // Line stride 4: next-line covers nothing, BO should find offset 4
    // (or a multiple) and win. 8 accesses per element keep the miss
    // rate realistic (latency-bound, not bandwidth-bound).
    auto mk = [] { return seqTrace(32ull << 20, 4 * 64, 0.0, 8); };
    auto run = [&](L2PrefetcherKind kind) {
        std::vector<std::unique_ptr<TraceSource>> traces;
        traces.push_back(mk());
        SystemConfig cfg = cfg1core(kind);
        cfg.dl1StridePrefetcher = false; // isolate the L2 prefetcher
        System sys(cfg, std::move(traces));
        return sys.run(60000, 120000);
    };
    const RunStats nl = run(L2PrefetcherKind::NextLine);
    const RunStats bo = run(L2PrefetcherKind::BestOffset);
    EXPECT_GT(bo.ipc(), nl.ipc() * 1.05);
    EXPECT_EQ(bo.boFinalOffset % 4, 0)
        << "learned offset must be a multiple of the stride";
}

TEST(Hierarchy, TlbMissesCountedWith4KbPages)
{
    std::vector<std::unique_ptr<TraceSource>> traces;
    traces.push_back(seqTrace());
    System sys(cfg1core(), std::move(traces));
    const RunStats stats = sys.run(2000, 30000);
    EXPECT_GT(stats.dtlb1Misses, 10u);
}

TEST(Hierarchy, SuperpagesEliminateTlbMisses)
{
    std::vector<std::unique_ptr<TraceSource>> traces;
    traces.push_back(seqTrace());
    SystemConfig cfg = cfg1core();
    cfg.pageSize = PageSize::FourMB;
    System sys(cfg, std::move(traces));
    const RunStats stats = sys.run(2000, 30000);
    EXPECT_LT(stats.tlb2Misses, 20u);
}

TEST(Hierarchy, MultiCoreThrasherReducesCore0Ipc)
{
    auto run = [](int cores) {
        SystemConfig cfg;
        cfg.activeCores = cores;
        std::vector<std::unique_ptr<TraceSource>> traces;
        traces.push_back(seqTrace());
        for (int c = 1; c < cores; ++c) {
            WorkloadSpec t = makeThrasherSpec();
            traces.push_back(std::make_unique<SyntheticTrace>(t, 55 + c));
        }
        System sys(cfg, std::move(traces));
        return sys.run(5000, 20000);
    };
    const double ipc1 = run(1).ipc();
    const double ipc4 = run(4).ipc();
    EXPECT_LT(ipc4, ipc1)
        << "L3/bandwidth contention must hurt core 0 (paper Fig. 2)";
}

TEST(Hierarchy, BlockedL2MissCountedOnce)
{
    // An L2 fill queue of 3 with its 2-slot waiting reserve admits one
    // data-less miss at a time, so a streaming miss sequence keeps the
    // next toL2 head retrying against the reserve for several cycles.
    // Each retry must leave no trace: every request (one per DL1 miss
    // here — 64-byte steps over fresh lines, no prefetchers, so no
    // MSHR or fill-queue coalescing) is counted as one L2 access and
    // one L2 miss, however long it waited. Up to one MSHR file of
    // requests may still be queued when the window closes.
    SystemConfig cfg = cfg1core(L2PrefetcherKind::None);
    cfg.dl1StridePrefetcher = false;
    cfg.caches.l2FillQueue = 3;
    std::vector<std::unique_ptr<TraceSource>> traces;
    traces.push_back(seqTrace(32ull << 20, 64));
    System sys(cfg, std::move(traces));
    const RunStats stats = sys.run(0, 4000);
    ASSERT_GT(stats.dl1Misses, 500u);
    EXPECT_LE(stats.l2Accesses, stats.dl1Misses);
    EXPECT_GE(stats.l2Accesses + cfg.caches.dl1Mshrs, stats.dl1Misses);
    EXPECT_EQ(stats.l2Misses, stats.l2Accesses);
}

TEST(Hierarchy, QuiescesAfterDrain)
{
    std::vector<std::unique_ptr<TraceSource>> traces;
    traces.push_back(seqTrace(64 << 10)); // small, cache resident
    System sys(cfg1core(L2PrefetcherKind::None), std::move(traces));
    sys.run(1000, 5000);
    // Spin the uncore without new work until everything drains.
    for (int i = 0; i < 20000 && !sys.hierarchy().quiescent(); ++i)
        sys.hierarchy().tick(sys.currentCycle() + static_cast<Cycle>(i));
    EXPECT_TRUE(sys.hierarchy().quiescent());
}

TEST(Hierarchy, DeadlockDetectorFires)
{
    // A pathological config: an L2 fill queue of size 3 with reserve 2
    // still progresses; instead test the detector by requesting a
    // trace that never lets core 0 retire: not constructible here, so
    // assert the guard exists by checking a normal run does NOT throw.
    std::vector<std::unique_ptr<TraceSource>> traces;
    traces.push_back(seqTrace());
    System sys(cfg1core(), std::move(traces));
    EXPECT_NO_THROW(sys.run(1000, 5000));
}

} // namespace
} // namespace bop
