/**
 * @file
 * End-to-end integration sweep of the full prefetcher zoo through the
 * simulated system: every prefetcher kind x page size runs to
 * completion, respects the accounting invariants, is deterministic,
 * the trained/feedback prefetchers actually profit from a sequential
 * stream (not just "don't crash"), and the event-horizon fast-forward
 * engine matches the tick-every-cycle reference engine exactly.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "harness/experiment.hh"
#include "sim/system.hh"
#include "trace/generators.hh"
#include "trace/workloads.hh"

namespace bop
{
namespace
{

std::unique_ptr<TraceSource>
streamTrace(std::uint64_t seed)
{
    WorkloadSpec w;
    w.name = "zoo-stream";
    w.memFraction = 0.5;
    w.branchFraction = 0.0;
    w.depFraction = 0.3;
    StreamSpec s;
    s.regionBytes = 32ull << 20;
    s.stepBytes = 8;
    w.streams = {s};
    return std::make_unique<SyntheticTrace>(w, seed);
}

RunStats
runStream(L2PrefetcherKind kind, PageSize page, std::uint64_t seed = 5,
          std::uint64_t warm = 30000, std::uint64_t meas = 60000,
          bool fastForward = true)
{
    SystemConfig cfg;
    cfg.fastForward = fastForward;
    cfg.activeCores = 1;
    cfg.pageSize = page;
    cfg.l2Prefetcher = kind;
    cfg.fixedOffset = 4;
    cfg.seed = seed;
    std::vector<std::unique_ptr<TraceSource>> traces;
    traces.push_back(streamTrace(seed));
    System sys(cfg, std::move(traces));
    return sys.run(warm, meas);
}

using ZooParam = std::tuple<L2PrefetcherKind, PageSize>;

class ZooIntegration : public ::testing::TestWithParam<ZooParam>
{
};

TEST_P(ZooIntegration, RunsToCompletionWithSaneCounters)
{
    const auto [kind, page] = GetParam();
    const RunStats s = runStream(kind, page);

    EXPECT_GE(s.instructions, 60000u);
    EXPECT_GT(s.ipc(), 0.0);
    EXPECT_LE(s.l2PrefFills, s.l2PrefIssued);
    EXPECT_LE(s.l2PrefetchedHits + s.l2PrefUselessEvicted,
              s.l2PrefFills + s.l2LatePromotions);
    EXPECT_LE(s.l2LatePromotions, s.l2Misses);
    EXPECT_GE(s.prefetchCoverage(), 0.0);
    EXPECT_LE(s.prefetchCoverage(), 1.0);
}

TEST_P(ZooIntegration, DeterministicAcrossIdenticalRuns)
{
    const auto [kind, page] = GetParam();
    const RunStats a = runStream(kind, page, 9);
    const RunStats b = runStream(kind, page, 9);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.l2PrefIssued, b.l2PrefIssued);
    EXPECT_EQ(a.dramReads, b.dramReads);
}

TEST_P(ZooIntegration, PrefetchingProfitsOnSequentialStream)
{
    const auto [kind, page] = GetParam();
    if (kind == L2PrefetcherKind::None)
        GTEST_SKIP() << "no-prefetch is the reference here";
    const RunStats none = runStream(L2PrefetcherKind::None, page);
    const RunStats s = runStream(kind, page);
    // Every real prefetcher must find the sequential stream and at
    // least not lose to no-prefetch; the useful count must be material.
    EXPECT_GT(s.l2PrefUseful(), 100u);
    EXPECT_GT(s.ipc(), none.ipc() * 0.98);
}

TEST_P(ZooIntegration, ReferenceEngineBitIdentical)
{
    // Fast-forward jumps the clock over cycles in which no component
    // can act; every counter must equal the reference engine's, which
    // ticks every cycle.
    const auto [kind, page] = GetParam();
    const RunStats fast = runStream(kind, page);
    const RunStats reference = runStream(kind, page, 5, 30000, 60000, false);
    EXPECT_EQ(fast.cycles, reference.cycles);
    EXPECT_TRUE(fast == reference)
        << "a counter diverged between the fast-forward and reference "
           "engines";
}

std::string
zooParamName(const ::testing::TestParamInfo<ZooParam> &info)
{
    static const char *names[] = {"none",   "nextline", "fixed",
                                  "bo",     "sbp",      "stream",
                                  "fdp",    "acdc",     "streambuf",
                                  "bodpc2"};
    const int k = static_cast<int>(std::get<0>(info.param));
    const bool big = std::get<1>(info.param) == PageSize::FourMB;
    return std::string(names[k]) + (big ? "_4MB" : "_4KB");
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndPages, ZooIntegration,
    ::testing::Combine(
        ::testing::Values(L2PrefetcherKind::None,
                          L2PrefetcherKind::NextLine,
                          L2PrefetcherKind::FixedOffset,
                          L2PrefetcherKind::BestOffset,
                          L2PrefetcherKind::Sandbox,
                          L2PrefetcherKind::Stream,
                          L2PrefetcherKind::Fdp,
                          L2PrefetcherKind::Acdc,
                          L2PrefetcherKind::StreamBuffer,
                          L2PrefetcherKind::BestOffsetDpc2),
        ::testing::Values(PageSize::FourKB, PageSize::FourMB)),
    zooParamName);

/** The zoo, two thrasher cores active: contention must not wedge. */
class ZooMultiCore : public ::testing::TestWithParam<L2PrefetcherKind>
{
};

TEST_P(ZooMultiCore, TwoCoreContentionCompletes)
{
    SystemConfig cfg = baselineConfig(2, PageSize::FourKB);
    cfg.l2Prefetcher = GetParam();
    std::vector<std::unique_ptr<TraceSource>> traces;
    traces.push_back(streamTrace(3));
    traces.push_back(makeThrasher(4));
    System sys(cfg, std::move(traces));
    const RunStats s = sys.run(10000, 30000);
    EXPECT_GE(s.instructions, 30000u);
    EXPECT_GT(s.dramReads, 0u); // the thrasher guarantees traffic
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, ZooMultiCore,
    ::testing::Values(L2PrefetcherKind::Fdp, L2PrefetcherKind::Acdc,
                      L2PrefetcherKind::StreamBuffer,
                      L2PrefetcherKind::BestOffsetDpc2));

} // namespace
} // namespace bop
