/**
 * @file
 * Tests for the experiment harness (baseline configs, memoisation,
 * speedup computation).
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"

namespace bop
{
namespace
{

TEST(Harness, BaselineGridHasSixConfigs)
{
    const auto grid = baselineGrid();
    EXPECT_EQ(grid.size(), 6u);
    EXPECT_EQ(grid[0].first, 1);
    EXPECT_EQ(grid[0].second, PageSize::FourKB);
    EXPECT_EQ(grid[5].first, 4);
    EXPECT_EQ(grid[5].second, PageSize::FourMB);
}

TEST(Harness, BaselineIsNextLineWith5P)
{
    const SystemConfig cfg = baselineConfig(1, PageSize::FourKB);
    EXPECT_EQ(cfg.l2Prefetcher, L2PrefetcherKind::NextLine);
    EXPECT_EQ(cfg.l3Policy, L3PolicyKind::P5);
    EXPECT_TRUE(cfg.dl1StridePrefetcher);
}

TEST(Harness, GridLabels)
{
    EXPECT_EQ(gridLabel(1, PageSize::FourKB), "1-core/4KB");
    EXPECT_EQ(gridLabel(4, PageSize::FourMB), "4-core/4MB");
}

TEST(Harness, FingerprintDistinguishesConfigs)
{
    SystemConfig a = baselineConfig(1, PageSize::FourKB);
    SystemConfig b = a;
    b.bo.badScore = 5;
    EXPECT_NE(configFingerprint(a), configFingerprint(b));
    SystemConfig c = a;
    c.fixedOffset = 3;
    EXPECT_NE(configFingerprint(a), configFingerprint(c));
}

TEST(Harness, MakeTracesAddsThrashers)
{
    const SystemConfig cfg = baselineConfig(4, PageSize::FourKB);
    const auto traces = makeTraces("429.mcf", cfg);
    ASSERT_EQ(traces.size(), 4u);
    EXPECT_EQ(traces[0]->name(), "429.mcf");
    EXPECT_EQ(traces[1]->name(), "thrasher");
    EXPECT_EQ(traces[3]->name(), "thrasher");
}

TEST(Harness, RunnerMemoises)
{
    ExperimentRunner runner({1000, 4000});
    const SystemConfig cfg = baselineConfig(1, PageSize::FourKB);
    const RunStats &a = runner.run("456.hmmer", cfg);
    const RunStats &b = runner.run("456.hmmer", cfg);
    EXPECT_EQ(&a, &b) << "same config must return the cached object";
}

TEST(Harness, SpeedupOfIdenticalConfigsIsOne)
{
    ExperimentRunner runner({1000, 4000});
    const SystemConfig cfg = baselineConfig(1, PageSize::FourKB);
    EXPECT_DOUBLE_EQ(runner.speedup("456.hmmer", cfg, cfg), 1.0);
}

TEST(Harness, GeomeanSpeedupAggregates)
{
    ExperimentRunner runner({1000, 4000});
    const SystemConfig base = baselineConfig(1, PageSize::FourKB);
    SystemConfig no_pf = base;
    no_pf.l2Prefetcher = L2PrefetcherKind::None;
    const double g = runner.geomeanSpeedup({"456.hmmer", "482.sphinx3"},
                                           no_pf, base);
    EXPECT_GT(g, 0.1);
    EXPECT_LT(g, 2.0);
}

} // namespace
} // namespace bop
