/**
 * @file
 * Unit tests of the benchmark's own statistics: the tail-percentile
 * rule, BO/next-line pairing, the max-rate search, the backlog test,
 * the RunStats digest and span self times.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "span.hh"
#include "stats.hh"

namespace
{

using namespace bopbench;

std::vector<double>
iota(std::size_t n)
{
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0); // 1..n
    return v;
}

TEST(Percentile, MedianOddEvenEmpty)
{
    EXPECT_EQ(median({3, 1, 2}), 2.0);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

TEST(TailRule, P99NeedsAThousandSamples)
{
    const Tail t = tailPercentile(iota(1000));
    EXPECT_DOUBLE_EQ(t.percentile, 99.0);
    EXPECT_EQ(t.value, 990.0); // ten samples (991..1000) beyond it
    EXPECT_EQ(t.samples, 1000u);

    const Tail big = tailPercentile(iota(5000));
    EXPECT_DOUBLE_EQ(big.percentile, 99.0); // capped
    EXPECT_EQ(big.value, 4950.0);
}

TEST(TailRule, FewerSamplesGiveTheHighestSupportedPercentile)
{
    const Tail t = tailPercentile(iota(100));
    EXPECT_DOUBLE_EQ(t.percentile, 90.0);
    EXPECT_EQ(t.value, 90.0);
    // Exactly ten samples lie beyond the reported one.
    const Tail u = tailPercentile(iota(37));
    EXPECT_EQ(u.value, 27.0);
    EXPECT_NEAR(u.percentile, 100.0 * 27.0 / 37.0, 1e-9);
}

TEST(TailRule, TinySamplesReportTheMaximum)
{
    const Tail t = tailPercentile({5, 1, 9});
    EXPECT_EQ(t.value, 9.0);
    EXPECT_EQ(t.percentile, 100.0);
    EXPECT_EQ(tailPercentile({}).samples, 0u);
    // 19 samples would support only p47: below the median, so the max.
    EXPECT_EQ(tailPercentile(iota(19)).value, 19.0);
    EXPECT_DOUBLE_EQ(tailPercentile(iota(20)).percentile, 50.0);
}

TEST(Pairing, GeomeanOverMatchedPairsOnly)
{
    const std::vector<PairedJob> jobs = {
        {"a", "bo", 2.0}, {"a", "nl", 1.0}, // 2x
        {"b", "nl", 4.0}, {"b", "bo", 2.0}, // 0.5x
        {"c", "bo", 9.0},                   // no twin: ignored
        {"d", "sbp", 1.0}, {"d", "nl", 1.0}, // not BO: ignored
    };
    const PairedSpeedup s = boSpeedup(jobs);
    EXPECT_EQ(s.pairs, 2u);
    EXPECT_NEAR(s.geomean, 1.0, 1e-12);
}

TEST(Pairing, DuplicatesCountOnce)
{
    const std::vector<PairedJob> jobs = {
        {"a", "bo", 3.0}, {"a", "bo", 3.0}, {"a", "nl", 1.0},
        {"a", "nl", 1.0}, {"b", "bo", 1.5}, {"b", "nl", 1.0}};
    const PairedSpeedup s = boSpeedup(jobs);
    EXPECT_EQ(s.pairs, 2u);
    EXPECT_NEAR(s.geomean, std::sqrt(3.0 * 1.5), 1e-12);
    EXPECT_EQ(boSpeedup({}).pairs, 0u);
}

RatePoint
pt(double rate, double tail, double growth = 0.0, bool valid = true,
   std::size_t failed = 0)
{
    RatePoint p;
    p.offered = rate;
    p.tailMs = tail;
    p.growth = growth;
    p.valid = valid;
    p.failed = failed;
    return p;
}

TEST(MaxRate, InterpolatesToTheLimitCrossing)
{
    // Loads 0.6 at 80/s and 1.6 at 120/s: m crosses 1 at 96/s.
    const MaxRate m =
        maxRate({pt(120, 400), pt(40, 50), pt(80, 150)}, 250.0);
    EXPECT_TRUE(m.interpolated);
    EXPECT_NEAR(m.rate, 80.0 + 40.0 * 0.4 / 1.0, 1e-9);
}

TEST(MaxRate, AllPassingGivesTheHighestRate)
{
    const MaxRate m = maxRate({pt(40, 10), pt(80, 20), pt(160, 30)}, 250.0);
    EXPECT_FALSE(m.interpolated);
    EXPECT_EQ(m.rate, 160.0);
}

TEST(MaxRate, GrowingBacklogMissesEvenUnderTheLatencyLimit)
{
    // 80/s meets the limit (tail load 0.5) but its backlog grows (2.0).
    // The noisy dip at 160/s (0.12) is pooled with it: 1.06 from 80/s
    // on, so m crosses 1 between 40/s (0.04) and 80/s.
    const MaxRate m =
        maxRate({pt(40, 10), pt(80, 125, 2.0), pt(160, 30)}, 250.0);
    EXPECT_TRUE(m.interpolated);
    EXPECT_NEAR(m.rate, 40.0 + 40.0 * 0.96 / 1.02, 1e-9);
}

TEST(MaxRate, IsotonicFitPoolsViolators)
{
    const std::vector<double> fit = isotonicFit({1, 3, 2, 2, 5, 4});
    const std::vector<double> want = {1, 7.0 / 3, 7.0 / 3, 7.0 / 3, 4.5, 4.5};
    ASSERT_EQ(fit.size(), want.size());
    for (std::size_t i = 0; i < fit.size(); ++i)
        EXPECT_NEAR(fit[i], want[i], 1e-12);
    EXPECT_TRUE(isotonicFit({}).empty());
}

TEST(MaxRate, FailuresStopWithoutInterpolation)
{
    EXPECT_EQ(
        maxRate({pt(40, 10), pt(80, 900, 0.0, true, 1)}, 250.0).rate,
        40.0);
    EXPECT_FALSE(
        maxRate({pt(40, 10), pt(80, 900, 0.0, true, 1)}, 250.0)
            .interpolated);
}

TEST(MaxRate, InvalidPointsAreSkipped)
{
    const MaxRate m = maxRate(
        {pt(40, 10), pt(80, 999, 0.0, false), pt(120, 20)}, 250.0);
    EXPECT_EQ(m.rate, 120.0);
    EXPECT_EQ(maxRate({pt(40, 300)}, 250.0).rate, 0.0);
}

TEST(Backlog, StableQueueIsNotGrowing)
{
    std::vector<double> lat(90, 30.0);
    for (std::size_t i = 0; i < lat.size(); i += 7)
        lat[i] = 120.0; // occasional slow jobs, evenly spread
    EXPECT_LE(backlogGrowth(lat, 50.0), 0.0);
}

TEST(Backlog, LinearlyGrowingWaitIsGrowing)
{
    std::vector<double> lat;
    for (int i = 0; i < 90; ++i)
        lat.push_back(20.0 + 10.0 * i);
    // Thirds' medians 165 and 765: (765 - 165) / max(82.5, 50).
    EXPECT_NEAR(backlogGrowth(lat, 50.0), 600.0 / 82.5, 1e-9);
    EXPECT_EQ(backlogGrowth({1.0, 100.0}, 50.0), 0.0); // too few samples
}

TEST(Backlog, SlackGuardsShortLatencies)
{
    // 10 ms -> 20 ms doubles, but stays within the 50 ms slack.
    std::vector<double> lat(30, 10.0);
    std::fill(lat.begin() + 20, lat.end(), 20.0);
    EXPECT_NEAR(backlogGrowth(lat, 50.0), 10.0 / 50.0, 1e-9);
}

bop::RunStats
sampleStats(std::uint64_t k)
{
    bop::RunStats s;
    s.cycles = 1000 + k;
    s.instructions = 700 + 3 * k;
    s.dramReads = 11 * k;
    s.boFinalOffset = static_cast<int>(k % 7);
    return s;
}

TEST(Digest, StableAcrossRepeatedRuns)
{
    StatsDigest a, b;
    for (std::uint64_t k = 0; k < 50; ++k) {
        a.add(sampleStats(k));
        b.add(sampleStats(k));
    }
    EXPECT_EQ(a.hex(), b.hex());
    EXPECT_EQ(a.hex().size(), 16u);
}

TEST(Digest, SensitiveToEveryFieldAndOrder)
{
    StatsDigest base, changed, swapped;
    base.add(sampleStats(1));
    base.add(sampleStats(2));
    bop::RunStats late = sampleStats(2);
    late.boFinalScore = 1; // the last field of the serialisation
    changed.add(sampleStats(1));
    changed.add(late);
    swapped.add(sampleStats(2));
    swapped.add(sampleStats(1));
    EXPECT_NE(base.hex(), changed.hex());
    EXPECT_NE(base.hex(), swapped.hex());
}

TEST(SelfTime, ChildrenAreSubtractedOnceWhenTheyOverlap)
{
    // A root of 10 s with two concurrent children covering [1,4] and
    // [2,6] (union 5 s) and a nested grandchild.
    const std::vector<SpanRecord> spans = {
        {"bench.round", 1, 0, 0, 0.0, 10.0},
        {"sim.warmup", 2, 1, 1, 1.0, 4.0},
        {"sim.measure", 3, 1, 2, 2.0, 6.0},
        {"core.bo", 4, 3, 2, 3.0, 4.0},
    };
    const auto t = selfTimes(spans);
    EXPECT_NEAR(t.at("bench").selfSeconds, 5.0, 1e-12);
    EXPECT_NEAR(t.at("sim").selfSeconds, 3.0 + 3.0, 1e-12);
    EXPECT_NEAR(t.at("core").selfSeconds, 1.0, 1e-12);
    EXPECT_EQ(t.at("sim").spans, 2u);
}

TEST(SelfTime, TracerRecordsNestedSpans)
{
    Tracer tracer;
    {
        Span outer(&tracer, "bench.x");
        Span inner(&tracer, "sim.y", outer.id(), 7);
    }
    Span inert(nullptr, "ignored");
    EXPECT_EQ(inert.id(), 0u);
    const auto spans = tracer.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].name, "sim.y");
    EXPECT_EQ(spans[0].job, 7u);
    EXPECT_EQ(spans[0].parent, spans[1].id);
    EXPECT_LE(spans[1].start, spans[0].start);
    EXPECT_GE(spans[1].end, spans[0].end);
}

} // namespace
