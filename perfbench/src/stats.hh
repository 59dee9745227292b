/**
 * @file
 * The benchmark's own statistics: order statistics with the
 * "highest percentile with at least ten samples beyond it" tail rule,
 * BO-over-next-line speedup pairing, the open-loop max-rate search and
 * backlog detector, and the RunStats digest that proves two builds
 * simulated bit-identically. Pure functions, unit-tested in
 * tests/test_stats.cc.
 */

#ifndef BOPBENCH_STATS_HH
#define BOPBENCH_STATS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"

namespace bopbench
{

/** Median (mean of the two middle values for even sizes); 0 if empty. */
double median(std::vector<double> values);

/** A tail latency together with the percentile and sample count. */
struct Tail
{
    double value = 0.0;      ///< the percentile's sample
    double percentile = 0.0; ///< which percentile it is (0..100)
    std::size_t samples = 0;
};

/**
 * The highest percentile, at most @p cap, that still has at least ten
 * samples beyond it (nearest rank k <= n - 10), i.e. p99 from 1000
 * samples on. Below twenty samples that percentile would fall under
 * the median, so the maximum is reported instead (percentile 100).
 */
Tail tailPercentile(std::vector<double> values, double cap = 99.0);

/** One simulated job's outcome, as far as the pairing cares. */
struct PairedJob
{
    std::string pairKey;    ///< design point minus the L2 prefetcher
    std::string prefetcher; ///< "bo", "nl", ...
    double ipc = 0.0;
};

/** Geomean BO/next-line IPC ratio over matched pairs. */
struct PairedSpeedup
{
    double geomean = 0.0; ///< 0 when no pair matched
    std::size_t pairs = 0;
};

/**
 * Pair every "bo" job with the "nl" job of the same pairKey and take
 * the geomean of their IPC ratios. Repeats of a (pairKey, prefetcher)
 * are ignored after the first (duplicates answer identically); keys
 * without both halves do not count.
 */
PairedSpeedup boSpeedup(const std::vector<PairedJob> &jobs);

/** One offered rate of an open-loop run. */
struct RatePoint
{
    double offered = 0.0; ///< jobs per second the generator sent at
    double tailMs = 0.0;  ///< tail latency from due time
    double growth = 0.0;  ///< backlogGrowth(); above 1 = growing backlog
    bool valid = true;    ///< false when the generator itself fell behind
    std::size_t failed = 0;
};

/** Result of the max-rate search. */
struct MaxRate
{
    double rate = 0.0;       ///< 0 when even the lowest rate missed
    bool interpolated = false;
};

/**
 * Highest offered rate whose tail meets @p limit_ms with no failures
 * and no growing backlog. Each point's load is
 * m = max(tail / limit, growth); a point passes when m <= 1. Invalid
 * points are skipped, and the search ends below the first point with a
 * failed job. Near capacity a short rate point is noisy, so m is first
 * fitted non-decreasing in the offered rate (isotonicFit); the result
 * is the rate where the fitted m crosses 1, interpolated linearly
 * between the two points around the crossing. It moves continuously
 * with the measurements instead of jumping between the fixed rates.
 */
MaxRate maxRate(std::vector<RatePoint> points, double limit_ms);

/** Least-squares non-decreasing fit (pool adjacent violators). */
std::vector<double> isotonicFit(const std::vector<double> &values);

/**
 * Backlog growth of one rate point, from its latencies in due order:
 * (L - F) / max(F / 2, slack_ms), where F and L are the median
 * latencies of the first and the last third. Above 1 -- the last third
 * waits both 1.5x as long as the first and slack_ms longer -- the
 * backlog counts as growing. A queue below capacity keeps both thirds
 * alike; past capacity the wait grows with the time spent at the rate.
 */
double backlogGrowth(const std::vector<double> &latencies_in_due_order,
                     double slack_ms);

/**
 * Order-sensitive FNV-1a digest over every field of a RunStats
 * sequence (the checkpoint serialisation, so a counter added to
 * RunStats joins the digest automatically).
 */
class StatsDigest
{
  public:
    void add(const bop::RunStats &stats);
    /** 16 lowercase hex digits. */
    std::string hex() const;

  private:
    std::uint64_t hash = 0xcbf29ce484222325ull;
};

} // namespace bopbench

#endif // BOPBENCH_STATS_HH
