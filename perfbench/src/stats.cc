#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <utility>

#include "common/serializer.hh"

namespace bopbench
{

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace
{

/** Nearest rank of percentile @p pct among @p n samples (1-based). */
std::size_t
nearestRank(std::size_t n, double pct)
{
    const double k = std::ceil(pct / 100.0 * static_cast<double>(n));
    return std::clamp<std::size_t>(static_cast<std::size_t>(k), 1, n);
}

} // namespace

Tail
tailPercentile(std::vector<double> values, double cap)
{
    Tail t;
    t.samples = values.size();
    if (values.empty())
        return t;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    if (n < 20) {
        t.value = values.back();
        t.percentile = 100.0;
        return t;
    }
    // Largest percentile whose nearest rank leaves ten samples above.
    double pct = 100.0 * static_cast<double>(n - 10) /
                 static_cast<double>(n);
    pct = std::min(pct, cap);
    t.percentile = pct;
    t.value = values[nearestRank(n, pct) - 1];
    return t;
}

PairedSpeedup
boSpeedup(const std::vector<PairedJob> &jobs)
{
    std::map<std::pair<std::string, std::string>, double> first;
    for (const PairedJob &j : jobs)
        first.emplace(std::make_pair(j.pairKey, j.prefetcher), j.ipc);

    double logSum = 0.0;
    PairedSpeedup out;
    for (const auto &[key, ipc] : first) {
        if (key.second != "bo")
            continue;
        auto nl = first.find({key.first, "nl"});
        if (nl == first.end() || nl->second <= 0.0 || ipc <= 0.0)
            continue;
        logSum += std::log(ipc / nl->second);
        ++out.pairs;
    }
    if (out.pairs)
        out.geomean = std::exp(logSum / static_cast<double>(out.pairs));
    return out;
}

MaxRate
maxRate(std::vector<RatePoint> points, double limit_ms)
{
    std::sort(points.begin(), points.end(),
              [](const RatePoint &a, const RatePoint &b) {
                  return a.offered < b.offered;
              });
    // Valid points below the first one with a failed job.
    std::vector<double> rate, load;
    for (const RatePoint &p : points) {
        if (!p.valid)
            continue;
        if (p.failed)
            break;
        rate.push_back(p.offered);
        load.push_back(std::max(p.tailMs / limit_ms, p.growth));
    }
    const std::vector<double> fit = isotonicFit(load);

    MaxRate best;
    for (std::size_t i = 0; i < fit.size(); ++i) {
        if (fit[i] <= 1.0) {
            best.rate = rate[i];
            continue;
        }
        if (i > 0) {
            best.rate = rate[i - 1] + (1.0 - fit[i - 1]) /
                                          (fit[i] - fit[i - 1]) *
                                          (rate[i] - rate[i - 1]);
            best.interpolated = true;
        }
        break;
    }
    return best;
}

std::vector<double>
isotonicFit(const std::vector<double> &values)
{
    // Pool adjacent violators: blocks of (mean, size), merged while a
    // block's mean is below its predecessor's.
    std::vector<std::pair<double, std::size_t>> blocks;
    for (const double v : values) {
        blocks.emplace_back(v, 1);
        while (blocks.size() > 1 &&
               blocks[blocks.size() - 2].first > blocks.back().first) {
            const auto [m2, n2] = blocks.back();
            blocks.pop_back();
            auto &[m1, n1] = blocks.back();
            m1 = (m1 * static_cast<double>(n1) + m2 * static_cast<double>(n2)) /
                 static_cast<double>(n1 + n2);
            n1 += n2;
        }
    }
    std::vector<double> out;
    for (const auto &[m, n] : blocks)
        out.insert(out.end(), n, m);
    return out;
}

double
backlogGrowth(const std::vector<double> &lat, double slack_ms)
{
    const std::size_t third = lat.size() / 3;
    if (third == 0)
        return 0.0;
    const double first = median(
        std::vector<double>(lat.begin(),
                            lat.begin() + static_cast<long>(third)));
    const double last = median(
        std::vector<double>(lat.end() - static_cast<long>(third),
                            lat.end()));
    return (last - first) / std::max(0.5 * first, slack_ms);
}

void
StatsDigest::add(const bop::RunStats &stats)
{
    bop::RunStats copy = stats; // serialize() is a non-const visitor
    std::vector<std::uint8_t> bytes;
    bop::Serializer s(bytes);
    copy.serialize(s);
    for (const std::uint8_t b : bytes) {
        hash ^= b;
        hash *= 0x100000001b3ull;
    }
}

std::string
StatsDigest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

} // namespace bopbench
