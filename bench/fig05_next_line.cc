/**
 * @file
 * Figure 5: impact of disabling the L2 next-line prefetcher (speedups
 * relative to the baselines; below 1 means next-line was helping).
 * Expected shape: substantial losses on streaming benchmarks — the
 * baseline next-line prefetcher is already very effective (Sec. 5.6).
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace bop;
    const BenchOptions opts = parseBenchOptions(argc, argv);
    ExperimentRunner runner(opts.budget);
    configureBenchRunner(runner, opts);
    SweepFarm farm(runner, opts.jobs);
    benchHeader("Figure 5: disabling the L2 next-line prefetcher",
                runner);
    printSpeedupFigure(farm, [](SystemConfig &cfg) {
        cfg.l2Prefetcher = L2PrefetcherKind::None;
    });
    return finishBench(runner, opts) ? 0 : 1;
}
