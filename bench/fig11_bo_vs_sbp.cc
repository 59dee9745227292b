/**
 * @file
 * Figure 11: BO vs SBP geometric-mean speedups relative to the
 * next-line baselines. Expected shape: both above 1; BO above SBP in
 * every configuration (timeliness-aware offset selection).
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
    benchHeader("Figure 11: BO vs SBP (geomean speedups)", runner);

    GeomeanFigure fig;
    fig.addVariant(farm, "BO", [](SystemConfig &cfg) {
        cfg.l2Prefetcher = L2PrefetcherKind::BestOffset;
    });
    fig.addVariant(farm, "SBP", [](SystemConfig &cfg) {
        cfg.l2Prefetcher = L2PrefetcherKind::Sandbox;
    });
    fig.print();
    return finishBench(runner, opts) ? 0 : 1;
}
