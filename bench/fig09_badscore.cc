/**
 * @file
 * Figure 9: impact of the BADSCORE throttling threshold (geomean BO
 * speedup for BADSCORE in {0, 1, 2, 5, 10}). Expected shape: flat for
 * small values, degrading as BADSCORE grows (on CPU2006 the few cases
 * where throttling fires — mostly 429.mcf — lose performance, Sec. 6.1).
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
    benchHeader("Figure 9: BADSCORE sweep (geomean BO speedups)", runner);

    GeomeanFigure fig;
    for (const int bad : {0, 1, 2, 5, 10}) {
        fig.addVariant(farm, "BADSCORE=" + std::to_string(bad),
                       [bad](SystemConfig &cfg) {
                           cfg.l2Prefetcher = L2PrefetcherKind::BestOffset;
                           cfg.bo.badScore = bad;
                       });
    }
    fig.print();
    return finishBench(runner, opts) ? 0 : 1;
}
