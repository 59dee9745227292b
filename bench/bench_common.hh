/**
 * @file
 * Shared helpers for the figure-regeneration benches.
 *
 * Every bench prints the same rows/series the paper's figure reports,
 * using the instruction budgets from BOP_WARMUP / BOP_INSTR (defaults:
 * 100K warm-up, 400K measured — the paper uses 1B-instruction traces;
 * shapes are stable at these budgets because the generators are
 * steady-state). BOP_VERBOSE=1 streams per-run progress to stderr.
 */

#ifndef BOP_BENCH_BENCH_COMMON_HH
#define BOP_BENCH_BENCH_COMMON_HH

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/table.hh"
#include "harness/experiment.hh"
#include "harness/job_fields.hh"
#include "harness/json_report.hh"
#include "harness/sweep_farm.hh"
#include "trace/workloads.hh"

namespace bop
{

/**
 * Options shared by the figure benches: the BOP_* settings (budget,
 * jobs, retries, ...), which --jobs and --retries override, plus the
 * bench flags.
 */
struct BenchOptions : EnvSettings
{
    std::string jsonPath; ///< --json PATH: machine-readable run records
    std::string journalPath; ///< --journal FILE: write-ahead journal
    std::string resumePath;  ///< --resume FILE: replay a journal
    bool retriesGiven = false; ///< --retries appeared on the command line
};

/** The standard bench usage text. */
inline void
printBenchUsage(const char *prog, bool positional)
{
    std::cerr << "usage: " << prog << " [--json PATH]"
              << " [--jobs N] [--journal FILE] [--resume FILE]"
              << " [--retries N]" << (positional ? " [benchmark]" : "")
              << "\n"
              << "  --json PATH     write one JSON record per "
                 "simulation run to PATH\n"
              << "  --jobs N        sweep-farm worker threads "
                 "(default BOP_JOBS or 1; records are\n"
              << "                  byte-identical for every N, "
                 "timing fields aside)\n"
              << "  --journal FILE  append every committed "
                 "record to a crash-durable write-ahead\n"
              << "                  journal "
                 "(fsync-on-commit; docs/ROBUSTNESS.md)\n"
              << "  --resume FILE   replay a journal before "
                 "sweeping: journaled jobs commit\n"
              << "                  verbatim, only the rest "
                 "simulate\n"
              << "  --retries N     retry transient (kind "
                 "\"io\") failures in place up to N\n"
              << "                  times with exponential "
                 "backoff (default BOP_RETRIES or 0)\n";
}

/**
 * Parse the BOP_* variables and the standard bench arguments. Exits 2
 * with usage on stderr when an unknown option is seen, so a typo
 * cannot silently run the full (expensive) figure, and exits 2 naming
 * the option or variable when a number is malformed or out of range,
 * so `--jobs abc` cannot silently run serially. When @p positional is
 * non-null, one bare argument is accepted and stored there (e.g. a
 * benchmark name).
 */
inline BenchOptions
parseBenchOptions(int argc, char **argv, std::string *positional = nullptr)
{
    constexpr std::int64_t intMax = std::numeric_limits<int>::max();
    BenchOptions opts;
    try {
        static_cast<EnvSettings &>(opts) = readEnvSettings(FrontEnd::Bench);
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--json" && i + 1 < argc) {
                opts.jsonPath = argv[++i];
            } else if (arg == "--jobs" && i + 1 < argc) {
                opts.jobs = static_cast<int>(
                    parseIntOption(arg, argv[++i], 1, intMax));
            } else if (arg == "--journal" && i + 1 < argc) {
                opts.journalPath = argv[++i];
            } else if (arg == "--resume" && i + 1 < argc) {
                opts.resumePath = argv[++i];
            } else if (arg == "--retries" && i + 1 < argc) {
                opts.retries = static_cast<int>(
                    parseIntOption(arg, argv[++i], 0, intMax));
                opts.retriesGiven = true;
            } else if (positional && !arg.empty() && arg[0] != '-') {
                *positional = arg;
            } else {
                printBenchUsage(argv[0], positional != nullptr);
                std::exit(arg == "--help" || arg == "-h" ? 0 : 2);
            }
        }
    } catch (const std::invalid_argument &e) {
        std::cerr << argv[0] << ": " << e.what() << "\n";
        std::exit(2);
    }
    return opts;
}

/**
 * Apply the options to a runner built with opts.budget: the BOP_*
 * runner settings, then resume (replaying an existing journal), then
 * attach the write-ahead journal for this session's commits. Refusals
 * (budget mismatch, corrupt journal) are fatal with the named mismatch
 * on stderr — a sweep must never silently proceed past a journal it
 * could not honour.
 */
inline void
configureBenchRunner(ExperimentRunner &runner, const BenchOptions &opts)
{
    configureRunner(runner, opts);
    try {
        if (!opts.resumePath.empty())
            runner.resumeFromJournal(opts.resumePath, std::cerr);
        if (!opts.journalPath.empty())
            runner.attachJournal(opts.journalPath);
    } catch (const std::exception &e) {
        std::cerr << e.what() << "\n";
        std::exit(2);
    }
}

/** Write the runner's records when --json was given; false on error. */
inline bool
finishBench(const ExperimentRunner &runner, const BenchOptions &opts)
{
    if (opts.jsonPath.empty())
        return true;
    if (!runner.writeJson(opts.jsonPath))
        return false;
    std::cout << "\n[" << runner.records().size() << " run records -> "
              << opts.jsonPath << "]\n";
    return true;
}

/** Print the standard bench header. */
inline void
benchHeader(const std::string &what, const ExperimentRunner &runner)
{
    std::cout << "=== " << what << " ===\n"
              << "(budgets: " << runner.budgets().warmup << " warm-up + "
              << runner.budgets().measure
              << " measured instructions; override with BOP_WARMUP / "
                 "BOP_INSTR)\n\n";
}

/**
 * The paper's standard per-benchmark speedup figure: one row per
 * benchmark, one column per (cores, page) grid point, plus the
 * geometric mean row. @p variant mutates the baseline config into the
 * configuration under test.
 *
 * The sweep runs in two passes: a prefetch pass submits every design
 * point to the farm (enumerated in the exact order the serial sweep
 * would first simulate them, so --jobs 1 reproduces the old record
 * order verbatim), then after drain() the table is computed through
 * the runner's warm memo cache.
 */
template <typename ConfigMutator>
void
printSpeedupFigure(SweepFarm &farm, ConfigMutator &&variant,
                   std::ostream &os = std::cout)
{
    for (const auto &bench : benchmarkNames()) {
        for (const auto &[cores, page] : baselineGrid()) {
            const SystemConfig base = baselineConfig(cores, page);
            SystemConfig cfg = base;
            variant(cfg);
            farm.submit(bench, cfg);
            farm.submit(bench, base);
        }
    }
    farm.drain();

    ExperimentRunner &runner = farm.runner();
    TextTable table;
    std::vector<std::string> header = {"benchmark"};
    for (const auto &[cores, page] : baselineGrid())
        header.push_back(gridLabel(cores, page));
    table.addRow(header);

    std::vector<std::vector<double>> speedups(baselineGrid().size());
    for (const auto &bench : benchmarkNames()) {
        std::vector<std::string> row = {bench};
        std::size_t g = 0;
        for (const auto &[cores, page] : baselineGrid()) {
            const SystemConfig base = baselineConfig(cores, page);
            SystemConfig cfg = base;
            variant(cfg);
            const double s = runner.speedup(bench, cfg, base);
            speedups[g++].push_back(s);
            row.push_back(TextTable::fmt(s));
        }
        table.addRow(row);
    }

    std::vector<std::string> gm = {"GM"};
    for (const auto &per_grid : speedups)
        gm.push_back(TextTable::fmt(geomean(per_grid)));
    table.addRow(gm);
    table.print(os);
}

/**
 * Geometric-mean-only figure (paper Figs. 7, 9, 10, 11): one row per
 * variant, one column per grid point. Each addVariant() farms its
 * design points out (prefetch pass in serial-sweep order, then
 * drain) before computing the row from the memo cache.
 */
class GeomeanFigure
{
  public:
    GeomeanFigure()
    {
        std::vector<std::string> header = {"variant"};
        for (const auto &[cores, page] : baselineGrid())
            header.push_back(gridLabel(cores, page));
        table.addRow(header);
    }

    template <typename ConfigMutator>
    void
    addVariant(SweepFarm &farm, const std::string &name,
               ConfigMutator &&variant)
    {
        for (const auto &[cores, page] : baselineGrid()) {
            const SystemConfig base = baselineConfig(cores, page);
            SystemConfig cfg = base;
            variant(cfg);
            for (const auto &bench : benchmarkNames()) {
                farm.submit(bench, cfg);
                farm.submit(bench, base);
            }
        }
        farm.drain();

        ExperimentRunner &runner = farm.runner();
        std::vector<std::string> row = {name};
        for (const auto &[cores, page] : baselineGrid()) {
            const SystemConfig base = baselineConfig(cores, page);
            SystemConfig cfg = base;
            variant(cfg);
            row.push_back(TextTable::fmt(
                runner.geomeanSpeedup(benchmarkNames(), cfg, base)));
        }
        table.addRow(row);
    }

    void print(std::ostream &os = std::cout) const { table.print(os); }

  private:
    TextTable table;
};

} // namespace bop

#endif // BOP_BENCH_BENCH_COMMON_HH
