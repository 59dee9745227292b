/**
 * @file
 * Shared plumbing of the `bopbench` binary: options, the metric
 * report, the canonical metric lists (BENCHMARK.json names the same
 * ones), and the entry points of the four workloads and of the layer
 * measurements.
 */

#ifndef BOPBENCH_BENCH_HH
#define BOPBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "harness/experiment.hh"
#include "span.hh"

namespace bopbench
{

/** Command-line options of one invocation. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    std::string workDir = "."; ///< scratch space (ckpt dirs, journals)
    std::string spansOut;      ///< traced run: span dump path
};

/** A metric name with its unit. */
struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics, reported by every workload's untraced run. */
const std::vector<MetricDef> &endToEndMetrics();
/** Per-layer metrics, reported by every workload's traced run. */
const std::vector<MetricDef> &perLayerMetrics();

/**
 * What one invocation reports: metric values, human-readable notes,
 * job counts and correctness failures. main() prints the notes,
 * then the single JSON result line.
 */
class Report
{
  public:
    void set(const std::string &name, double value);
    void note(const std::string &line);
    /** Record a failed correctness check (the run exits nonzero). */
    void check(bool ok, const std::string &what);

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    bool correct() const { return failures.empty(); }
    const std::vector<std::string> &failureList() const { return failures; }
    const std::vector<std::string> &notes() const { return lines; }
    /** Value of @p name; throws when it was never set. */
    double get(const std::string &name) const;
    bool has(const std::string &name) const;

  private:
    std::vector<std::pair<std::string, double>> values;
    std::vector<std::string> lines;
    std::vector<std::string> failures;
};

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Peak resident set of this process in MiB. */
double peakRssMb();

/** Short L2 prefetcher names used in job lines and pair keys. */
std::string prefetcherName(bop::L2PrefetcherKind kind);

/** End-to-end figures every workload fills in. */
struct EndToEnd
{
    double setupS = 0.0;
    double wallS = 0.0;
    double jobsPerS = 0.0;
    double minstrPerS = 0.0;
    double mcyclesPerS = 0.0;
    std::vector<double> latenciesMs;
    double maxRate = 0.0;
    double ipcGm = 0.0;
    double boSpeedupGm = 0.0;
    double dramPerKi = 0.0;
};

/** Report an EndToEnd as the canonical end-to-end metrics. */
void reportEndToEnd(const EndToEnd &e, Report &report);

/** One simulated job: its design point and its statistics. */
struct JobResult
{
    std::string benchmark;
    bop::SystemConfig cfg;
    bop::Budget budget;
    bop::RunStats stats;
};

/** Geomean IPC over jobs. */
double ipcGeomean(const std::vector<JobResult> &jobs);
/** Geomean BO/NL IPC ratio over jobs paired by everything else
 *  (benchmark, rest of the config, budget). */
double boSpeedupGeomean(const std::vector<JobResult> &jobs);
/** Mean DRAM accesses per 1000 core-0 instructions over jobs. */
double meanDramPerKi(const std::vector<JobResult> &jobs);

/**
 * Identity gate: one design point simulated cold, as the producer and
 * the consumer of a shared warmup prefix, and answered again from the
 * memo must give identical RunStats.
 */
void checkShareIdentity(const std::string &benchmark,
                        const bop::SystemConfig &cfg,
                        const bop::Budget &budget,
                        const std::string &work_dir, Report &report);

/** Inputs of the timed layer measurements of one workload. */
struct LayerInputs
{
    std::vector<std::string> benchmarks; ///< streams come from these
    std::uint64_t seed = 1;
    std::string ckptBenchmark;           ///< checkpoint/journal timing
    bop::SystemConfig ckptCfg;
    bop::Budget ckptBudget;
    std::string workDir;
};

/**
 * Timed layer calls: TraceSource::next, BO and the zoo prefetchers,
 * the 5P L3 tag array, the DRAM controller, checkpoint save/restore
 * and journal appends, each under its own span.
 */
void measureLayers(const LayerInputs &in, Tracer &tracer, Report &report);

/** Simulated per-layer ratios over the workload's jobs. */
void reportSimulatedLayers(const std::vector<JobResult> &jobs,
                           Report &report);

/**
 * Self time and span count per layer, plus the tracing overhead (traced
 * minus untraced wall time of the same work); writes the spans to
 * @p spans_out when non-empty.
 */
void finishTrace(const Tracer &tracer, double traced_wall_s,
                 double untraced_wall_s, const std::string &spans_out,
                 Report &report);

/** One design point of a workload. */
struct DesignPoint
{
    std::string benchmark;
    bop::SystemConfig cfg;
};

/**
 * Set-up time of a workload: sample() times several repetitions of the
 * set-up; a workload samples before and after its measured phase, so
 * the median covers the host's conditions over the whole run.
 */
class SetupTimer
{
  public:
    explicit SetupTimer(std::function<void()> setup_)
        : setup(std::move(setup_))
    {
    }
    void sample();
    double seconds() const;

  private:
    std::function<void()> setup;
    std::vector<double> samples;
};

/** Host times of directly driven (traced) simulations. */
struct SimTimes
{
    std::vector<double> construct;
    double warmup = 0, measure = 0, totalCycles = 0;
    std::size_t n = 0;
};

/**
 * One simulation driven through the System entry points, each step
 * under a span: construct (trace sources + System), warmup, measure.
 * Adds its host times to @p times under @p m.
 */
bop::RunStats tracedSimulation(const DesignPoint &dp,
                               const bop::Budget &budget, Tracer &tracer,
                               std::uint64_t parent, std::uint64_t job,
                               SimTimes &times, std::mutex &m);

/** sim.construct_s, sim.warmup_s, sim.measure_s, sim.host_ns_per_cycle. */
void reportSimTimes(const SimTimes &t, Report &report);

/** The harness per-layer figures of a workload's jobs. */
struct HarnessFigures
{
    double queueWaitMs = 0.0;
    double memoHitFrac = 0.0;
    double prefixReuseFrac = 0.0;
    double retried = 0.0;
};
void reportHarness(const HarnessFigures &h, Report &report);

void runSweep(const Options &opt, bool compute, Report &report);
void runChip16(const Options &opt, Report &report);
void runServeOpen(const Options &opt, Report &report);

} // namespace bopbench

#endif // BOPBENCH_BENCH_HH
