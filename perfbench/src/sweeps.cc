/**
 * @file
 * Closed-loop workloads: `sweep_mem` and `sweep_compute` (a figure-style
 * batch through SweepFarm at four workers, repeated in identical
 * rounds) and `chip16_threads` (16-core/8-channel design points on the
 * parallel epoch engine at four threads, gated against serial runs).
 */

#include <cstdio>

#include "bench.hh"
#include "harness/sweep_farm.hh"
#include "sim/parallel.hh"
#include "stats.hh"
#include "trace/workloads.hh"

namespace bopbench
{

namespace
{

constexpr int farmJobs = 4;
constexpr int setupRepeats = 7;

struct SweepShape
{
    std::vector<std::string> benchmarks;
    std::vector<bop::L2PrefetcherKind> oneCore;  ///< 1-core/4KB points
    std::vector<bop::L2PrefetcherKind> fourCore; ///< 4-core/4KB points
    bop::Budget budget;
};

SweepShape
sweepShape(bool compute)
{
    using K = bop::L2PrefetcherKind;
    const std::vector<K> zoo = {K::NextLine, K::BestOffset, K::Sandbox,
                                K::Stream, K::Acdc};
    SweepShape s;
    if (compute) {
        // Low L2 MPKI: the core model and the generators dominate.
        s.benchmarks = {"453.povray", "416.gamess",  "456.hmmer",
                        "454.calculix", "444.namd", "435.gromacs",
                        "445.gobmk"};
        s.oneCore = zoo;
        s.fourCore = zoo;
        s.budget = {100000, 300000};
    } else {
        // memoryHeavyBenchmarks(): L2 MPKI 10-45, Fig. 6/13's subjects.
        s.benchmarks = bop::memoryHeavyBenchmarks();
        s.oneCore = zoo;
        s.fourCore = {K::NextLine, K::BestOffset};
        s.budget = {50000, 150000};
    }
    return s;
}

/** The round's design points: 4-core first (longest jobs first). */
std::vector<DesignPoint>
designPoints(const SweepShape &shape, std::uint64_t seed)
{
    std::vector<DesignPoint> dps;
    for (const int cores : {4, 1}) {
        const auto &kinds = cores == 4 ? shape.fourCore : shape.oneCore;
        for (const std::string &b : shape.benchmarks) {
            for (const bop::L2PrefetcherKind k : kinds) {
                bop::SystemConfig cfg =
                    bop::baselineConfig(cores, bop::PageSize::FourKB);
                cfg.l2Prefetcher = k;
                cfg.seed = seed;
                dps.push_back({b, cfg});
            }
        }
    }
    return dps;
}

std::unique_ptr<bop::ExperimentRunner>
makeRunner(const bop::Budget &budget)
{
    auto r = std::make_unique<bop::ExperimentRunner>(budget);
    r->setCheckpointSharing(false);
    r->setCheckpointDir("");
    r->setJobTimeout(0.0);
    r->setRetries(0);
    return r;
}

/** One farm round's outcome. */
struct Round
{
    double wall = 0.0;
    std::vector<JobResult> jobs;
    std::vector<double> latencyMs;
    double queueWaitMs = 0.0; ///< mean over jobs
    double retried = 0.0;
    std::size_t errors = 0;
    std::string digest;
};

Round
farmRound(const std::vector<DesignPoint> &dps, const bop::Budget &budget,
          Report &report)
{
    auto runner = makeRunner(budget);
    Round r;
    const auto t0 = Clock::now();
    {
        bop::SweepFarm farm(*runner, farmJobs);
        for (const DesignPoint &dp : dps)
            farm.submit(dp.benchmark, dp.cfg);
        farm.drain();
    }
    r.wall = secondsSince(t0);

    const auto &records = runner->records();
    report.check(records.size() == dps.size(),
                 "farm committed a different number of records");
    StatsDigest digest;
    for (std::size_t i = 0; i < records.size() && i < dps.size(); ++i) {
        const bop::RunRecord &rec = records[i];
        if (rec.errored()) {
            ++r.errors;
            report.check(false, "job failed: " + rec.errorDetail);
            continue;
        }
        report.check(rec.workload == dps[i].benchmark &&
                         rec.config == dps[i].cfg.describe(),
                     "farm record out of submission order");
        r.jobs.push_back({dps[i].benchmark, dps[i].cfg, budget, rec.stats});
        r.latencyMs.push_back((rec.queueWaitSeconds + rec.wallSeconds) * 1e3);
        r.queueWaitMs += rec.queueWaitSeconds * 1e3;
        r.retried += rec.attempts - 1;
        digest.add(rec.stats);
    }
    if (!r.jobs.empty())
        r.queueWaitMs /= static_cast<double>(r.jobs.size());
    r.digest = digest.hex();
    return r;
}

double
sumInstr(const std::vector<JobResult> &jobs)
{
    double s = 0;
    for (const JobResult &j : jobs)
        s += static_cast<double>(j.stats.instructions);
    return s;
}

double
sumCycles(const std::vector<JobResult> &jobs)
{
    double s = 0;
    for (const JobResult &j : jobs)
        s += static_cast<double>(j.stats.cycles);
    return s;
}

} // namespace

void
SetupTimer::sample()
{
    for (int i = 0; i < setupRepeats; ++i) {
        const auto t0 = Clock::now();
        setup();
        samples.push_back(secondsSince(t0));
    }
}

double
SetupTimer::seconds() const
{
    return median(samples);
}

void
reportSimTimes(const SimTimes &t, Report &report)
{
    const double n = t.n ? static_cast<double>(t.n) : 1.0;
    report.set("sim.construct_s", median(t.construct));
    report.set("sim.warmup_s", t.warmup / n);
    report.set("sim.measure_s", t.measure / n);
    report.set("sim.host_ns_per_cycle",
               t.totalCycles > 0
                   ? (t.warmup + t.measure) * 1e9 / t.totalCycles
                   : 0.0);
}

bop::RunStats
tracedSimulation(const DesignPoint &dp, const bop::Budget &budget,
                 Tracer &tracer, std::uint64_t parent, std::uint64_t job,
                 SimTimes &times, std::mutex &m)
{
    auto t0 = Clock::now();
    std::unique_ptr<bop::System> sys;
    {
        Span s(&tracer, "sim.construct", parent, job);
        sys = std::make_unique<bop::System>(
            dp.cfg, bop::makeTraces(dp.benchmark, dp.cfg));
    }
    const double construct = secondsSince(t0);
    t0 = Clock::now();
    {
        Span s(&tracer, "sim.warmup", parent, job);
        sys->warmup(budget.warmup);
    }
    const double warm = secondsSince(t0);
    t0 = Clock::now();
    bop::RunStats stats;
    {
        Span s(&tracer, "sim.measure", parent, job);
        stats = sys->measure(budget.measure);
    }
    const double meas = secondsSince(t0);
    std::lock_guard<std::mutex> lk(m);
    times.construct.push_back(construct);
    times.warmup += warm;
    times.measure += meas;
    times.totalCycles += static_cast<double>(sys->currentCycle());
    ++times.n;
    return stats;
}

void
runSweep(const Options &opt, bool compute, Report &report)
{
    const SweepShape shape = sweepShape(compute);
    const std::vector<DesignPoint> dps = designPoints(shape, opt.seed);
    report.note(std::string(compute ? "sweep_compute" : "sweep_mem") +
                ": closed loop, SweepFarm --jobs 4, " +
                std::to_string(dps.size()) + " design points per round, " +
                "budget " + std::to_string(shape.budget.warmup) + "+" +
                std::to_string(shape.budget.measure) + " instructions");

    // Gate: one BO design point, cold vs duplicate vs warm-shared.
    {
        bop::SystemConfig cfg = bop::baselineConfig(1, bop::PageSize::FourKB);
        cfg.l2Prefetcher = bop::L2PrefetcherKind::BestOffset;
        cfg.seed = opt.seed;
        checkShareIdentity(shape.benchmarks.front(), cfg, shape.budget,
                           opt.workDir, report);
    }

    if (opt.trace) {
        const Round untraced = farmRound(dps, shape.budget, report);
        report.attempted += dps.size();
        report.failed += untraced.errors;

        Tracer tracer;
        SimTimes times;
        std::mutex m;
        std::vector<bop::RunStats> traced(dps.size());
        const auto t0 = Clock::now();
        {
            Span round(&tracer, "bench.round");
            bop::TaskPool pool(farmJobs);
            for (std::size_t i = 0; i < dps.size(); ++i) {
                pool.submit([&, i, parent = round.id()] {
                    Span job(&tracer, "harness.job", parent, i + 1);
                    traced[i] = tracedSimulation(dps[i], shape.budget, tracer,
                                                 job.id(), i + 1, times, m);
                });
            }
            pool.drain();
            report.check(pool.takeErrors().empty(), "traced job threw");
        }
        const double tracedWall = secondsSince(t0);
        report.attempted += dps.size();
        StatsDigest td;
        for (const bop::RunStats &s : traced)
            td.add(s);
        report.check(td.hex() == untraced.digest,
                     "traced stats differ from untraced stats");
        report.note("gate: traced stats equal untraced stats: " +
                    std::string(td.hex() == untraced.digest ? "yes" : "NO"));
        report.note("sim_stats_digest " + untraced.digest);

        reportSimTimes(times, report);
        report.set("sim.serial_s", 0.0);        // chip16_threads only
        report.set("sim.parallel_speedup", 0.0); // chip16_threads only
        LayerInputs in;
        in.benchmarks = shape.benchmarks;
        in.seed = opt.seed;
        in.ckptBenchmark = shape.benchmarks.front();
        in.ckptCfg = bop::baselineConfig(1, bop::PageSize::FourKB);
        in.ckptCfg.seed = opt.seed;
        in.ckptBudget = shape.budget;
        in.workDir = opt.workDir;
        measureLayers(in, tracer, report);
        reportSimulatedLayers(untraced.jobs, report);
        reportHarness({untraced.queueWaitMs, 0.0, 0.0, untraced.retried},
                      report);
        finishTrace(tracer, tracedWall, untraced.wall, opt.spansOut, report);
        return;
    }

    SetupTimer setup([&] {
        const auto points = designPoints(shape, opt.seed);
        bop::System sys(points.front().cfg,
                        bop::makeTraces(points.front().benchmark,
                                        points.front().cfg));
    });
    setup.sample();

    // Measured rounds: identical inputs, so identical stats each round.
    std::vector<Round> rounds;
    const auto start = Clock::now();
    while (rounds.size() < 2 ||
           secondsSince(start) + rounds.back().wall <= opt.seconds) {
        rounds.push_back(farmRound(dps, shape.budget, report));
        report.attempted += dps.size();
        report.failed += rounds.back().errors;
        if (rounds.back().errors)
            break;
    }
    setup.sample();

    EndToEnd e;
    e.setupS = setup.seconds();
    bool same = true;
    std::vector<double> walls, jps, minstr, mcyc;
    for (const Round &r : rounds) {
        same = same && r.digest == rounds.front().digest;
        walls.push_back(r.wall);
        jps.push_back(static_cast<double>(r.jobs.size()) / r.wall);
        minstr.push_back(sumInstr(r.jobs) / r.wall / 1e6);
        mcyc.push_back(sumCycles(r.jobs) / r.wall / 1e6);
        e.latenciesMs.insert(e.latenciesMs.end(), r.latencyMs.begin(),
                             r.latencyMs.end());
    }
    report.check(same, "rounds with identical inputs gave different stats");
    std::string roundWalls = "round wall times (s):";
    for (const double w : walls)
        roundWalls += " " + std::to_string(w);
    report.note(roundWalls);
    report.note("sim_stats_digest " + rounds.front().digest + " (" +
                std::to_string(rounds.front().jobs.size()) +
                " jobs, submission order; " + std::to_string(rounds.size()) +
                " rounds agree: " + (same ? "yes" : "NO") + ")");

    const std::vector<JobResult> &jobs = rounds.front().jobs;
    e.wallS = median(walls);
    e.jobsPerS = median(jps);
    e.minstrPerS = median(minstr);
    e.mcyclesPerS = median(mcyc);
    e.maxRate = e.jobsPerS; // closed loop: the sustained rate
    e.ipcGm = ipcGeomean(jobs);
    e.boSpeedupGm = boSpeedupGeomean(jobs);
    e.dramPerKi = meanDramPerKi(jobs);
    reportEndToEnd(e, report);
}

void
runChip16(const Options &opt, Report &report)
{
    // The simulated metrics come from serial runs with eight memory-heavy
    // core-0 benchmarks (a single 6k-instruction window varies with the
    // seed by 6-20% in IPC; eight of them average that out). The
    // threaded engine runs the first two with a shorter window, so that
    // a run holds enough samples for a latency tail; their threads-1
    // twins gate it. Their seed is fixed: at this window the simulated
    // cycle count, and with it the host time, moves 15-20% with the
    // seed, which would drown the engine's own speed.
    const std::vector<std::string> benches = {
        "462.libquantum", "437.leslie3d", "434.zeusmp", "436.cactusADM",
        "470.lbm",        "433.milc",     "481.wrf",    "429.mcf"};
    constexpr std::size_t threadedBenches = 2;
    constexpr std::uint64_t threadSeed = 1;
    const bop::Budget simBudget{2000, 6000};
    const bop::Budget threadBudget{1000, 3000};
    std::vector<DesignPoint> threaded, threadedRef, serial, nextLine;
    for (const std::string &b : benches) {
        bop::SystemConfig cfg = bop::baselineConfig(16, bop::PageSize::FourKB);
        cfg.l2Prefetcher = bop::L2PrefetcherKind::BestOffset;
        if (threaded.size() < threadedBenches) {
            cfg.seed = threadSeed;
            threadedRef.push_back({b, cfg});
            cfg.numThreads = 4;
            threaded.push_back({b, cfg});
            cfg.numThreads = 1;
        }
        cfg.seed = opt.seed;
        serial.push_back({b, cfg});
        cfg.l2Prefetcher = bop::L2PrefetcherKind::NextLine;
        nextLine.push_back({b, cfg});
    }
    report.note("chip16_threads: " + threaded.front().cfg.describe() +
                ", cores 1-15 thrasher; --threads 4 with core 0 " +
                benches[0] + " and " + benches[1] + ", budget " +
                std::to_string(threadBudget.warmup) + "+" +
                std::to_string(threadBudget.measure) +
                "; simulated metrics over eight core-0 benchmarks, budget " +
                std::to_string(simBudget.warmup) + "+" +
                std::to_string(simBudget.measure));

    auto simulate = [&](const DesignPoint &dp, const bop::Budget &budget,
                        double *wall) {
        bop::System sys(dp.cfg, bop::makeTraces(dp.benchmark, dp.cfg));
        report.check(sys.threadCount() == dp.cfg.numThreads,
                     "System ran on an unexpected thread count");
        const auto t0 = Clock::now();
        const bop::RunStats stats = sys.run(budget.warmup, budget.measure);
        *wall = secondsSince(t0);
        return stats;
    };

    // Serial design points with their next-line twins, then the
    // threads-1 references the threads-4 runs must equal.
    std::vector<JobResult> jobs;
    StatsDigest digest;
    double w = 0;
    for (std::size_t i = 0; i < benches.size(); ++i) {
        jobs.push_back({benches[i], serial[i].cfg, simBudget,
                        simulate(serial[i], simBudget, &w)});
        jobs.push_back({benches[i], nextLine[i].cfg, simBudget,
                        simulate(nextLine[i], simBudget, &w)});
        digest.add(jobs[jobs.size() - 2].stats);
        digest.add(jobs.back().stats);
    }
    std::vector<bop::RunStats> reference;
    double serialWall = 0; ///< threads-1 time of the threaded points
    double instr = 0, cycles = 0; ///< their simulated work
    for (std::size_t i = 0; i < threaded.size(); ++i) {
        reference.push_back(simulate(threadedRef[i], threadBudget, &w));
        serialWall += w;
        instr += static_cast<double>(reference[i].instructions);
        cycles += static_cast<double>(reference[i].cycles);
        digest.add(reference[i]);
    }
    report.attempted += jobs.size() + reference.size();
    std::size_t mismatches = 0;
    auto checkThreaded = [&](std::size_t i, const bop::RunStats &s) {
        const bool same = s == reference[i];
        if (!same)
            ++mismatches;
        report.check(same, "threads-4 stats differ from threads-1 for " +
                               benches[i]);
    };
    /** One threaded pass over every design point; returns its wall. */
    auto threadedRound = [&](std::vector<double> *sims) {
        double round = 0;
        for (std::size_t i = 0; i < threaded.size(); ++i) {
            checkThreaded(i, simulate(threaded[i], threadBudget, &w));
            round += w;
            if (sims)
                sims->push_back(w);
        }
        report.attempted += threaded.size();
        return round;
    };

    if (opt.trace) {
        const double untracedWall = threadedRound(nullptr);
        Tracer tracer;
        SimTimes times;
        std::mutex m;
        {
            Span root(&tracer, "bench.round");
            for (std::size_t i = 0; i < threaded.size(); ++i)
                checkThreaded(i, tracedSimulation(threaded[i], threadBudget,
                                                  tracer, root.id(), i + 1,
                                                  times, m));
        }
        report.attempted += threaded.size();
        const double tracedWall = times.warmup + times.measure;
        report.note("gate: threads-4 stats equal threads-1 stats: " +
                    std::string(mismatches ? "NO" : "yes"));
        report.note("sim_stats_digest " + digest.hex());
        reportSimTimes(times, report);
        report.set("sim.serial_s", serialWall);
        report.set("sim.parallel_speedup", serialWall / untracedWall);
        LayerInputs in;
        in.benchmarks = benches;
        in.seed = opt.seed;
        in.ckptBenchmark = benches.front();
        in.ckptCfg = serial.front().cfg;
        in.ckptBudget = simBudget;
        in.workDir = opt.workDir;
        measureLayers(in, tracer, report);
        reportSimulatedLayers(jobs, report);
        reportHarness({}, report);
        finishTrace(tracer, tracedWall, untracedWall, opt.spansOut, report);
        return;
    }

    SetupTimer setup([&] {
        const DesignPoint &dp = threaded.front();
        bop::System sys(dp.cfg, bop::makeTraces(dp.benchmark, dp.cfg));
    });
    setup.sample();
    // The first threaded simulation of a process runs up to 3x slower
    // (idle CPUs waking to the barrier traffic); one gated, untimed
    // simulation lets that pass before timing starts.
    checkThreaded(0, simulate(threaded.front(), threadBudget, &w));
    ++report.attempted;
    std::vector<double> rounds, sims;
    const auto start = Clock::now();
    while (rounds.size() < 2 ||
           secondsSince(start) + median(rounds) <= opt.seconds)
        rounds.push_back(threadedRound(&sims));
    setup.sample();

    report.note("gate: " + std::to_string(sims.size()) +
                " threads-4 runs equal their threads-1 runs: " +
                (mismatches ? "NO" : "yes"));
    report.note("sim_stats_digest " + digest.hex());
    std::string walls = "threads-4 round wall times (s):";
    for (const double w : rounds)
        walls += " " + std::to_string(w);
    char buf[80];
    std::snprintf(buf, sizeof buf, "; threads-1 pass %.3f s", serialWall);
    report.note(walls + buf);

    EndToEnd e;
    e.setupS = setup.seconds();
    e.wallS = median(rounds);
    e.jobsPerS = static_cast<double>(threaded.size()) / e.wallS;
    e.minstrPerS = instr / e.wallS / 1e6;
    e.mcyclesPerS = cycles / e.wallS / 1e6;
    for (const double w : sims)
        e.latenciesMs.push_back(w * 1e3);
    e.maxRate = e.jobsPerS; // closed loop: the sustained rate
    e.ipcGm = ipcGeomean(jobs);
    e.boSpeedupGm = boSpeedupGeomean(jobs);
    e.dramPerKi = meanDramPerKi(jobs);
    reportEndToEnd(e, report);
}

} // namespace bopbench
