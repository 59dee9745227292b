/**
 * @file
 * `bopbench`: the repository benchmark's binary.
 *
 *   bopbench --workload <sweep_mem|sweep_compute|serve_open|chip16_threads>
 *            [--seed N] [--seconds S] [--trace 0|1] [--workdir DIR]
 *            [--spans-out FILE] [--commit SHA]
 *
 * Prints provenance and human-readable notes, one "metric" line per
 * metric (name, value, unit), and as its last line the JSON result
 * {"correct", "attempted", "failed", "metrics"}. Exits 1 when a
 * correctness check failed, 2 on bad usage or a refused build.
 */

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hh"
#include "stats.hh"

#ifndef BOPBENCH_BUILD_TYPE
#define BOPBENCH_BUILD_TYPE "unknown"
#endif
#ifndef BOPBENCH_LTO
#define BOPBENCH_LTO 0
#endif

namespace bopbench
{

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s"},
        {"wall_s", "s"},
        {"jobs_per_s", "1/s"},
        {"sim_minstr_per_s", "Minstr/s"},
        {"sim_mcycles_per_s", "Mcycles/s"},
        {"latency_p50_ms", "ms"},
        {"latency_p99_ms", "ms"},
        {"max_rate_jobs_per_s", "1/s"},
        {"peak_rss_mb", "MiB"},
        {"ipc_gm", "instr/cycle"},
        {"bo_speedup_gm", "x"},
        {"dram_per_ki", "1/kinstr"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"trace.gen_ns_per_instr", "ns"},
        {"sim.construct_s", "s"},
        {"sim.warmup_s", "s"},
        {"sim.measure_s", "s"},
        {"sim.host_ns_per_cycle", "ns"},
        {"sim.serial_s", "s"},
        {"sim.parallel_speedup", "x"},
        {"core.bo_ns_per_access", "ns"},
        {"core.bo_learning_phases", "count"},
        {"core.bo_off_phases", "count"},
        {"prefetch.nl.ns_per_access", "ns"},
        {"prefetch.sbp.ns_per_access", "ns"},
        {"prefetch.stream.ns_per_access", "ns"},
        {"prefetch.acdc.ns_per_access", "ns"},
        {"prefetch.issued_per_ki", "1/kinstr"},
        {"prefetch.accuracy", "ratio"},
        {"prefetch.coverage", "ratio"},
        {"prefetch.timeliness", "ratio"},
        {"prefetch.dropped_frac", "ratio"},
        {"cache.l3_ns_per_access", "ns"},
        {"cache.dl1_miss_ratio", "ratio"},
        {"cache.l2_mpki", "1/kinstr"},
        {"cache.l3_miss_ratio", "ratio"},
        {"cache.l3_channel_stalls", "count"},
        {"dram.ns_per_request", "ns"},
        {"dram.reads_per_ki", "1/kinstr"},
        {"dram.writes_per_ki", "1/kinstr"},
        {"dram.row_hit_ratio", "ratio"},
        {"harness.queue_wait_ms", "ms"},
        {"harness.memo_hit_frac", "ratio"},
        {"harness.prefix_reuse_frac", "ratio"},
        {"harness.ckpt_save_ms", "ms"},
        {"harness.ckpt_restore_ms", "ms"},
        {"harness.ckpt_bytes", "bytes"},
        {"harness.journal_append_ms", "ms"},
        {"harness.retried", "count"},
        {"bench.self_s", "s"},
        {"bench.spans", "count"},
        {"harness.self_s", "s"},
        {"harness.spans", "count"},
        {"sim.self_s", "s"},
        {"sim.spans", "count"},
        {"trace.self_s", "s"},
        {"trace.spans", "count"},
        {"core.self_s", "s"},
        {"core.spans", "count"},
        {"prefetch.self_s", "s"},
        {"prefetch.spans", "count"},
        {"cache.self_s", "s"},
        {"cache.spans", "count"},
        {"dram.self_s", "s"},
        {"dram.spans", "count"},
        {"tracing.traced_wall_s", "s"},
        {"tracing.untraced_wall_s", "s"},
        {"tracing.overhead_s", "s"},
    };
    return defs;
}

void
Report::set(const std::string &name, double value)
{
    for (auto &[n, v] : values) {
        if (n == name) {
            v = value;
            return;
        }
    }
    values.emplace_back(name, value);
}

bool
Report::has(const std::string &name) const
{
    for (const auto &[n, v] : values) {
        if (n == name)
            return true;
    }
    return false;
}

double
Report::get(const std::string &name) const
{
    for (const auto &[n, v] : values) {
        if (n == name)
            return v;
    }
    throw std::logic_error("metric " + name + " was never set");
}

void
Report::note(const std::string &line)
{
    lines.push_back(line);
}

void
Report::check(bool ok, const std::string &what)
{
    if (!ok)
        failures.push_back(what);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
prefetcherName(bop::L2PrefetcherKind kind)
{
    using K = bop::L2PrefetcherKind;
    switch (kind) {
      case K::NextLine: return "nl";
      case K::BestOffset: return "bo";
      case K::Sandbox: return "sbp";
      case K::Stream: return "stream";
      case K::Acdc: return "acdc";
      default: return "other";
    }
}

void
reportEndToEnd(const EndToEnd &e, Report &report)
{
    report.set("setup_s", e.setupS);
    report.set("wall_s", e.wallS);
    report.set("jobs_per_s", e.jobsPerS);
    report.set("sim_minstr_per_s", e.minstrPerS);
    report.set("sim_mcycles_per_s", e.mcyclesPerS);
    const Tail tail = tailPercentile(e.latenciesMs);
    report.set("latency_p50_ms", median(e.latenciesMs));
    report.set("latency_p99_ms", tail.value);
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "latency: p50 and p%.2f over %zu samples (the highest "
                  "percentile with >= 10 samples beyond it, capped at p99)",
                  tail.percentile, tail.samples);
    report.note(buf);
    report.set("max_rate_jobs_per_s", e.maxRate);
    report.set("peak_rss_mb", peakRssMb());
    report.set("ipc_gm", e.ipcGm);
    report.set("bo_speedup_gm", e.boSpeedupGm);
    report.set("dram_per_ki", e.dramPerKi);
}

double
ipcGeomean(const std::vector<JobResult> &jobs)
{
    std::vector<double> ipcs;
    for (const JobResult &j : jobs)
        ipcs.push_back(j.stats.ipc());
    return ipcs.empty() ? 0.0 : bop::geomean(ipcs);
}

double
boSpeedupGeomean(const std::vector<JobResult> &jobs)
{
    std::vector<PairedJob> paired;
    for (const JobResult &j : jobs) {
        bop::SystemConfig rest = j.cfg;
        rest.l2Prefetcher = bop::L2PrefetcherKind::None;
        paired.push_back({bop::ExperimentRunner::runKey(j.benchmark, rest,
                                                        j.budget),
                          prefetcherName(j.cfg.l2Prefetcher), j.stats.ipc()});
    }
    return boSpeedup(paired).geomean;
}

double
meanDramPerKi(const std::vector<JobResult> &jobs)
{
    std::vector<double> v;
    for (const JobResult &j : jobs)
        v.push_back(j.stats.dramPer1kInstr());
    return bop::mean(v);
}

void
checkShareIdentity(const std::string &benchmark,
                   const bop::SystemConfig &cfg, const bop::Budget &budget,
                   const std::string &work_dir, Report &report)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(work_dir) / "gate-ckpt";
    fs::remove_all(dir);
    fs::create_directories(dir);

    auto makeRunner = [&](bool share) {
        auto r = std::make_unique<bop::ExperimentRunner>(budget);
        r->setCheckpointSharing(share);
        r->setCheckpointDir(share ? dir.string() : "");
        r->setJobTimeout(0.0);
        r->setRetries(0);
        return r;
    };
    auto cold = makeRunner(false);
    auto producer = makeRunner(true);
    auto consumer = makeRunner(true);

    const bop::RunStats coldStats =
        cold->run(benchmark, cfg, budget, false).stats;
    const bop::RunStats dupStats =
        cold->run(benchmark, cfg, budget, false).stats;
    const bop::RunStats producerStats =
        producer->run(benchmark, cfg, budget, true).stats;
    // In-memory consumer: the producer's prefix cache is warm now.
    const bop::RunStats memConsumer =
        producer->simulateRecord(benchmark, cfg, budget, true).stats;
    // Disk consumer: a second runner restores the persisted prefix.
    const bop::RunStats diskConsumer =
        consumer->run(benchmark, cfg, budget, true).stats;

    const bool ok = dupStats == coldStats && producerStats == coldStats &&
                    memConsumer == coldStats && diskConsumer == coldStats &&
                    cold->records().size() == 1 &&
                    producer->prefixSimulations() == 1 &&
                    consumer->prefixSimulations() == 0;
    report.check(ok, "duplicate/warm-shared/cold RunStats differ for " +
                         benchmark + " " + cfg.describe());
    report.note(std::string("gate: duplicate, warm-shared (memory and "
                            "disk) and cold answers identical for ") +
                benchmark + ": " + (ok ? "yes" : "NO"));
    fs::remove_all(dir);
}

} // namespace bopbench

namespace
{

using namespace bopbench;

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "bopbench: %s\nusage: bopbench --workload "
                 "<sweep_mem|sweep_compute|serve_open|chip16_threads> "
                 "[--seed N] [--seconds S] [--trace 0|1] [--workdir DIR] "
                 "[--spans-out FILE] [--commit SHA]\n",
                 msg);
    return 2;
}

void
printNumber(std::ostream &os, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    os << buf;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::string commit = "unknown";
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        try {
            if (a == "--workload")
                opt.workload = v;
            else if (a == "--seed")
                opt.seed = std::stoull(v);
            else if (a == "--seconds")
                opt.seconds = std::stod(v);
            else if (a == "--trace")
                opt.trace = std::stoi(v) != 0;
            else if (a == "--workdir")
                opt.workDir = v;
            else if (a == "--spans-out")
                opt.spansOut = v;
            else if (a == "--commit")
                commit = v;
            else
                return usage(("unknown option " + a).c_str());
        } catch (const std::exception &) {
            return usage(("bad value for " + a).c_str());
        }
    }
    if (opt.seconds <= 0.0)
        return usage("--seconds must be positive");

    const std::string buildType = BOPBENCH_BUILD_TYPE;
#ifdef NDEBUG
    const bool optimized = buildType != "Debug";
#else
    const bool optimized = false;
#endif
    if (!optimized) {
        std::fprintf(stderr, "bopbench: refusing to measure a %s build "
                             "(assertions on / no optimisation); build "
                             "Release\n",
                     buildType.empty() ? "default" : buildType.c_str());
        return 2;
    }

    Report report;
    std::cout << "# bopbench workload=" << opt.workload
              << " seed=" << opt.seed << " seconds=" << opt.seconds
              << " trace=" << (opt.trace ? 1 : 0)
              << " nproc=" << std::thread::hardware_concurrency()
              << " build=" << buildType
              << " lto=" << (BOPBENCH_LTO ? "on" : "off")
              << " commit=" << commit << "\n";
    std::cout << "# simulated metrics are exact outputs of a model not "
                 "validated against hardware; no error figure applies\n";

    std::filesystem::create_directories(opt.workDir);
    try {
        if (opt.workload == "sweep_mem")
            runSweep(opt, false, report);
        else if (opt.workload == "sweep_compute")
            runSweep(opt, true, report);
        else if (opt.workload == "serve_open")
            runServeOpen(opt, report);
        else if (opt.workload == "chip16_threads")
            runChip16(opt, report);
        else
            return usage(("unknown workload '" + opt.workload + "'").c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bopbench: %s\n", e.what());
        return 1;
    }

    for (const std::string &line : report.notes())
        std::cout << "# " << line << "\n";
    for (const std::string &f : report.failureList())
        std::cout << "# CHECK FAILED: " << f << "\n";

    const auto &defs = opt.trace ? perLayerMetrics() : endToEndMetrics();
    for (const MetricDef &d : defs) {
        if (!report.has(d.name)) {
            std::fprintf(stderr, "bopbench: metric %s was not measured\n",
                         d.name);
            return 1;
        }
        std::cout << "metric " << d.name << " = ";
        printNumber(std::cout, report.get(d.name));
        std::cout << " " << d.unit << "\n";
    }

    std::cout << "{\"correct\": " << (report.correct() ? "true" : "false")
              << ", \"attempted\": " << report.attempted
              << ", \"failed\": " << report.failed << ", \"metrics\": {";
    bool first = true;
    for (const MetricDef &d : defs) {
        std::cout << (first ? "" : ", ") << "\"" << d.name
                  << "\": {\"value\": ";
        printNumber(std::cout, report.get(d.name));
        std::cout << ", \"unit\": \"" << d.unit << "\"}";
        first = false;
    }
    std::cout << "}}" << std::endl;
    return report.correct() ? 0 : 1;
}
