/**
 * @file
 * `serve_open`: an open loop of seeded Poisson arrivals fed to
 * serveLoop() as NDJSON job lines, at a few fixed offered rates.
 *
 * A generator thread sends each line at its due time into a pipe the
 * serve reader drains; an output sink timestamps each response by its
 * job_index. Latency is measured from the due time, so a stall that
 * delays later jobs counts against them, and the generator's own
 * lateness (send time minus due time) is reported per rate: a rate at
 * which the generator fell behind is marked invalid, not counted.
 *
 * Each rate point starts from a fresh runner with its own checkpoint
 * cache directory and write-ahead journal. The mix holds cold design
 * points (BO jobs with their next-line twins, plus SBP/stream singles),
 * exact duplicates (memo hits or in-flight latch waits) and jobs that
 * share a warm prefix with "checkpoint": "share".
 */

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <random>
#include <sstream>
#include <streambuf>
#include <thread>

#include "bench.hh"
#include "harness/serve.hh"
#include "stats.hh"

namespace bopbench
{

namespace
{

namespace fs = std::filesystem;

constexpr int serveWorkers = 4;
/** The latency limit the tail must meet for a rate to count. */
constexpr double latencyLimitMs = 250.0;
/**
 * Offered rates (jobs/s), ascending, finer around the 4-CPU reference
 * host's capacity for this mix (200-280 jobs/s, depending on the
 * host's load) and reaching well past it, so the max-rate search
 * always sees a miss. The reported latencies come from the reference
 * rate, about half that capacity.
 */
const std::vector<double> offeredRates = {50,  100, 160, 200,
                                          240, 280, 320, 360};
constexpr std::size_t referenceRate = 1;
/** The reference rate's share of sending time, in units of the others':
 *  enough samples for a stable tail. */
constexpr double referenceWeight = 3.0;
/** Share of the run spent sending (the rest drains and sets up). */
constexpr double sendShare = 0.7;
/** Generator lateness allowed, as a share of the latency limit. */
constexpr double latenessShare = 0.1;

const bop::Budget defaultBudget{20000, 60000};

/** One job line of the mix and the design point it names. */
struct MixJob
{
    std::string line;
    std::string benchmark;
    bop::SystemConfig cfg;
    bop::Budget budget;
    bool share = false;
    double dueS = 0.0; ///< offset from the rate point's start
};

/** Small deterministic generator (std distributions are not portable). */
class Draw
{
  public:
    explicit Draw(std::uint64_t seed) : rng(seed) {}
    std::size_t below(std::size_t n) { return rng() % n; }
    double unit()
    {
        return static_cast<double>(rng() >> 11) * 0x1.0p-53;
    }

  private:
    std::mt19937_64 rng;
};

MixJob
makeJob(const std::string &benchmark, bop::L2PrefetcherKind kind, int cores,
        std::uint64_t seed, std::uint64_t instr, bool share)
{
    MixJob j;
    j.benchmark = benchmark;
    j.cfg = bop::SystemConfig{};
    j.cfg.l2Prefetcher = kind;
    j.cfg.activeCores = cores;
    j.cfg.seed = seed;
    j.budget = {defaultBudget.warmup, instr};
    j.share = share;
    std::ostringstream os;
    os << "{\"workload\": \"" << benchmark << "\", \"prefetcher\": \""
       << prefetcherName(kind) << "\", \"cores\": " << cores
       << ", \"seed\": " << seed << ", \"warmup\": " << j.budget.warmup
       << ", \"instr\": " << instr << ", \"checkpoint\": \""
       << (share ? "share" : "cold") << "\"}";
    j.line = os.str();
    return j;
}

/**
 * The jobs of one rate point: Poisson arrivals at @p rate for
 * @p duration seconds. The composition is a fixed cycle so that every
 * seed offers the same work: of each 20 jobs, 3 are exact duplicates
 * of a recent job, 5 reuse one of three shared warm prefixes with a
 * 40k/60k/80k measurement window, and 12 are cold design points that
 * walk the benchmark list in BO/next-line pairs (every third pair on 2
 * cores, every fifth pair replaced by an SBP and a stream single). The
 * seed draws the arrival times, the trace seeds and which recent job a
 * duplicate repeats.
 */
std::vector<MixJob>
makeMix(std::uint64_t seed, std::size_t point, double rate, double duration)
{
    using K = bop::L2PrefetcherKind;
    static const std::vector<std::string> benches = {
        "429.mcf", "462.libquantum", "470.lbm",   "433.milc",
        "403.gcc", "456.hmmer",      "453.povray", "444.namd"};
    static const std::vector<std::string> shared = {
        "470.lbm", "433.milc", "462.libquantum"};
    static const std::uint64_t windows[] = {40000, 60000, 80000};
    // Slot kinds of the 20-job cycle: D duplicate, S shared, F fresh.
    static const char cycle[] = "FFSFDFSFFSFDFSFFSFDS";
    Draw d(seed * 1000003u + point);

    std::vector<MixJob> jobs;
    std::uint64_t fresh = 0, sharedJobs = 0;
    double t = 0.0;
    for (;;) {
        t += -std::log(1.0 - d.unit()) / rate;
        if (t >= duration)
            break;
        const char kind = cycle[jobs.size() % 20];
        MixJob j;
        if (kind == 'D') {
            const std::size_t back = 1 + d.below(std::min<std::size_t>(
                                             jobs.size(), 20));
            j = jobs[jobs.size() - back];
        } else if (kind == 'S') {
            const std::uint64_t k = sharedJobs++;
            j = makeJob(shared[k % 3], K::BestOffset, 1, seed + 500 + k % 3,
                        windows[(k / 3) % 3], true);
        } else {
            const std::uint64_t pair = fresh / 2;
            const bool second = fresh++ % 2;
            const std::string &bench = benches[pair % benches.size()];
            const int cores = pair % 3 == 2 ? 2 : 1;
            K pf = second ? K::NextLine : K::BestOffset;
            if (pair % 5 == 4)
                pf = second ? K::Stream : K::Sandbox;
            j = makeJob(bench, pf, cores, seed * 100000u + pair,
                        defaultBudget.measure, false);
        }
        j.dueS = t;
        jobs.push_back(j);
    }
    return jobs;
}

/** Blocking line pipe: the generator pushes, serveLoop's reader reads. */
class LineFeed : public std::streambuf
{
  public:
    void push(const std::string &line)
    {
        std::lock_guard<std::mutex> lk(m);
        lines.push_back(line + "\n");
        cv.notify_one();
    }
    void close()
    {
        std::lock_guard<std::mutex> lk(m);
        closed = true;
        cv.notify_one();
    }

  protected:
    int_type underflow() override
    {
        std::unique_lock<std::mutex> lk(m);
        cv.wait(lk, [this] { return closed || !lines.empty(); });
        if (lines.empty())
            return traits_type::eof();
        current = std::move(lines.front());
        lines.pop_front();
        setg(current.data(), current.data(),
             current.data() + current.size());
        return traits_type::to_int_type(current[0]);
    }

  private:
    std::mutex m;
    std::condition_variable cv;
    std::deque<std::string> lines; ///< guarded by m
    bool closed = false;           ///< guarded by m
    std::string current;           ///< reader thread only
};

/**
 * Response sink: timestamps each complete line by its job_index. serve
 * writes under its own output mutex, one whole line per flush.
 */
class ResponseSink : public std::streambuf
{
  public:
    explicit ResponseSink(std::size_t jobs) : doneAt(jobs, -1.0) {}

    std::vector<double> doneAt; ///< seconds since the epoch; -1 = none
    std::vector<double> queueWaitMs;
    std::size_t errors = 0;
    std::size_t answers = 0;
    std::size_t strays = 0; ///< lines without a known job_index
    Clock::time_point epoch;

  protected:
    int_type overflow(int_type c) override
    {
        if (!traits_type::eq_int_type(c, traits_type::eof())) {
            const char ch = traits_type::to_char_type(c);
            xsputn(&ch, 1);
        }
        return traits_type::not_eof(c);
    }

    std::streamsize xsputn(const char *s, std::streamsize n) override
    {
        for (std::streamsize i = 0; i < n; ++i) {
            if (s[i] == '\n') {
                finish();
                pending.clear();
            } else {
                pending.push_back(s[i]);
            }
        }
        return n;
    }

  private:
    static bool number(const std::string &line, const char *key, double &v)
    {
        const auto at = line.find(key);
        if (at == std::string::npos)
            return false;
        v = std::strtod(line.c_str() + at + std::strlen(key), nullptr);
        return true;
    }

    void finish()
    {
        const double t = secondsSince(epoch);
        double idx = -1;
        if (!number(pending, "\"job_index\": ", idx) || idx < 0 ||
            idx >= static_cast<double>(doneAt.size()) ||
            doneAt[static_cast<std::size_t>(idx)] >= 0) {
            ++strays;
            return;
        }
        ++answers;
        doneAt[static_cast<std::size_t>(idx)] = t;
        if (pending.find("\"error\"") != std::string::npos)
            ++errors;
        double wait = 0;
        if (number(pending, "\"queue_wait_seconds\": ", wait))
            queueWaitMs.push_back(wait * 1e3);
    }

    std::string pending;
};

/** One rate point's measurements. */
struct PointResult
{
    std::size_t jobs = 0;
    std::vector<double> latencyMs; ///< in due order
    std::vector<double> latenessMs;
    double wall = 0.0; ///< first due to last answer
    RatePoint point;
    std::vector<JobResult> results;
    std::string digest;
    double simInstr = 0, simCycles = 0; ///< actual simulations only
    HarnessFigures harness;
    std::size_t failures = 0;
};

/** Open a fresh runner on @p dir, the way the serve tier would. */
std::unique_ptr<bop::ExperimentRunner>
freshRunner(const fs::path &dir)
{
    fs::remove_all(dir);
    fs::create_directories(dir / "ckpt");
    auto r = std::make_unique<bop::ExperimentRunner>(defaultBudget);
    r->setCheckpointSharing(false);
    r->setCheckpointDir((dir / "ckpt").string());
    r->setJobTimeout(0.0);
    r->setRetries(0);
    r->attachJournal((dir / "journal.ndjson").string());
    return r;
}

PointResult
runPoint(const Options &opt, std::size_t index, double rate, double duration,
         Tracer *tracer, Report &report)
{
    const std::vector<MixJob> mix = makeMix(opt.seed, index, rate, duration);
    const fs::path dir = fs::path(opt.workDir) / ("serve-" +
                                                  std::to_string(index));
    auto runner = freshRunner(dir);

    PointResult r;
    r.jobs = mix.size();
    LineFeed feed;
    ResponseSink sink(mix.size());
    std::istream in(&feed);
    std::ostream out(&sink);
    std::ostringstream diag;
    bop::ServeOptions so;
    so.jobs = serveWorkers;
    so.defaultBudget = defaultBudget;

    Span root(tracer, "bench.ratepoint");
    const auto start = Clock::now() + std::chrono::milliseconds(20);
    sink.epoch = start;
    std::vector<double> sentAt(mix.size(), 0.0);
    std::thread generator([&] {
        for (std::size_t i = 0; i < mix.size(); ++i) {
            std::this_thread::sleep_until(
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(mix[i].dueS)));
            sentAt[i] = secondsSince(start);
            feed.push(mix[i].line);
        }
        feed.close();
    });
    int bad = 0;
    try {
        Span serve(tracer, "harness.serve", root.id());
        bad = bop::serveLoop(in, out, *runner, so, diag);
    } catch (...) {
        feed.close();
        generator.join();
        throw;
    }
    generator.join();

    // Job spans run from due time to answer, on the tracer's clock.
    const double startOnTracer =
        tracer ? tracer->now() - secondsSince(start) : 0.0;
    double last = 0.0;
    for (std::size_t i = 0; i < mix.size(); ++i) {
        const double done = sink.doneAt[i];
        last = std::max(last, done);
        r.latencyMs.push_back((done - mix[i].dueS) * 1e3);
        r.latenessMs.push_back((sentAt[i] - mix[i].dueS) * 1e3);
        if (tracer && done >= 0) {
            SpanRecord s;
            s.name = "harness.job";
            s.id = tracer->nextId();
            s.parent = root.id();
            s.job = i + 1;
            s.start = startOnTracer + mix[i].dueS;
            s.end = startOnTracer + done;
            tracer->record(s);
        }
    }
    r.wall = last - (mix.empty() ? 0.0 : mix.front().dueS);
    r.failures = static_cast<std::size_t>(bad) + sink.errors;
    report.check(bad == 0 && sink.errors == 0,
                 "serve answered with errors at " + std::to_string(rate) +
                     " jobs/s: " + diag.str());
    report.check(sink.answers == mix.size() && sink.strays == 0,
                 "serve did not answer every job exactly once");

    const std::size_t simulations = runner->records().size();
    for (const bop::RunRecord &rec : runner->records()) {
        r.simInstr += static_cast<double>(rec.stats.instructions);
        r.simCycles += static_cast<double>(rec.stats.cycles);
    }
    // Every job is memoised now: these lookups simulate nothing, and
    // give each job's full RunStats in submission order.
    StatsDigest digest;
    std::size_t shared = 0;
    for (const MixJob &j : mix) {
        const bop::RunRecord &rec =
            runner->run(j.benchmark, j.cfg, j.budget, j.share);
        digest.add(rec.stats);
        r.results.push_back({j.benchmark, j.cfg, j.budget, rec.stats});
        shared += j.share ? 1 : 0;
    }
    report.check(runner->records().size() == simulations,
                 "a serve answer was not memoised under its design point");
    r.digest = digest.hex();

    r.harness.queueWaitMs =
        sink.queueWaitMs.empty()
            ? 0.0
            : bop::mean(sink.queueWaitMs);
    r.harness.memoHitFrac =
        mix.empty() ? 0.0
                    : 1.0 - static_cast<double>(simulations) /
                                static_cast<double>(mix.size());
    r.harness.prefixReuseFrac =
        shared ? 1.0 - static_cast<double>(runner->prefixSimulations()) /
                           static_cast<double>(shared)
               : 0.0;
    unsigned long a = 0, rj = 0, f = 0, t = 0;
    const std::string d = diag.str();
    const auto at = d.rfind("serve: ");
    if (at != std::string::npos)
        std::sscanf(d.c_str() + at,
                    "serve: %lu accepted, %lu rejected, %lu failed, %lu "
                    "retried",
                    &a, &rj, &f, &t);
    r.harness.retried = static_cast<double>(t);

    r.point.offered = rate;
    const Tail tail = tailPercentile(r.latencyMs);
    r.point.tailMs = tail.value;
    r.point.failed = r.failures;
    r.point.growth = backlogGrowth(r.latencyMs, latencyLimitMs / 4);
    const Tail late = tailPercentile(r.latenessMs);
    r.point.valid = late.value <= latenessShare * latencyLimitMs;

    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "rate %.0f/s: %zu jobs, p50 %.1f ms, p%.2f %.1f ms, "
                  "generator lateness p50 %.2f ms p%.2f %.2f ms, backlog "
                  "growth %.2f (%s), %s, %zu simulations, digest %s",
                  rate, r.jobs, median(r.latencyMs), tail.percentile,
                  tail.value, median(r.latenessMs), late.percentile,
                  late.value, r.point.growth,
                  r.point.growth > 1.0 ? "GROWING" : "stable",
                  r.point.valid ? "valid" : "INVALID (generator behind)",
                  simulations, r.digest.c_str());
    report.note(buf);
    fs::remove_all(dir);
    return r;
}

} // namespace

void
runServeOpen(const Options &opt, Report &report)
{
    // Sending time per rate, in units: the reference rate gets
    // referenceWeight (its latencies are the reported ones), every other
    // rate one. The traced run sends the reference rate twice.
    const double units =
        opt.trace ? 2.0 * referenceWeight
                  : static_cast<double>(offeredRates.size()) - 1.0 +
                        referenceWeight;
    const double unit = opt.seconds * sendShare / units;
    const auto duration = [&](std::size_t i) {
        return i == referenceRate ? referenceWeight * unit : unit;
    };
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "serve_open: open loop, Poisson arrivals, serveLoop with "
                  "%d workers, %.2f s per rate (reference %.0f/s: %.2f s), "
                  "tail limit %.0f ms",
                  serveWorkers, unit, offeredRates[referenceRate],
                  duration(referenceRate), latencyLimitMs);
    report.note(buf);

    // Gate on a shared-prefix design point of the mix.
    {
        const MixJob probe = makeJob("462.libquantum",
                                     bop::L2PrefetcherKind::BestOffset, 1,
                                     opt.seed, defaultBudget.measure, true);
        checkShareIdentity(probe.benchmark, probe.cfg, probe.budget,
                           opt.workDir, report);
    }

    if (opt.trace) {
        const double rate = offeredRates[referenceRate];
        const double d = duration(referenceRate);
        const PointResult untraced =
            runPoint(opt, referenceRate, rate, d, nullptr, report);
        Tracer tracer;
        const PointResult traced =
            runPoint(opt, referenceRate, rate, d, &tracer, report);
        report.attempted += untraced.jobs + traced.jobs;
        report.failed += untraced.failures + traced.failures;
        report.check(traced.digest == untraced.digest,
                     "traced stats differ from untraced stats");
        report.note("sim_stats_digest " + untraced.digest);

        // sim.*: the mix's first cold design points, driven directly.
        SimTimes times;
        std::mutex m;
        std::size_t driven = 0;
        const auto mix = makeMix(opt.seed, referenceRate, rate, d);
        for (const MixJob &j : mix) {
            if (j.share || driven == 8)
                continue;
            Span s(&tracer, "bench.sim");
            tracedSimulation({j.benchmark, j.cfg}, j.budget, tracer, s.id(),
                             0, times, m);
            ++driven;
        }
        reportSimTimes(times, report);
        report.set("sim.serial_s", 0.0);        // chip16_threads only
        report.set("sim.parallel_speedup", 0.0); // chip16_threads only

        LayerInputs in;
        in.benchmarks = {"429.mcf", "462.libquantum", "470.lbm", "433.milc",
                         "403.gcc", "456.hmmer", "453.povray", "444.namd"};
        in.seed = opt.seed;
        in.ckptBenchmark = mix.front().benchmark;
        in.ckptCfg = mix.front().cfg;
        in.ckptBudget = mix.front().budget;
        in.workDir = opt.workDir;
        measureLayers(in, tracer, report);
        reportSimulatedLayers(untraced.results, report);
        reportHarness(untraced.harness, report);
        finishTrace(tracer, traced.wall, untraced.wall, opt.spansOut, report);
        return;
    }

    const fs::path setupDir = fs::path(opt.workDir) / "serve-setup";
    SetupTimer setup([&] {
        const auto mix =
            makeMix(opt.seed, 0, offeredRates.front(), duration(0));
        auto runner = freshRunner(setupDir);
        bop::System sys(mix.front().cfg,
                        bop::makeTraces(mix.front().benchmark,
                                        mix.front().cfg));
    });
    setup.sample();
    std::vector<PointResult> points;
    for (std::size_t i = 0; i < offeredRates.size(); ++i) {
        points.push_back(
            runPoint(opt, i, offeredRates[i], duration(i), nullptr, report));
        report.attempted += points.back().jobs;
        report.failed += points.back().failures;
    }
    setup.sample();
    fs::remove_all(setupDir);

    EndToEnd e;
    e.setupS = setup.seconds();

    std::vector<RatePoint> rp;
    std::vector<JobResult> all;
    StatsDigest digest;
    double wall = 0, jobs = 0, instr = 0, cycles = 0;
    for (const PointResult &p : points) {
        rp.push_back(p.point);
        all.insert(all.end(), p.results.begin(), p.results.end());
        for (const JobResult &j : p.results)
            digest.add(j.stats);
        wall += p.wall;
        jobs += static_cast<double>(p.jobs);
        instr += p.simInstr;
        cycles += p.simCycles;
    }
    report.note("sim_stats_digest " + digest.hex() + " (" +
                std::to_string(all.size()) + " jobs, submission order)");

    const PointResult &ref = points[referenceRate];
    report.check(ref.point.valid,
                 "generator fell behind at the reference rate");
    const MaxRate mr = maxRate(rp, latencyLimitMs);
    std::snprintf(buf, sizeof buf,
                  "max rate meeting the %.0f ms tail limit: %.1f jobs/s%s",
                  latencyLimitMs, mr.rate,
                  mr.interpolated ? " (interpolated)" : "");
    report.note(buf);

    e.wallS = wall;
    e.jobsPerS = jobs / wall;
    e.minstrPerS = instr / wall / 1e6;
    e.mcyclesPerS = cycles / wall / 1e6;
    e.latenciesMs = ref.latencyMs;
    e.maxRate = mr.rate;
    e.ipcGm = ipcGeomean(all);
    e.boSpeedupGm = boSpeedupGeomean(all);
    e.dramPerKi = meanDramPerKi(all);
    reportEndToEnd(e, report);
}

} // namespace bopbench
