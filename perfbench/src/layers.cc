/**
 * @file
 * Per-layer measurements of the traced run: timed calls into each
 * model layer through its public interface, driven by the workload's
 * own generated streams, plus the simulated per-layer ratios and the
 * span-derived self times.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>

#include "bench.hh"
#include "cache/cache.hh"
#include "cache/policy_5p.hh"
#include "core/best_offset.hh"
#include "dram/mem_controller.hh"
#include "harness/journal.hh"
#include "sim/mem_hierarchy.hh"
#include "stats.hh"
#include "trace/workloads.hh"

namespace bopbench
{

namespace
{

constexpr std::size_t genInstrsPerBenchmark = 200000;
constexpr std::size_t linesPerBenchmark = 40000;
constexpr int ckptRepeats = 3;
constexpr int journalAppends = 16;

/** Cache-line stream of a benchmark's loads and stores. */
std::vector<bop::LineAddr>
lineStream(const std::string &benchmark, std::uint64_t seed)
{
    auto src = bop::makeWorkload(benchmark, seed);
    std::vector<bop::LineAddr> lines;
    lines.reserve(linesPerBenchmark);
    while (lines.size() < linesPerBenchmark) {
        const bop::TraceInstr in = src->next();
        if (in.kind == bop::InstrKind::Load ||
            in.kind == bop::InstrKind::Store)
            lines.push_back(in.vaddr >> 6);
    }
    return lines;
}

/**
 * Drive one L2 prefetcher model over @p lines as an all-miss access
 * stream, filling each demanded and prefetched line (BO's RR table
 * learns from fills). Returns accesses driven.
 */
std::size_t
drivePrefetcher(bop::L2Prefetcher &pf, const std::vector<bop::LineAddr> &lines)
{
    std::vector<bop::LineAddr> out;
    bop::Cycle cycle = 0;
    for (const bop::LineAddr line : lines) {
        out.clear();
        cycle += 20;
        pf.onAccess({line, true, false, cycle}, out);
        pf.onFill({line, false, cycle});
        for (const bop::LineAddr p : out)
            pf.onFill({p, true, cycle});
    }
    return lines.size();
}

double
nsPer(double seconds, std::size_t count)
{
    return count ? seconds * 1e9 / static_cast<double>(count) : 0.0;
}

} // namespace

void
measureLayers(const LayerInputs &in, Tracer &tracer, Report &report)
{
    Span root(&tracer, "bench.layers");

    // trace: the synthetic generators behind every simulated core.
    {
        std::size_t n = 0;
        const auto t0 = Clock::now();
        for (const std::string &b : in.benchmarks) {
            Span s(&tracer, "trace.gen", root.id());
            auto src = bop::makeWorkload(b, in.seed);
            bop::Addr sink = 0;
            for (std::size_t i = 0; i < genInstrsPerBenchmark; ++i)
                sink ^= src->next().vaddr;
            asm volatile("" : : "r"(sink) : "memory"); // keep the loop
            n += genInstrsPerBenchmark;
        }
        report.set("trace.gen_ns_per_instr", nsPer(secondsSince(t0), n));
    }

    std::vector<std::vector<bop::LineAddr>> streams;
    for (const std::string &b : in.benchmarks)
        streams.push_back(lineStream(b, in.seed));

    // core (BO) and the zoo prefetchers, each over the same streams.
    struct Kind
    {
        bop::L2PrefetcherKind kind;
        const char *metric;
        const char *span;
    };
    const Kind kinds[] = {
        {bop::L2PrefetcherKind::BestOffset, "core.bo_ns_per_access",
         "core.bo"},
        {bop::L2PrefetcherKind::NextLine, "prefetch.nl.ns_per_access",
         "prefetch.nl"},
        {bop::L2PrefetcherKind::Sandbox, "prefetch.sbp.ns_per_access",
         "prefetch.sbp"},
        {bop::L2PrefetcherKind::Stream, "prefetch.stream.ns_per_access",
         "prefetch.stream"},
        {bop::L2PrefetcherKind::Acdc, "prefetch.acdc.ns_per_access",
         "prefetch.acdc"},
    };
    for (const Kind &k : kinds) {
        bop::SystemConfig cfg;
        cfg.l2Prefetcher = k.kind;
        std::size_t n = 0;
        double busy = 0.0;
        for (const auto &lines : streams) {
            auto pf = bop::makeL2Prefetcher(cfg);
            Span s(&tracer, k.span, root.id());
            const auto t0 = Clock::now();
            n += drivePrefetcher(*pf, lines);
            busy += secondsSince(t0);
        }
        report.set(k.metric, nsPer(busy, n));
    }

    // cache: the shared L3 tag array with the paper's 5P policy.
    {
        const bop::CacheParams geo;
        std::size_t n = 0;
        double busy = 0.0;
        for (const auto &lines : streams) {
            bop::SetAssocCache l3("l3", geo.l3Bytes, geo.l3Ways,
                                  std::make_unique<bop::Policy5P>());
            Span s(&tracer, "cache.l3", root.id());
            const auto t0 = Clock::now();
            for (const bop::LineAddr line : lines) {
                if (!l3.access(line, false).hit)
                    l3.insert(line, bop::CacheFill{});
            }
            busy += secondsSince(t0);
            n += lines.size();
        }
        report.set("cache.l3_ns_per_access", nsPer(busy, n));
    }

    // dram: one channel controller, enqueue/tick/pop until all served.
    {
        std::size_t n = 0;
        double busy = 0.0;
        for (const auto &lines : streams) {
            bop::MemoryController mc(bop::DramTiming{}, 0, 1);
            bop::ReqMeta meta;
            Span s(&tracer, "dram.controller", root.id());
            const auto t0 = Clock::now();
            std::size_t next = 0, done = 0;
            bop::Cycle now = 0;
            while (done < lines.size()) {
                while (next < lines.size() && !mc.readQueueFull(0))
                    mc.enqueueRead(lines[next++], meta, now);
                mc.tick(now);
                done += mc.popCompleted(now).size();
                const bop::Cycle at = mc.nextEventAt(now);
                if (at == bop::neverCycle && next == lines.size() &&
                    done < lines.size())
                    throw std::runtime_error("dram probe wedged");
                now = std::max(now + 1, at == bop::neverCycle ? now + 1 : at);
            }
            busy += secondsSince(t0);
            n += lines.size();
        }
        report.set("dram.ns_per_request", nsPer(busy, n));
    }

    // harness: checkpoint save/restore of warm state, journal appends.
    {
        const bop::SystemConfig &cfg = in.ckptCfg;
        bop::System warm(cfg, bop::makeTraces(in.ckptBenchmark, cfg));
        {
            Span s(&tracer, "sim.warmup", root.id());
            warm.warmup(in.ckptBudget.warmup);
        }
        std::vector<double> saveMs, restoreMs;
        std::vector<std::uint8_t> bytes;
        for (int i = 0; i < ckptRepeats; ++i) {
            Span s(&tracer, "harness.ckpt_save", root.id());
            const auto t0 = Clock::now();
            bytes = warm.saveCheckpointBytes();
            saveMs.push_back(secondsSince(t0) * 1e3);
        }
        bop::System cold(cfg, bop::makeTraces(in.ckptBenchmark, cfg));
        for (int i = 0; i < ckptRepeats; ++i) {
            Span s(&tracer, "harness.ckpt_restore", root.id());
            const auto t0 = Clock::now();
            cold.restoreCheckpointBytes(bytes);
            restoreMs.push_back(secondsSince(t0) * 1e3);
        }
        report.set("harness.ckpt_save_ms", median(saveMs));
        report.set("harness.ckpt_restore_ms", median(restoreMs));
        report.set("harness.ckpt_bytes", static_cast<double>(bytes.size()));

        const std::string path =
            (std::filesystem::path(in.workDir) / "layer-journal.ndjson")
                .string();
        std::filesystem::remove(path);
        std::vector<double> appendMs;
        {
            bop::ResultJournal journal;
            journal.open(path, in.ckptBudget.warmup, in.ckptBudget.measure);
            bop::RunRecord rec;
            rec.workload = in.ckptBenchmark;
            rec.config = cfg.describe();
            for (int i = 0; i < journalAppends; ++i) {
                Span s(&tracer, "harness.journal_append", root.id());
                const auto t0 = Clock::now();
                journal.append("layer-probe-" + std::to_string(i), rec);
                appendMs.push_back(secondsSince(t0) * 1e3);
            }
        }
        std::filesystem::remove(path);
        report.set("harness.journal_append_ms", median(appendMs));
    }
}

void
reportSimulatedLayers(const std::vector<JobResult> &jobs, Report &report)
{
    double instr = 0, dl1Acc = 0, dl1Miss = 0, l2Miss = 0, l3Acc = 0,
           l3Miss = 0, stalls = 0, reads = 0, writes = 0, rowHits = 0,
           rowMisses = 0;
    double pfInstr = 0, issued = 0, dropped = 0, useful = 0, timely = 0,
           useless = 0, fullMisses = 0;
    double boPhases = 0, boOff = 0, boJobs = 0;
    for (const JobResult &j : jobs) {
        const bop::RunStats &s = j.stats;
        const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
        instr += d(s.instructions);
        dl1Acc += d(s.dl1Accesses);
        dl1Miss += d(s.dl1Misses);
        l2Miss += d(s.l2Misses);
        l3Acc += d(s.l3Accesses);
        l3Miss += d(s.l3Misses);
        stalls += d(s.l3ChannelStalls);
        reads += d(s.dramReads);
        writes += d(s.dramWrites);
        rowHits += d(s.dramRowHits);
        rowMisses += d(s.dramRowMisses);
        if (j.cfg.l2Prefetcher != bop::L2PrefetcherKind::None) {
            pfInstr += d(s.instructions);
            issued += d(s.l2PrefIssued);
            dropped += d(s.l2PrefDropped);
            useful += d(s.l2PrefUseful());
            timely += d(s.l2PrefetchedHits);
            useless += d(s.l2PrefUselessEvicted);
            fullMisses += d(s.l2Misses - s.l2LatePromotions);
        }
        if (j.cfg.l2Prefetcher == bop::L2PrefetcherKind::BestOffset) {
            boPhases += d(s.boLearningPhases);
            boOff += d(s.boPrefetchOffPhases);
            ++boJobs;
        }
    }
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    report.set("core.bo_learning_phases", ratio(boPhases, boJobs));
    report.set("core.bo_off_phases", ratio(boOff, boJobs));
    report.set("prefetch.issued_per_ki", 1000.0 * ratio(issued, pfInstr));
    report.set("prefetch.accuracy", ratio(useful, useful + useless));
    report.set("prefetch.coverage", ratio(useful, useful + fullMisses));
    report.set("prefetch.timeliness", ratio(timely, useful));
    report.set("prefetch.dropped_frac", ratio(dropped, issued + dropped));
    report.set("cache.dl1_miss_ratio", ratio(dl1Miss, dl1Acc));
    report.set("cache.l2_mpki", 1000.0 * ratio(l2Miss, instr));
    report.set("cache.l3_miss_ratio", ratio(l3Miss, l3Acc));
    report.set("cache.l3_channel_stalls",
               ratio(stalls, static_cast<double>(jobs.size())));
    report.set("dram.reads_per_ki", 1000.0 * ratio(reads, instr));
    report.set("dram.writes_per_ki", 1000.0 * ratio(writes, instr));
    report.set("dram.row_hit_ratio", ratio(rowHits, rowHits + rowMisses));
}

void
reportHarness(const HarnessFigures &h, Report &report)
{
    report.set("harness.queue_wait_ms", h.queueWaitMs);
    report.set("harness.memo_hit_frac", h.memoHitFrac);
    report.set("harness.prefix_reuse_frac", h.prefixReuseFrac);
    report.set("harness.retried", h.retried);
}

void
finishTrace(const Tracer &tracer, double traced_wall_s,
            double untraced_wall_s, const std::string &spans_out,
            Report &report)
{
    const auto layers = selfTimes(tracer.spans());
    for (const char *layer : {"bench", "harness", "sim", "trace", "core",
                              "prefetch", "cache", "dram"}) {
        auto it = layers.find(layer);
        const LayerTime lt = it == layers.end() ? LayerTime{} : it->second;
        report.set(std::string(layer) + ".self_s", lt.selfSeconds);
        report.set(std::string(layer) + ".spans",
                   static_cast<double>(lt.spans));
    }
    report.set("tracing.traced_wall_s", traced_wall_s);
    report.set("tracing.untraced_wall_s", untraced_wall_s);
    report.set("tracing.overhead_s", traced_wall_s - untraced_wall_s);
    if (!spans_out.empty()) {
        std::ofstream os(spans_out);
        tracer.write(os);
        report.note("spans written to " + spans_out);
    }
}

} // namespace bopbench
