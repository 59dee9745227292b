#include "harness/job_fields.hh"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "harness/bench_diff.hh"
#include "trace/workloads.hh"

namespace bop
{

namespace
{

using Int = std::int64_t;
constexpr Int intMin = std::numeric_limits<int>::min();
constexpr Int intMax = std::numeric_limits<int>::max();
constexpr Int countMax = std::numeric_limits<Int>::max();

/** One field of the job vocabulary (see the table in job_fields.hh). */
struct JobField
{
    const char *name;      ///< job-line key
    const char *flag;      ///< bopsim option; nullptr: job lines only
    const char *flagValue; ///< value an argument-less flag stands for
    /** String field: apply @p value, or return why it is refused. */
    std::string (*setText)(JobSpec &job, const std::string &value);
    /** Numeric field: accepted range and setter. */
    Int lo = 0, hi = 0;
    void (*setInt)(JobSpec &job, Int value) = nullptr;
};

bool
parsePrefetcher(const std::string &name, L2PrefetcherKind &kind)
{
    using K = L2PrefetcherKind;
    if (name == "none")
        kind = K::None;
    else if (name == "next-line" || name == "nl")
        kind = K::NextLine;
    else if (name == "fixed")
        kind = K::FixedOffset;
    else if (name == "bo")
        kind = K::BestOffset;
    else if (name == "bo-dpc2")
        kind = K::BestOffsetDpc2;
    else if (name == "sbp" || name == "sandbox")
        kind = K::Sandbox;
    else if (name == "stream")
        kind = K::Stream;
    else if (name == "streambuf")
        kind = K::StreamBuffer;
    else if (name == "fdp")
        kind = K::Fdp;
    else if (name == "acdc" || name == "ghb")
        kind = K::Acdc;
    else
        return false;
    return true;
}

const JobField jobFields[] = {
    {"workload", "--workload", nullptr,
     [](JobSpec &j, const std::string &v) {
         j.benchmark = v;
         return std::string();
     }},
    {"prefetcher", "--prefetcher", nullptr,
     [](JobSpec &j, const std::string &v) {
         return parsePrefetcher(v, j.cfg.l2Prefetcher)
                    ? std::string()
                    : "unknown prefetcher '" + v + "'";
     }},
    {"page", "--page", nullptr,
     [](JobSpec &j, const std::string &v) -> std::string {
         if (v == "4k" || v == "4K")
             j.cfg.pageSize = PageSize::FourKB;
         else if (v == "4m" || v == "4M")
             j.cfg.pageSize = PageSize::FourMB;
         else
             return "page must be \"4k\" or \"4m\"";
         return {};
     }},
    {"l3", "--l3", nullptr,
     [](JobSpec &j, const std::string &v) -> std::string {
         if (v == "5p")
             j.cfg.l3Policy = L3PolicyKind::P5;
         else if (v == "lru")
             j.cfg.l3Policy = L3PolicyKind::Lru;
         else if (v == "drrip")
             j.cfg.l3Policy = L3PolicyKind::Drrip;
         else
             return "l3 must be \"5p\", \"lru\" or \"drrip\"";
         return {};
     }},
    // "share": join the runner's warmup-prefix cache (jobs with the
    // same workload/config/warmup simulate the warmup once); "cold":
    // force a full cold run even when the runner default shares.
    {"checkpoint", nullptr, nullptr,
     [](JobSpec &j, const std::string &v) -> std::string {
         if (v != "share" && v != "cold")
             return "checkpoint must be \"share\" or \"cold\"";
         j.share = v == "share";
         return {};
     }},
    {"offset", "--offset", nullptr, nullptr, intMin, intMax,
     [](JobSpec &j, Int v) { j.cfg.fixedOffset = static_cast<int>(v); }},
    {"cores", "--cores", nullptr, nullptr, intMin, intMax,
     [](JobSpec &j, Int v) { j.cfg.activeCores = static_cast<int>(v); }},
    {"num_cores", "--num-cores", nullptr, nullptr, intMin, intMax,
     [](JobSpec &j, Int v) { j.cfg.numCores = static_cast<int>(v); }},
    {"channels", "--channels", nullptr, nullptr, intMin, intMax,
     [](JobSpec &j, Int v) { j.cfg.numChannels = static_cast<int>(v); }},
    {"dl1_stride", "--no-dl1-stride", "0", nullptr, 0, 1,
     [](JobSpec &j, Int v) { j.cfg.dl1StridePrefetcher = v != 0; }},
    {"seed", "--seed", nullptr, nullptr, 0, countMax,
     [](JobSpec &j, Int v) { j.cfg.seed = static_cast<std::uint64_t>(v); }},
    {"threads", "--threads", nullptr, nullptr, intMin, intMax,
     [](JobSpec &j, Int v) { j.cfg.numThreads = static_cast<int>(v); }},
    {"bo_badscore", "--bo-badscore", nullptr, nullptr, intMin, intMax,
     [](JobSpec &j, Int v) { j.cfg.bo.badScore = static_cast<int>(v); }},
    {"bo_rr", "--bo-rr", nullptr, nullptr, 0, countMax,
     [](JobSpec &j, Int v) {
         j.cfg.bo.rrEntries = static_cast<std::size_t>(v);
     }},
    {"bo_degree", "--bo-degree", nullptr, nullptr, intMin, intMax,
     [](JobSpec &j, Int v) { j.cfg.bo.degree = static_cast<int>(v); }},
    {"bo_adaptive", "--bo-adaptive", "1", nullptr, 0, 1,
     [](JobSpec &j, Int v) { j.cfg.bo.adaptiveBadScore = v != 0; }},
    {"bo_coverage", "--bo-coverage", nullptr, nullptr, intMin, intMax,
     [](JobSpec &j, Int v) {
         j.cfg.bo.coverageWeight = static_cast<int>(v);
     }},
    {"warmup", "--warmup", nullptr, nullptr, 0, countMax,
     [](JobSpec &j, Int v) {
         j.budget.warmup = static_cast<std::uint64_t>(v);
     }},
    {"instr", "--instr", nullptr, nullptr, 0, countMax,
     [](JobSpec &j, Int v) {
         j.budget.measure = static_cast<std::uint64_t>(v);
     }},
};

/** The field whose @p column equals @p key, or nullptr. */
const JobField *
findField(const char *JobField::*column, const std::string &key)
{
    for (const JobField &field : jobFields) {
        if (field.*column && key == field.*column)
            return &field;
    }
    return nullptr;
}

std::string
outOfRange(const JobField &field, const std::string &shown)
{
    return std::string(field.name) + " must be an integer in [" +
           std::to_string(field.lo) + ", " + std::to_string(field.hi) +
           "], got " + shown;
}

/** Apply a job-line number; "" or why it is refused. */
std::string
setNumber(const JobField &field, JobSpec &job, double value)
{
    // Bound the double before converting: a double-to-integer cast
    // out of range is undefined behaviour. NaN fails the first test.
    if (!(value >= -0x1p63 && value < 0x1p63) || value != std::trunc(value) ||
        static_cast<Int>(value) < field.lo ||
        static_cast<Int>(value) > field.hi) {
        std::ostringstream shown;
        shown << value;
        return outOfRange(field, shown.str());
    }
    field.setInt(job, static_cast<Int>(value));
    return {};
}

/** Parse @p text as a whole decimal integer in [lo, hi]. */
bool
parseWhole(const std::string &text, Int lo, Int hi, Int &value)
{
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    return ec == std::errc() && ptr == end && value >= lo && value <= hi;
}

/** Apply a flag argument; "" or why it is refused. */
std::string
setNumber(const JobField &field, JobSpec &job, const std::string &text)
{
    Int value = 0;
    if (!parseWhole(text, field.lo, field.hi, value))
        return outOfRange(field, "'" + text + "'");
    field.setInt(job, value);
    return {};
}

bool
knownBenchmark(const std::string &name)
{
    for (const std::string &bench : benchmarkNames()) {
        if (bench == name)
            return true;
    }
    return false;
}

} // namespace

JobSpec
defaultJob(const Budget &budget, bool share)
{
    JobSpec job;
    job.cfg.l2Prefetcher = L2PrefetcherKind::BestOffset;
    job.budget = budget;
    job.share = share;
    return job;
}

bool
parseJobLine(const std::string &line, JobSpec &job, std::string &error)
{
    ParsedRunRecord fields;
    try {
        std::istringstream is(line);
        fields = parseFlatRecord(is);
    } catch (const std::exception &e) {
        error = e.what();
        return false;
    }

    for (const auto &[key, value] : fields.strings) {
        const JobField *field = findField(&JobField::name, key);
        error = field && field->setText
                    ? field->setText(job, value)
                    : "unknown string field \"" + key + "\"";
        if (!error.empty())
            return false;
    }
    for (const auto &[key, value] : fields.numbers) {
        const JobField *field = findField(&JobField::name, key);
        error = field && field->setInt
                    ? setNumber(*field, job, value)
                    : "unknown numeric field \"" + key + "\"";
        if (!error.empty())
            return false;
    }

    if (job.benchmark.empty()) {
        error = "missing required field \"workload\"";
        return false;
    }
    if (!knownBenchmark(job.benchmark)) {
        error = "unknown workload '" + job.benchmark + "'";
        return false;
    }
    return true;
}

bool
parseJobFlag(int argc, char **argv, int &i, JobSpec &job)
{
    const JobField *field = findField(&JobField::flag, argv[i]);
    if (!field)
        return false;
    std::string value;
    if (field->flagValue)
        value = field->flagValue;
    else if (i + 1 < argc)
        value = argv[++i];
    else
        throw std::invalid_argument(std::string(field->flag) +
                                    " needs an argument");
    const std::string error = field->setText
                                  ? field->setText(job, value)
                                  : setNumber(*field, job, value);
    if (!error.empty())
        throw std::invalid_argument(std::string(field->flag) + ": " +
                                    error);
    return true;
}

std::int64_t
parseIntOption(const std::string &name, const std::string &text,
               std::int64_t lo, std::int64_t hi)
{
    Int value = 0;
    if (!parseWhole(text, lo, hi, value))
        throw std::invalid_argument(
            name + " must be an integer in [" + std::to_string(lo) + ", " +
            std::to_string(hi) + "], got '" + text + "'");
    return value;
}

} // namespace bop
