/**
 * The figure benches' shared option parser (bench/bench_common.hh) and
 * the BOP_* environment table behind it (harness/job_fields.hh): every
 * number, from the command line or the environment, is range-checked,
 * and anything else exits 2 naming the option or variable instead of
 * silently running with a default.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "../bench/bench_common.hh"

namespace bop
{
namespace
{

/** parseBenchOptions over @p args (argv[0] is supplied). */
BenchOptions
parse(std::vector<std::string> args)
{
    args.insert(args.begin(), "bench");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    return parseBenchOptions(static_cast<int>(argv.size()), argv.data());
}

/** Every variable in the environment table. */
const char *const envNames[] = {
    "BOP_WARMUP",     "BOP_INSTR",    "BOP_JOBS",
    "BOP_RETRIES",    "BOP_JOB_TIMEOUT", "BOP_CKPT_SHARE",
    "BOP_CKPT_DIR",   "BOP_VERBOSE",  "BOP_SWEEP_STEP"};

class BenchOptionsTest : public ::testing::Test
{
  protected:
    void SetUp() override { clear(); }
    void TearDown() override { clear(); }

    static void
    clear()
    {
        for (const char *name : envNames)
            unsetenv(name);
    }
};

TEST_F(BenchOptionsTest, EnvDefaults)
{
    const BenchOptions opts = parse({});
    EXPECT_EQ(opts.budget.warmup, 100000u);
    EXPECT_EQ(opts.budget.measure, 400000u);
    EXPECT_EQ(opts.jobs, 1);
    EXPECT_EQ(opts.retries, 0);
    EXPECT_FALSE(opts.retriesGiven);
    EXPECT_EQ(opts.jobTimeout, 0.0);
    EXPECT_FALSE(opts.ckptShare);
    EXPECT_EQ(opts.ckptDir, "");
    EXPECT_FALSE(opts.verbose);
    EXPECT_EQ(opts.sweepStep, 2);
}

TEST_F(BenchOptionsTest, EnvValuesReachTheRunner)
{
    setenv("BOP_WARMUP", "1000", 1);
    setenv("BOP_INSTR", "4000", 1);
    setenv("BOP_RETRIES", "3", 1);
    setenv("BOP_JOB_TIMEOUT", "2.5", 1);
    setenv("BOP_CKPT_SHARE", "1", 1);
    setenv("BOP_CKPT_DIR", "ckpt-dir", 1);
    setenv("BOP_VERBOSE", "1", 1);
    setenv("BOP_SWEEP_STEP", "1", 1);
    const BenchOptions opts = parse({});
    EXPECT_EQ(opts.sweepStep, 1);
    EXPECT_TRUE(opts.verbose);

    // The library itself reads nothing: a default-built runner keeps
    // every setting off whatever the environment says.
    const ExperimentRunner bare;
    EXPECT_EQ(bare.budgets().warmup, 100000u);
    EXPECT_FALSE(bare.checkpointSharing());
    EXPECT_EQ(bare.checkpointDir(), "");
    EXPECT_EQ(bare.jobTimeoutSeconds(), 0.0);
    EXPECT_EQ(bare.retries(), 0);

    ExperimentRunner runner(opts.budget);
    configureBenchRunner(runner, opts);
    EXPECT_EQ(runner.budgets().warmup, 1000u);
    EXPECT_EQ(runner.budgets().measure, 4000u);
    EXPECT_TRUE(runner.checkpointSharing());
    EXPECT_EQ(runner.checkpointDir(), "ckpt-dir");
    EXPECT_EQ(runner.jobTimeoutSeconds(), 2.5);
    EXPECT_EQ(runner.retries(), 3);
    EXPECT_EQ(parse({"--retries", "1"}).retries, 1) << "the flag wins";
}

TEST_F(BenchOptionsTest, BopsimSkipsTheBenchOnlyVariables)
{
    // bopsim takes its budgets from --warmup/--instr and has no
    // offset sweep, so it neither reads nor refuses these.
    setenv("BOP_WARMUP", "12x", 1);
    setenv("BOP_INSTR", "-1", 1);
    setenv("BOP_SWEEP_STEP", "0", 1);
    setenv("BOP_JOBS", "2", 1);
    const EnvSettings settings = readEnvSettings(FrontEnd::Bopsim);
    EXPECT_EQ(settings.budget.warmup, 100000u);
    EXPECT_EQ(settings.sweepStep, 2);
    EXPECT_EQ(settings.jobs, 2);
    EXPECT_THROW(readEnvSettings(FrontEnd::Bench), std::invalid_argument);
}

TEST_F(BenchOptionsTest, MalformedEnvExitsTwoNamingTheVariable)
{
    const std::pair<const char *, const char *> refused[] = {
        {"BOP_WARMUP", "-1"},        {"BOP_INSTR", "12x"},
        {"BOP_INSTR", "1e6"},        {"BOP_JOBS", "0"},
        {"BOP_RETRIES", "-2"},       {"BOP_JOB_TIMEOUT", "abc"},
        {"BOP_JOB_TIMEOUT", "-1"},   {"BOP_JOB_TIMEOUT", "nan"},
        {"BOP_JOB_TIMEOUT", "2s"},   {"BOP_CKPT_SHARE", "yes"},
        {"BOP_VERBOSE", "2"},        {"BOP_SWEEP_STEP", "0"},
        {"BOP_SWEEP_STEP", "257"},
    };
    for (const auto &[name, value] : refused) {
        clear();
        setenv(name, value, 1);
        EXPECT_EXIT(parse({}), ::testing::ExitedWithCode(2),
                    std::string(name) + " must be ")
            << name << "=" << value;
    }
}

TEST_F(BenchOptionsTest, WellFormedValuesParse)
{
    const BenchOptions opts = parse({"--jobs", "3", "--retries", "0"});
    EXPECT_EQ(opts.jobs, 3);
    EXPECT_EQ(opts.retries, 0);
    EXPECT_EQ(parse({}).jobs, 1);
    EXPECT_EQ(parse({}).retries, 0) << "absent: BOP_RETRIES or 0";
    EXPECT_TRUE(parse({"--retries", "0"}).retriesGiven);

    setenv("BOP_JOBS", "4", 1);
    EXPECT_EQ(parse({}).jobs, 4);
    EXPECT_EQ(parse({"--jobs", "2"}).jobs, 2) << "the flag wins";
    setenv("BOP_JOBS", "", 1);
    EXPECT_EQ(parse({}).jobs, 1) << "empty means unset";
}

TEST_F(BenchOptionsTest, MalformedValuesExitTwoNamingTheOption)
{
    EXPECT_EXIT(parse({"--jobs", "abc"}), ::testing::ExitedWithCode(2),
                "--jobs must be an integer");
    EXPECT_EXIT(parse({"--jobs", "0"}), ::testing::ExitedWithCode(2),
                "--jobs must be an integer in \\[1, ");
    EXPECT_EXIT(parse({"--jobs", "2.5"}), ::testing::ExitedWithCode(2),
                "--jobs");
    EXPECT_EXIT(parse({"--jobs", "99999999999"}),
                ::testing::ExitedWithCode(2), "--jobs");
    EXPECT_EXIT(parse({"--retries", "-1"}), ::testing::ExitedWithCode(2),
                "--retries must be an integer in \\[0, ");
    EXPECT_EXIT(parse({"--retries", "x"}), ::testing::ExitedWithCode(2),
                "--retries");
    setenv("BOP_JOBS", "four", 1);
    EXPECT_EXIT(parse({}), ::testing::ExitedWithCode(2),
                "BOP_JOBS must be an integer");
}

} // namespace
} // namespace bop
