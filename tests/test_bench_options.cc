/**
 * @file
 * The figure benches' shared option parser (bench/bench_common.hh):
 * worker counts and retry limits are whole integers in range, from
 * the command line or BOP_JOBS, and anything else exits 2 naming the
 * option instead of silently running with a default.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
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

class BenchOptionsTest : public ::testing::Test
{
  protected:
    void SetUp() override { unsetenv("BOP_JOBS"); }
    void TearDown() override { unsetenv("BOP_JOBS"); }
};

TEST_F(BenchOptionsTest, WellFormedValuesParse)
{
    const BenchOptions opts = parse({"--jobs", "3", "--retries", "0"});
    EXPECT_EQ(opts.jobs, 3);
    EXPECT_EQ(opts.retries, 0);
    EXPECT_EQ(parse({}).jobs, 1);
    EXPECT_EQ(parse({}).retries, -1) << "absent: the runner's default";

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
