/**
 * @file
 * The front ends' configuration surface. One field table sets a
 * JobSpec, shared by bopsim's command-line flags and `bopsim --serve`
 * job lines so the two cannot drift apart; a second table reads the
 * BOP_* environment variables for bopsim and the figure benches.
 *
 *   job-line field   bopsim flag        sets
 *   workload         --workload NAME    JobSpec::benchmark
 *   prefetcher       --prefetcher KIND  cfg.l2Prefetcher
 *   page             --page 4k|4m       cfg.pageSize
 *   l3               --l3 5p|lru|drrip  cfg.l3Policy
 *   checkpoint       (serve only)       share ("share") / cold ("cold")
 *   offset           --offset D         cfg.fixedOffset
 *   cores            --cores N          cfg.activeCores
 *   num_cores        --num-cores N      cfg.numCores
 *   channels         --channels M       cfg.numChannels
 *   dl1_stride       --no-dl1-stride    cfg.dl1StridePrefetcher (flag: 0)
 *   seed             --seed S           cfg.seed
 *   threads          --threads N        cfg.numThreads
 *   bo_badscore      --bo-badscore N    cfg.bo.badScore
 *   bo_rr            --bo-rr N          cfg.bo.rrEntries
 *   bo_degree        --bo-degree N      cfg.bo.degree
 *   bo_adaptive      --bo-adaptive      cfg.bo.adaptiveBadScore (flag: 1)
 *   bo_coverage      --bo-coverage W    cfg.bo.coverageWeight
 *   warmup           --warmup N         budget.warmup
 *   instr            --instr N          budget.measure
 *
 * Numeric fields take integers only. A job-line number that is not
 * integral, or a flag argument that is not a whole decimal integer,
 * is refused, as is any value outside the field's range: int fields
 * [INT_MIN, INT_MAX]; counts (seed, bo_rr, warmup, instr)
 * [0, 2^63 - 1]; switches (dl1_stride, bo_adaptive) 0 or 1. Nothing
 * is truncated or wrapped.
 */

#ifndef BOP_HARNESS_JOB_FIELDS_HH
#define BOP_HARNESS_JOB_FIELDS_HH

#include <cstdint>
#include <string>

#include "harness/experiment.hh"

namespace bop
{

/** bopsim's defaults: paper baseline topology with the BO prefetcher. */
JobSpec defaultJob(const Budget &budget, bool share);

/**
 * Decode one job line (a flat JSON object, the grammar bench_diff
 * parses) over @p job, which holds the defaults for absent fields.
 * Unknown fields, bad values, a missing or unknown "workload" reject
 * the line: returns false with the reason in @p error, so a typo
 * never silently simulates the wrong design point.
 */
bool parseJobLine(const std::string &line, JobSpec &job,
                  std::string &error);

/**
 * If argv[i] is a vocabulary flag, apply it (consuming its argument,
 * if it takes one) to @p job and return true; return false for any
 * other argument. Throws std::invalid_argument naming the flag when
 * its argument is missing or refused.
 */
bool parseJobFlag(int argc, char **argv, int &i, JobSpec &job);

/**
 * The same range-checked integer parse for a front end's own options
 * outside the vocabulary (worker counts, retry limits, their
 * environment defaults): @p text must be a whole decimal integer in
 * [@p lo, @p hi]. Throws std::invalid_argument naming @p name
 * otherwise, so a typo never silently becomes 0 or a clamp.
 */
std::int64_t parseIntOption(const std::string &name,
                            const std::string &text, std::int64_t lo,
                            std::int64_t hi);

/**
 * A wall-clock duration in seconds: @p text must be a plain decimal
 * number (fractions allowed) in [0, 1e9]. Throws std::invalid_argument
 * naming @p name otherwise.
 */
double parseSecondsOption(const std::string &name, const std::string &text);

/**
 * The settings the BOP_* environment variables carry. A front end
 * reads them once at startup (readEnvSettings()), lets its own flags
 * override them, and hands the runner-wide ones to its runner
 * (configureRunner()); the libraries never read the environment.
 * Variables, ranges and readers: readEnvSettings() in job_fields.cc,
 * documented in README "Environment variables".
 */
struct EnvSettings
{
    Budget budget;           ///< BOP_WARMUP, BOP_INSTR
    int jobs = 1;            ///< BOP_JOBS: farm / serve workers
    int retries = 0;         ///< BOP_RETRIES: transient-failure retries
    double jobTimeout = 0.0; ///< BOP_JOB_TIMEOUT seconds, 0 = none
    bool ckptShare = false;  ///< BOP_CKPT_SHARE: prefix sharing
    std::string ckptDir;     ///< BOP_CKPT_DIR: disk cache, "" = none
    bool verbose = false;    ///< BOP_VERBOSE: stderr line per run
    int sweepStep = 2;       ///< BOP_SWEEP_STEP: fig08 offset stride
};

/** Which front end reads the environment. */
enum class FrontEnd
{
    Bopsim, ///< takes budgets from --warmup/--instr, has no sweep
    Bench
};

/**
 * Read the BOP_* variables @p reader honours over the defaults (an
 * empty value means unset). Throws std::invalid_argument naming the
 * variable when a value is malformed or out of range.
 */
EnvSettings readEnvSettings(FrontEnd reader);

/** Give @p runner the runner-wide settings: sharing, checkpoint
 *  directory, job timeout, retries and progress output. */
void configureRunner(ExperimentRunner &runner, const EnvSettings &settings);

} // namespace bop

#endif // BOP_HARNESS_JOB_FIELDS_HH
