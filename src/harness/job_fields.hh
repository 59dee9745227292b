/**
 * @file
 * The job vocabulary: one field table that sets a JobSpec, shared by
 * bopsim's command-line flags and `bopsim --serve` job lines so the
 * two front ends cannot drift apart.
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

} // namespace bop

#endif // BOP_HARNESS_JOB_FIELDS_HH
