#include "harness/serve.hh"

#include <atomic>
#include <cctype>
#include <chrono>
#include <mutex>

#include "harness/job_fields.hh"
#include "harness/json_report.hh"
#include "sim/parallel.hh"

namespace bop
{

namespace
{

bool
blankLine(const std::string &line)
{
    for (const char c : line) {
        if (!std::isspace(static_cast<unsigned char>(c)))
            return false;
    }
    return true;
}

/** Report one rejected line on both streams (outMutex covers both:
 *  the diagnostic stream is written by reader and workers alike). */
void
reportRejected(std::ostream &out, std::ostream &diag, std::mutex &outMutex,
               const std::string &error, long lineNo)
{
    std::lock_guard<std::mutex> lk(outMutex);
    diag << "serve: line " << lineNo << ": " << error << "\n";
    out << "{\"error\": \"" << jsonEscape(error)
        << "\", \"kind\": \"parse\", \"line\": " << lineNo << "}"
        << std::endl;
}

/** Report one accepted-but-failed job: the error object keeps the
 *  job's deterministic job_index (and the attempts it burned) so
 *  batch post-processing can match it to its submission
 *  (docs/ROBUSTNESS.md). */
void
reportFailed(std::ostream &out, std::ostream &diag, std::mutex &outMutex,
             const RunRecord &record, long lineNo)
{
    std::lock_guard<std::mutex> lk(outMutex);
    diag << "serve: line " << lineNo << ": job " << record.jobIndex
         << " failed (" << record.errorKind << ", attempt "
         << record.attempts << "): " << record.errorDetail << "\n";
    out << "{\"error\": \"job failed\", \"kind\": \""
        << jsonEscape(record.errorKind) << "\", \"detail\": \""
        << jsonEscape(record.errorDetail) << "\", \"job_index\": "
        << record.jobIndex << ", \"attempts\": " << record.attempts
        << ", \"line\": " << lineNo << "}" << std::endl;
}

} // namespace

int
serveLoop(std::istream &in, std::ostream &out, ExperimentRunner &runner,
          const ServeOptions &options, std::ostream &diag)
{
    const int workers = options.jobs < 1 ? 1 : options.jobs;
    TaskPool pool(static_cast<unsigned>(workers), options.backlog);

    std::mutex outMutex;
    std::atomic<int> failed{0};
    std::atomic<long> retried{0};
    std::atomic<long> replayed{0};
    int rejected = 0;
    long accepted = 0;
    long lineNo = 0;
    std::string line;

    while (!(options.stopRequested &&
             options.stopRequested->load(std::memory_order_relaxed)) &&
           std::getline(in, line)) {
        ++lineNo;
        if (blankLine(line))
            continue;

        JobSpec job =
            defaultJob(options.defaultBudget, runner.checkpointSharing());
        std::string error;
        if (!parseJobLine(line, job, error)) {
            ++rejected;
            reportRejected(out, diag, outMutex, error, lineNo);
            continue;
        }

        const long jobIndex = accepted++;
        const auto submitted = std::chrono::steady_clock::now();
        // submit() blocks while the backlog is full: backpressure on
        // the reader bounds in-flight jobs (and so memory) for
        // arbitrarily long batches.
        pool.submit([&runner, &out, &outMutex, &diag, &failed, &retried,
                     &replayed, workers, job, jobIndex, lineNo,
                     submitted] {
            // The runner's in-flight latch dedups identical design
            // points across concurrent jobs; memo hits answer without
            // simulating — including records replayed from a journal
            // (--resume), which are memo hits flagged journalReplayed.
            const RunRecord record = runner.runJob(
                job, jobIndex, workers, submitted, /*memoise=*/true);
            retried += record.attempts - 1;
            if (record.errored()) {
                ++failed;
                reportFailed(out, diag, outMutex, record, lineNo);
                return;
            }
            if (record.journalReplayed)
                ++replayed;
            std::lock_guard<std::mutex> lk(outMutex);
            writeRunRecord(out, record);
            out << std::endl;
        });
    }

    if (options.stopRequested &&
        options.stopRequested->load(std::memory_order_relaxed)) {
        std::lock_guard<std::mutex> lk(outMutex);
        diag << "serve: stop requested, draining in-flight jobs\n";
    }

    pool.drain(); // graceful shutdown: every accepted job answers

    {
        std::lock_guard<std::mutex> lk(outMutex);
        diag << "serve: " << accepted << " accepted, " << rejected
             << " rejected, " << failed.load() << " failed, "
             << retried.load() << " retried, " << replayed.load()
             << " replayed\n";
    }
    return rejected + failed.load();
}

} // namespace bop
