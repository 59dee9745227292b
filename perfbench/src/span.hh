/**
 * @file
 * In-memory spans for the traced run (`--trace 1`).
 *
 * The benchmark wraps each call it makes into a simulator layer in a
 * Span: name (its layer is the part before the first '.'), start, end,
 * parent span and job id. Spans stay in memory and are written out as
 * JSON lines when the run ends; selfTimes() folds them into each
 * layer's self time (a span's duration minus the part of it its child
 * spans cover) and span count. A Span built on a null Tracer does
 * nothing, so the untraced code path is the same code.
 */

#ifndef BOPBENCH_SPAN_HH
#define BOPBENCH_SPAN_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace bopbench
{

/** One finished span; times are seconds since the tracer's epoch. */
struct SpanRecord
{
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    std::uint64_t job = 0;    ///< shared by all spans of one job
    double start = 0.0;
    double end = 0.0;
};

/** Per-layer totals derived from spans. */
struct LayerTime
{
    double selfSeconds = 0.0;
    std::size_t spans = 0;
};

/** Self time and span count per layer (name prefix before '.'). */
std::map<std::string, LayerTime>
selfTimes(const std::vector<SpanRecord> &spans);

/** Thread-safe in-memory span store. */
class Tracer
{
  public:
    Tracer() : epoch(std::chrono::steady_clock::now()) {}

    double now() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - epoch)
            .count();
    }
    std::uint64_t nextId() { return ++lastId; }

    /** Record a span measured elsewhere (e.g. from a due time). */
    void record(SpanRecord span);

    /** Copy of everything recorded so far. */
    std::vector<SpanRecord> spans() const;

    /** One JSON object per line. */
    void write(std::ostream &os) const;

  private:
    const std::chrono::steady_clock::time_point epoch;
    std::atomic<std::uint64_t> lastId{0};
    mutable std::mutex m;
    std::vector<SpanRecord> recorded; ///< guarded by m
};

/** RAII span; inert when the tracer is null. */
class Span
{
  public:
    Span(Tracer *tracer, const char *name, std::uint64_t parent = 0,
         std::uint64_t job = 0);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** This span's id (0 when inert): the parent of nested spans. */
    std::uint64_t id() const { return rec.id; }

  private:
    Tracer *tracer;
    SpanRecord rec;
};

} // namespace bopbench

#endif // BOPBENCH_SPAN_HH
