#include "span.hh"

#include <algorithm>
#include <unordered_map>

namespace bopbench
{

std::map<std::string, LayerTime>
selfTimes(const std::vector<SpanRecord> &spans)
{
    std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>>
        children;
    for (const SpanRecord &s : spans) {
        if (s.parent)
            children[s.parent].emplace_back(s.start, s.end);
    }

    std::map<std::string, LayerTime> out;
    for (const SpanRecord &s : spans) {
        // Union of the children's intervals, clipped to this span:
        // children of one parent may run concurrently on a pool.
        double covered = 0.0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            auto iv = it->second;
            std::sort(iv.begin(), iv.end());
            double curStart = 0.0, curEnd = -1.0;
            for (auto [a, b] : iv) {
                a = std::max(a, s.start);
                b = std::min(b, s.end);
                if (b <= a)
                    continue;
                if (a > curEnd) {
                    if (curEnd > curStart)
                        covered += curEnd - curStart;
                    curStart = a;
                    curEnd = b;
                } else {
                    curEnd = std::max(curEnd, b);
                }
            }
            if (curEnd > curStart)
                covered += curEnd - curStart;
        }
        const std::string layer = s.name.substr(0, s.name.find('.'));
        LayerTime &lt = out[layer];
        lt.selfSeconds += std::max(0.0, (s.end - s.start) - covered);
        ++lt.spans;
    }
    return out;
}

void
Tracer::record(SpanRecord span)
{
    std::lock_guard<std::mutex> lk(m);
    recorded.push_back(std::move(span));
}

std::vector<SpanRecord>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lk(m);
    return recorded;
}

void
Tracer::write(std::ostream &os) const
{
    std::lock_guard<std::mutex> lk(m);
    for (const SpanRecord &s : recorded) {
        os << "{\"name\": \"" << s.name << "\", \"id\": " << s.id
           << ", \"parent\": " << s.parent << ", \"job\": " << s.job
           << ", \"start\": " << s.start << ", \"end\": " << s.end
           << "}\n";
    }
}

Span::Span(Tracer *tracer_, const char *name, std::uint64_t parent,
           std::uint64_t job)
    : tracer(tracer_)
{
    if (!tracer)
        return;
    rec.name = name;
    rec.id = tracer->nextId();
    rec.parent = parent;
    rec.job = job;
    rec.start = tracer->now();
}

Span::~Span()
{
    if (!tracer)
        return;
    rec.end = tracer->now();
    tracer->record(std::move(rec));
}

} // namespace bopbench
