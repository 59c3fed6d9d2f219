#include "trace.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "report.h"

namespace perfbench {

double
Tracer::since(Clock::time_point t) const
{
    return secondsBetween(origin_, t);
}

int
Tracer::begin(const std::string &name, const std::string &layer,
              const std::string &request, int parent)
{
    if (!enabled_)
        return -1;
    const double now = since(Clock::now());
    guoq::support::MutexLock lock(mutex_);
    spans_.push_back(SpanRecord{name, layer, request, parent, now, now});
    return static_cast<int>(spans_.size()) - 1;
}

void
Tracer::end(int id)
{
    if (id < 0)
        return;
    const double now = since(Clock::now());
    guoq::support::MutexLock lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = now;
}

int
Tracer::add(const std::string &name, const std::string &layer,
            const std::string &request, int parent, Clock::time_point start,
            Clock::time_point end)
{
    if (!enabled_)
        return -1;
    guoq::support::MutexLock lock(mutex_);
    spans_.push_back(
        SpanRecord{name, layer, request, parent, since(start), since(end)});
    return static_cast<int>(spans_.size()) - 1;
}

std::vector<SpanRecord>
Tracer::spans() const
{
    guoq::support::MutexLock lock(mutex_);
    return spans_;
}

std::vector<double>
selfTimes(const std::vector<SpanRecord> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const SpanRecord &s : spans)
        if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
            kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                  s.end);
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        std::vector<std::pair<double, double>> &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0;
        double reach = s.start;
        for (const auto &[a, b] : iv) {
            const double lo = std::max(a, reach);
            const double hi = std::min(b, s.end);
            if (hi > lo) {
                covered += hi - lo;
                reach = hi;
            }
        }
        self[i] = std::max(0.0, (s.end - s.start) - covered);
    }
    return self;
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    const std::vector<SpanRecord> all = spans();
    const std::vector<double> self = selfTimes(all);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < all.size(); ++i)
        out[all[i].layer] += self[i];
    return out;
}

double
Tracer::rootSeconds(const std::string &name) const
{
    double total = 0;
    for (const SpanRecord &s : spans())
        if (s.parent < 0 && s.name == name)
            total += s.end - s.start;
    return total;
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    out << "{\"schema\": \"perfbench-trace-v1\", \"spans\": [";
    const std::vector<SpanRecord> all = spans();
    for (std::size_t i = 0; i < all.size(); ++i) {
        const SpanRecord &s = all[i];
        out << (i ? ",\n " : "\n ") << "{\"id\": " << i
            << ", \"name\": " << jsonQuote(s.name)
            << ", \"layer\": " << jsonQuote(s.layer)
            << ", \"request\": " << jsonQuote(s.request)
            << ", \"parent\": " << s.parent
            << ", \"start_s\": " << jsonNumber(s.start)
            << ", \"end_s\": " << jsonNumber(s.end) << "}";
    }
    out << "\n]}\n";
    out.close();
    return static_cast<bool>(out);
}

} // namespace perfbench
