/**
 * @file
 * In-memory span recorder for the traced run. The benchmark opens a
 * span around each public call it makes into a layer (name, layer,
 * request id, parent, start, end); spans stay in memory and are written
 * out once, when the run ends. A layer's self time is the length of its
 * spans minus the part of each covered by that span's children.
 */

#pragma once

#include <map>
#include <string>
#include <vector>

#include "streams.h"
#include "support/mutex.h"

namespace perfbench {

/** One recorded span; times are seconds since the tracer's origin. */
struct SpanRecord
{
    std::string name;
    std::string layer;
    std::string request; //!< spans of one request share this id
    int parent = -1;     //!< index of the causing span, -1 for a root
    double start = 0;
    double end = 0;
};

/** Thread-safe span store. A disabled tracer records nothing. */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    /** Open a span now; returns its index (-1 when disabled). */
    int begin(const std::string &name, const std::string &layer,
              const std::string &request = "", int parent = -1);

    /** Close span @p id now (no-op for -1). */
    void end(int id);

    /** Record a span measured elsewhere; returns its index. */
    int add(const std::string &name, const std::string &layer,
            const std::string &request, int parent, Clock::time_point start,
            Clock::time_point end);

    std::vector<SpanRecord> spans() const;

    /** Self seconds per layer over all spans. */
    std::map<std::string, double> selfSeconds() const;

    /** Summed duration of the root spans named @p name. */
    double rootSeconds(const std::string &name) const;

    /** Write every span as one JSON document; false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    double since(Clock::time_point t) const;

    const bool enabled_;
    const Clock::time_point origin_ = Clock::now();
    mutable guoq::support::Mutex mutex_;
    std::vector<SpanRecord> spans_ GUARDED_BY(mutex_);
};

/** RAII span. */
class Span
{
  public:
    Span(Tracer &t, const std::string &name, const std::string &layer,
         const std::string &request = "", int parent = -1)
        : tracer_(t), id_(t.begin(name, layer, request, parent))
    {
    }
    ~Span() { tracer_.end(id_); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    int id() const { return id_; }

  private:
    Tracer &tracer_;
    const int id_;
};

/** Self time of each span in @p spans (its length minus the union of
 *  its children's intervals, clipped to it). */
std::vector<double> selfTimes(const std::vector<SpanRecord> &spans);

} // namespace perfbench
