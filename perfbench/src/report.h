/**
 * @file
 * The benchmark's result record and the statistics it is built from:
 * medians, nearest-rank percentiles with the "ten samples beyond"
 * rule, metric-name validation, and the one-line JSON result every run
 * ends with.
 */

#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/** Median (mean of the two middle values for an even count); 0 when
 *  @p v is empty. */
double median(std::vector<double> v);

/**
 * Nearest-rank percentile: the value at rank ceil(pct·n/100) of the
 * ascending samples, so exactly samplesBeyond(n, pct) samples lie above
 * it. @p pct is an integer percent in [1, 100]; 0 when @p v is empty.
 */
double percentile(std::vector<double> v, int pct);

/** Samples ranked above the nearest-rank @p pct percentile of @p n. */
std::size_t samplesBeyond(std::size_t n, int pct);

/** Fewest samples for which at least @p beyond lie above the @p pct
 *  percentile (200 for p95 with ten beyond). */
std::size_t minSamplesFor(int pct, std::size_t beyond = 10);

/** True when @p name is a legal metric or workload name: 1-64 of
 *  [A-Za-z0-9_.-], starting with a letter or digit. */
bool validMetricName(const std::string &name);

/** True when @p unit is a legal unit: 1-16 of [A-Za-z0-9_/%.-]. */
bool validUnit(const std::string &unit);

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** What a run reports: correctness, operation counts, metrics. */
struct Report
{
    bool correct = true;
    long attempted = 0; //!< operations checked (optimizations, rows)
    long failed = 0;    //!< of those, failures (see README)
    std::vector<Metric> metrics;

    /** Append a metric (names and units are validated on output). */
    void add(const std::string &name, double value,
             const std::string &unit);

    /** Count one checked operation; @p ok false records a failure and
     *  clears `correct`. */
    void check(bool ok);
};

/**
 * The result line:
 *   {"correct": .., "attempted": .., "failed": .., "metrics":
 *    {"<name>": {"value": .., "unit": ".."}, ...}}
 * Values keep 17 significant digits. Returns "" (and fills @p err) if a
 * name or unit is invalid, a name repeats, or a value is not finite.
 */
std::string resultJson(const Report &r, std::string *err);

/** JSON string literal for @p s (quotes included). */
std::string jsonQuote(const std::string &s);

/** Shortest round-trip-safe rendering of @p v (17 significant digits). */
std::string jsonNumber(double v);

/** @p v as jsonNumber renderings separated by spaces (for the meta line). */
std::string numberList(const std::vector<double> &v);

} // namespace perfbench
