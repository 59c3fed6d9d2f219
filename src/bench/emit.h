/**
 * @file
 * Structured emitters for the benchmark runner: the flat CaseResult
 * rows as JSON (schema "guoq-bench-v1") or CSV, so the perf
 * trajectory is machine-readable and plottable instead of print-only.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench/harness.h"

namespace guoq {
namespace bench {

/** Provenance header of one runner invocation. */
struct RunMeta
{
    double scale = 1.0;
    int trials = 1;
    std::uint64_t seed = 0;
    int threads = 1;
    std::vector<std::string> cases; //!< ids actually run, in order
    MachineInfo machine;            //!< see probeMachine()
};

/**
 * The run as a JSON document:
 *
 *   {
 *     "schema": "guoq-bench-v1",
 *     "run": {"scale": ..., "trials": ..., "seed": ..., "threads": ...,
 *             "cases": [...],
 *             "machine": {"cpu": ..., "logical_cores": ..., "simd": ...,
 *                         "compiler": ..., "build_type": ...}},
 *     "results": [
 *       {"case": ..., "benchmark": ..., "tool": ..., "algorithm": ...,
 *        "metric": ..., "value": ..., "seconds": ..., "trial": ...,
 *        "seed": ..., "workers": [...], "synth_cache_hits": ...,
 *        "synth_cache_misses": ..., "synth_cache_stores": ...}, ...
 *     ]
 *   }
 *
 * Non-finite values serialize as null so the document always parses.
 */
std::string toJson(const RunMeta &meta,
                   const std::vector<CaseResult> &results);

/**
 * The rows as RFC-4180 CSV with a header line; `workers` is a
 * semicolon-joined list so it stays one field.
 */
std::string toCsv(const std::vector<CaseResult> &results);

/** One CSV field, quoted iff it contains a comma/quote/newline. */
std::string csvField(const std::string &s);

} // namespace bench
} // namespace guoq
