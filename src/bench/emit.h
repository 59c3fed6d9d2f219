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

/** One file's outcome in a `guoq_cli --batch` run. */
struct BatchFileEntry
{
    std::string file;    //!< input path relative to the batch root
    std::string status;  //!< "ok" | "verify_skipped" | "parse_error" |
                         //!< "verify_failed" | "write_error"
    std::string dialect; //!< input dialect actually parsed
    std::string algorithm; //!< registry name of the optimizer used
    std::string output;  //!< written output path (ok entries only)
    int qubits = 0;
    std::size_t gatesBefore = 0;
    std::size_t gatesAfter = 0;
    std::size_t twoQubitBefore = 0;
    std::size_t twoQubitAfter = 0;
    double errorBound = 0; //!< accumulated ε of the result
    /** @name Synthesis-cache traffic of this file's run (ok-shaped
     *  entries; see docs/FORMATS.md) */
    /** @{ */
    long synthCacheHits = 0;
    long synthCacheMisses = 0;
    long synthCacheStores = 0;
    long poolQueuePeak = 0;
    /** @} */
    double seconds = 0;    //!< wall time spent on this file
    int line = 0;          //!< error position (failures; 0 = n/a)
    int col = 0;
    std::string message;   //!< error message (failures only)

    /** @name Verification outcome (--verify runs that completed;
     *  stamped on ok and verify_failed entries alike) */
    /** @{ */
    bool verified = false;      //!< a check ran; the fields below hold
    std::string verifyMethod;   //!< backend that ran ("dense", ...)
    double verifyDistance = 0;  //!< Δ estimate
    double verifyBound = 0;     //!< confidence-interval half-width
    double verifyConfidence = 0; //!< confidence the bound holds
    long verifyShots = 0;       //!< shots spent (0 = exact)
    std::string verifyVerdict;  //!< "equivalent" | "inequivalent"
    /** @} */
};

/** Provenance header of one batch run. */
struct BatchRunMeta
{
    std::string inputDir;
    std::string outputDir;
    std::string gateSet;
    std::string objective;
    std::string algorithm; //!< registry name of the optimizer used
    double epsilon = 0;
    double timeBudgetSeconds = 0;
    int threads = 1; //!< portfolio workers per file
    int jobs = 1;    //!< files optimized concurrently
    std::uint64_t seed = 0;
    int synthWorkers = 0;      //!< async synthesis workers (0 = sync)
    std::string synthCacheDir; //!< persistent cache dir ("" = off)
};

/**
 * The batch run as a JSON document (schema "guoq-batch-v1"):
 *
 *   {
 *     "schema": "guoq-batch-v1",
 *     "run": {"input_dir": ..., "output_dir": ..., "gate_set": ...,
 *             "objective": ..., "algorithm": ..., "epsilon": ...,
 *             "time": ..., "threads": ..., "jobs": ..., "seed": ...,
 *             "files": N, "ok": N, "failed": N, "verify_skipped": N},
 *     "files": [
 *       {"file": ..., "status": "ok", "dialect": ...,
 *        "algorithm": ..., "output": ..., "qubits": ...,
 *        "gates_before": ..., "gates_after": ..., "twoq_before": ...,
 *        "twoq_after": ..., "error_bound": ...,
 *        "synth_cache_hits": ..., "synth_cache_misses": ...,
 *        "synth_cache_stores": ..., "pool_queue_peak": ...,
 *        "verify": {"method": ..., "distance": ..., "bound": ...,
 *                   "confidence": ..., "shots": ..., "verdict": ...},
 *        "seconds": ...},
 *       {"file": ..., "status": "parse_error", "dialect": ...,
 *        "algorithm": ..., "line": ..., "col": ..., "message": ...,
 *        "seconds": ...}
 *     ]
 *   }
 *
 * Failed entries carry line/col/message instead of the circuit
 * fields; "verify_skipped" entries are ok-shaped plus a message and
 * count neither as ok nor failed. The "verify" block appears on any
 * entry whose check completed (ok and verify_failed alike);
 * docs/FORMATS.md is the schema's authoritative description.
 */
std::string toBatchJson(const BatchRunMeta &meta,
                        const std::vector<BatchFileEntry> &files);

/**
 * Numeric per-row status for serve rows: 0 for the ok-shaped
 * statuses ("ok", "verify_skipped" — a result was produced), nonzero
 * for failures (1 parse_error, 2 verify_failed, 3 write_error,
 * 4 frame_error, 5 anything else). Stable: codes are only ever added.
 */
int serveRowCode(const std::string &status);

/**
 * One `guoq-serve-v1` response row (schema "guoq-serve-row-v1"): the
 * BatchFileEntry fields of `guoq-batch-v1`, reused key-for-key on a
 * single line — `id` in place of `file`, plus the numeric `code` and,
 * on ok-shaped rows, the optimized program inline as `qasm` (a serve
 * request has no output tree to write into). No trailing newline; the
 * writer thread adds the row-delimiting "\n". Schema reference:
 * docs/FORMATS.md.
 */
std::string toServeRowJson(const BatchFileEntry &e,
                           const std::string &qasm);

/** JSON string escaping (quotes, backslashes, control characters). */
std::string jsonEscape(const std::string &s);

/** One CSV field, quoted iff it contains a comma/quote/newline. */
std::string csvField(const std::string &s);

} // namespace bench
} // namespace guoq
