/**
 * @file
 * The row schemas of the batch and serve pipelines: one entry type per
 * processed request, its status vocabulary, and the two renderings of
 * it — the `guoq-batch-v1` summary document and the one-line
 * `guoq-serve-row-v1` response row. docs/FORMATS.md is the schemas'
 * authoritative description.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/guoq.h"
#include "verify/checker.h"

namespace guoq {
namespace serve {

/** How one request ended. */
enum class Status
{
    Ok,            //!< optimized (and verified, when asked)
    VerifySkipped, //!< optimized; the check could not run (see message)
    ParseError,    //!< the input did not parse (line/col/message)
    VerifyFailed,  //!< the check rejected the result
    WriteError,    //!< batch: the output file could not be written
    FrameError,    //!< serve: the request frame itself was malformed
};

/** The schema spelling: ok, verify_skipped, parse_error, ... */
const char *statusName(Status s);

/** The serve row's numeric `code`: 0 for the ok-shaped statuses,
 *  1 parse_error, 2 verify_failed, 3 write_error, 4 frame_error.
 *  Stable: codes are only ever added. */
int statusCode(Status s);

/** True for the statuses that carry a result (ok, verify_skipped). */
bool isOkShaped(Status s);

/** One processed request: a batch file or a serve request. */
struct BatchFileEntry
{
    std::string file;    //!< batch: path relative to the root; serve: id
    Status status = Status::Ok;
    std::string dialect; //!< input dialect actually parsed
    std::string algorithm; //!< registry name of the optimizer used
    std::string output;  //!< written output path (batch ok entries)
    int qubits = 0;
    std::size_t gatesBefore = 0;
    std::size_t gatesAfter = 0;
    std::size_t twoQubitBefore = 0;
    std::size_t twoQubitAfter = 0;
    double errorBound = 0; //!< accumulated ε of the result
    /** The run's counters (ok-shaped entries); the rows carry its
     *  cache traffic and pool queue peak (see docs/FORMATS.md). */
    core::GuoqStats stats;
    double seconds = 0;    //!< wall time spent on this request
    int line = 0;          //!< error position (failures; 0 = n/a)
    int col = 0;
    std::string message;   //!< error message, or a note on ok entries

    /** The check that ran (ok and verify_failed entries alike); an
     *  empty `method` means none did. */
    verify::VerifyReport verify;
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
 * The batch run as a pretty-printed JSON document (schema
 * "guoq-batch-v1"): a `run` object with the meta and the ok / failed /
 * verify_skipped tallies, then one object per entry in `files`.
 * Ok-shaped entries carry the circuit fields, failed ones
 * line/col/message; a `verify` block appears on any entry whose check
 * ran.
 */
std::string toBatchJson(const BatchRunMeta &meta,
                        const std::vector<BatchFileEntry> &files);

/**
 * One `guoq-serve-v1` response row (schema "guoq-serve-row-v1"): the
 * fields of a `guoq-batch-v1` entry, key for key, on a single line —
 * `id` in place of `file`, plus the numeric `code`, no `output`, and,
 * on ok-shaped rows, the optimized program inline as `qasm`. No
 * trailing newline; the writer adds the row-delimiting "\n".
 */
std::string toServeRowJson(const BatchFileEntry &e,
                           const std::string &qasm);

} // namespace serve
} // namespace guoq
