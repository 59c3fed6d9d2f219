/**
 * @file
 * The streaming service tier behind `guoq_cli --serve` and the
 * pipeline `--batch` rides on: one reader → optimizer workers →
 * writer shape for both modes.
 *
 * Serve mode frames `guoq-serve-v1` requests off an input stream
 * (serve/framing.h), optimizes each through the core::Optimizer
 * registry (and so through the shared synth::SynthService cache the
 * process keeps warm across requests), and streams one
 * `guoq-serve-row-v1` JSON line per request (serve/rows.h) as it
 * finishes. Batch mode runs the identical pipeline with "reader =
 * directory walker": files enter the flow as they are discovered
 * instead of after a load-everything-first pass, workers write the
 * mirrored output tree, and the writer collects the `guoq-batch-v1`
 * entries. Single-file CLI mode runs the same per-request body,
 * processParsed().
 *
 * In-flight work is bounded by credit-based backpressure
 * (serve/pipeline.h): the reader takes one credit per admitted
 * request and blocks when none are left, the writer returns the
 * credit once the request's row has left the pipeline, so at most
 * Config::capacity requests exist anywhere between admission and
 * emission. Shutdown is a drain: on input EOF (or the shutdown
 * token — the CLI's SIGTERM/SIGINT path) the reader stops admitting,
 * every admitted request still produces exactly one row, and the
 * threads join in reader → workers → writer order. Per-request
 * deadlines ride the PR 4 observer hooks (ObserverHooks::deadline),
 * so an expired deadline stops the search cooperatively and the row
 * carries the best-so-far result with a note.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/observer.h"
#include "core/optimizer.h"
#include "ir/gate_set.h"
#include "qasm/dialect.h"
#include "qasm/parser.h"
#include "serve/framing.h"
#include "serve/rows.h"
#include "verify/checker.h"

namespace guoq {
namespace serve {

/** Everything both pipeline modes need, resolved and validated by the
 *  driver (optimizer/checker come from their registries; the base
 *  request must already have passed Optimizer::checkRequest). */
struct Config
{
    ir::GateSetKind set = ir::GateSetKind::Nam;
    qasm::Dialect inDialect = qasm::Dialect::Auto;
    qasm::Dialect outDialect = qasm::Dialect::Auto; //!< Auto = input's
    std::string algorithm = "guoq"; //!< registry name (stamped on rows)
    const core::Optimizer *optimizer = nullptr; //!< resolved, non-null

    /** Circuit-independent request template. Per-request copies keep
     *  `base.hooks` (e.g. a progress callback) and overlay the
     *  shutdown token, their own seed and their own deadline. */
    core::OptimizeRequest base;

    bool verify = false;
    const verify::EquivalenceChecker *checker = nullptr; //!< iff verify
    verify::VerifyRequest verifyBase;

    int jobs = 1;              //!< optimizer worker threads
    std::size_t capacity = 64; //!< credit cap: max requests in flight
    double deadlineMs = 0;     //!< default per-request deadline (0 =
                               //!< none; frames may override)
    std::size_t maxPayload = FrameReader::kDefaultMaxPayload;
    bool quiet = true;         //!< suppress stderr progress lines

    /** Optional external shutdown switch (the CLI's signal path).
     *  When set, admission stops and in-flight requests are cancelled
     *  cooperatively — but still produce their rows. */
    core::CancelToken shutdown;
};

/** The dialect results are emitted in for an input parsed as @p in. */
qasm::Dialect outputDialect(const Config &cfg, qasm::Dialect in);

/** One request processed end to end (parse → optimize → verify). */
struct Outcome
{
    BatchFileEntry entry;
    /** The optimizer's report: the circuit, stats and workers, plus
     *  the check in `verification` when one ran. */
    core::OptimizeReport report;
    qasm::Dialect dialect = qasm::Dialect::Qasm2; //!< input's dialect

    /** True when `report.circuit` is a result to emit (ok-shaped). */
    bool
    haveCircuit() const
    {
        return isOkShaped(entry.status);
    }
};

/**
 * The shared per-request worker body of all three CLI modes: optimize
 * the parsed input @p pr (labelled @p id) through cfg.optimizer and
 * verify it when asked. Never throws or aborts — every failure mode,
 * a parse error in @p pr included, is a status in the entry.
 * @p seedOverride / @p deadlineMsOverride are the request's own
 * settings (null = the config's).
 */
Outcome processParsed(const std::string &id, const qasm::ParseResult &pr,
                      const Config &cfg,
                      const std::uint64_t *seedOverride = nullptr,
                      const double *deadlineMsOverride = nullptr);

/** Parse @p source with cfg.inDialect, then processParsed(); the
 *  entry's `seconds` covers the parse too. */
Outcome processSource(const std::string &id, const std::string &source,
                      const Config &cfg,
                      const std::uint64_t *seedOverride = nullptr,
                      const double *deadlineMsOverride = nullptr);

/** What a serve run did (the driver's exit code and summary line). */
struct ServeStats
{
    std::size_t frames = 0;      //!< well-formed frames admitted
    std::size_t frameErrors = 0; //!< framing failures (error rows)
    std::size_t rows = 0;        //!< rows written (== frames + errors)
    std::size_t okRows = 0;      //!< rows with code 0
    std::size_t peakInFlight = 0; //!< credit high-water mark
    bool outputOk = true;        //!< the output stream never failed
};

/**
 * Serve `guoq-serve-v1` frames from @p in until EOF (or shutdown),
 * streaming one `guoq-serve-row-v1` line per request to @p out in
 * completion order, flushed per row. The calling thread is the
 * reader; cfg.jobs workers and one writer are spawned and joined
 * before returning, so every admitted request has produced its row
 * when this returns.
 */
ServeStats runServe(std::istream &in, std::ostream &out,
                    const Config &cfg);

/** What a batch run produced (the driver renders table/summary). */
struct BatchResult
{
    /** One entry per discovered file, sorted by path. */
    std::vector<BatchFileEntry> entries;
    std::size_t peakInFlight = 0; //!< credit high-water mark
    bool scanOk = true;           //!< directory walk completed
    std::string scanError;        //!< iff !scanOk
};

/**
 * Run the batch pipeline over every *.qasm under @p rootDir
 * (recursive, skipping @p outDir so reruns never re-optimize their
 * own results), writing optimized files into the mirrored tree under
 * @p outDir. Identical flow to runServe — walker instead of frame
 * reader, file writes instead of inline QASM — discovered files start
 * optimizing immediately instead of after a full pre-scan.
 */
BatchResult runBatch(const std::string &rootDir,
                     const std::string &outDir, const Config &cfg);

} // namespace serve
} // namespace guoq
