#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <istream>
#include <ostream>
#include <thread>
#include <utility>

#include "qasm/parser.h"
#include "qasm/printer.h"
#include "serve/pipeline.h"
#include "support/logging.h"

namespace guoq {
namespace serve {

namespace {

namespace fs = std::filesystem;

double
secondsSince(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** An error entry for a framing failure: located on the serve input
 *  stream (entry.line is the input line, col has no meaning). */
BatchFileEntry
frameErrorEntry(const FrameError &err, const Config &cfg)
{
    BatchFileEntry e;
    e.file = err.id;
    e.status = Status::FrameError;
    e.algorithm = cfg.algorithm;
    e.line = err.line;
    e.col = 0;
    e.message = err.message;
    return e;
}

/** One response row, ready for the writer thread. */
struct Row
{
    std::string json;
    bool ok = false;      //!< code 0
    std::string id;       //!< progress-line context
    Status status = Status::Ok;
    double seconds = 0;
};

Row
rowFor(const BatchFileEntry &entry, const std::string &qasm)
{
    Row row;
    row.json = toServeRowJson(entry, qasm);
    row.ok = statusCode(entry.status) == 0;
    row.id = entry.file;
    row.status = entry.status;
    row.seconds = entry.seconds;
    return row;
}

// --- batch-mode directory walking (moved from tools/guoq_cli.cc so
// --- both drivers share one pipeline) --------------------------------

/** Canonical form for containment tests: resolves `.`/`..`, relative
 *  spellings, and symlinked prefixes where they exist. */
fs::path
canonicalish(const fs::path &p)
{
    std::error_code ec;
    fs::path c = fs::weakly_canonical(p, ec);
    return ec ? p.lexically_normal() : c;
}

/** True when @p p lives under the directory whose *canonicalized*
 *  form is @p canonRoot. */
bool
isUnder(const fs::path &p, const fs::path &canonRoot)
{
    const fs::path rel = canonicalish(p).lexically_relative(canonRoot);
    return !rel.empty() && rel.native() != ".." && *rel.begin() != "..";
}

} // namespace

qasm::Dialect
outputDialect(const Config &cfg, qasm::Dialect in)
{
    return cfg.outDialect == qasm::Dialect::Auto ? in : cfg.outDialect;
}

Outcome
processParsed(const std::string &id, const qasm::ParseResult &pr,
              const Config &cfg, const std::uint64_t *seedOverride,
              const double *deadlineMsOverride)
{
    const auto t0 = std::chrono::steady_clock::now();
    Outcome o;
    BatchFileEntry &e = o.entry;
    e.file = id;
    e.algorithm = cfg.algorithm;
    e.dialect = qasm::dialectName(pr.dialect);
    o.dialect = pr.dialect;
    if (!pr.ok) {
        e.status = Status::ParseError;
        e.line = pr.error.line;
        e.col = pr.error.col;
        e.message = pr.error.message;
        e.seconds = secondsSince(t0);
        return o;
    }

    const ir::Circuit &input = pr.circuit;
    e.qubits = input.numQubits();
    e.gatesBefore = input.size();
    e.twoQubitBefore = input.twoQubitGateCount();

    core::OptimizeRequest req = cfg.base;
    if (seedOverride)
        req.seed = *seedOverride;
    // Per-request observation: cfg.base.hooks plus the server-wide
    // shutdown token (so a drain cancels in-flight searches
    // cooperatively) and this request's own deadline, all riding the
    // observer-hook path every search loop already polls.
    if (cfg.shutdown)
        req.hooks.cancel = cfg.shutdown;
    const double deadlineMs =
        deadlineMsOverride ? *deadlineMsOverride : cfg.deadlineMs;
    if (deadlineMs > 0)
        req.hooks.setDeadlineIn(deadlineMs / 1000.0);
    // A run that will be verified records its derivation, so that the
    // check can replay it instead of re-simulating the circuits.
    req.recordDerivation = cfg.verify;

    o.report = cfg.optimizer->run(input, req);
    const core::OptimizeReport &result = o.report;
    e.gatesAfter = result.circuit.size();
    e.twoQubitAfter = result.circuit.twoQubitGateCount();
    e.errorBound = result.errorBound;
    e.stats = result.stats;
    // An anytime search cut short by its deadline still returns its
    // best-so-far circuit — a valid, verified result — so the row
    // stays ok-shaped; the note keeps the truncation visible.
    if (deadlineMs > 0 && req.hooks.deadlineExpired())
        e.message = support::strcat("deadline of ", deadlineMs,
                                    " ms expired; best-so-far result");

    e.status = Status::Ok;
    if (cfg.verify) {
        verify::VerifyRequest vreq = cfg.verifyBase;
        vreq.seed = req.seed;
        if (result.derivation.recorded())
            vreq.derivation = &result.derivation;
        const std::string err =
            cfg.checker->checkRequest(input, result.circuit, vreq);
        if (!err.empty()) {
            e.status = Status::VerifySkipped;
            e.message = "verify skipped: " + err;
        } else {
            e.verify = cfg.checker->run(input, result.circuit, vreq);
            o.report.verification = e.verify;
            const verify::VerifyReport &vr = e.verify;
            if (vr.verdict == verify::Verdict::Inequivalent) {
                e.status = Status::VerifyFailed;
                e.message = support::strcat(
                    "verification failed: HS distance ",
                    vr.distanceEstimate, " (", vr.method, ", bound ",
                    vr.bound, ") exceeds budget ", cfg.base.epsilonTotal);
            }
        }
    }
    e.seconds = secondsSince(t0);
    return o;
}

Outcome
processSource(const std::string &id, const std::string &source,
              const Config &cfg, const std::uint64_t *seedOverride,
              const double *deadlineMsOverride)
{
    const auto t0 = std::chrono::steady_clock::now();
    Outcome o = processParsed(id, qasm::parseSource(source, cfg.inDialect, id),
                              cfg, seedOverride, deadlineMsOverride);
    o.entry.seconds = secondsSince(t0);
    return o;
}

ServeStats
runServe(std::istream &in, std::ostream &out, const Config &cfg)
{
    // One work item: a parsed frame, or a framing failure that only
    // needs its error row emitted.
    struct Item
    {
        Frame frame;
        BatchFileEntry preError;
        bool bad = false;
    };

    ServeStats stats;
    Credits credits(cfg.capacity);
    BoundedQueue<Item> workQ(cfg.capacity);
    BoundedQueue<Row> writeQ(cfg.capacity);

    std::thread writer([&] {
        Row row;
        while (writeQ.pop(row)) {
            if (out) {
                out << row.json << '\n';
                out.flush();
            }
            if (!out)
                stats.outputOk = false;
            ++stats.rows;
            stats.okRows += row.ok ? 1 : 0;
            if (!cfg.quiet) {
                support::MutexLock lock(support::logMutex());
                std::fprintf(stderr,
                             "guoq_cli: [%zu] %s: %s (%.2fs)\n",
                             stats.rows, row.id.c_str(),
                             statusName(row.status), row.seconds);
            }
            credits.release();
        }
    });

    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(cfg.jobs));
    for (int j = 0; j < cfg.jobs; ++j)
        workers.emplace_back([&] {
            Item item;
            while (workQ.pop(item)) {
                Row row;
                if (item.bad) {
                    row = rowFor(item.preError, "");
                } else {
                    const Frame &f = item.frame;
                    const Outcome o = processSource(
                        f.id, f.payload, cfg,
                        f.hasSeed ? &f.seed : nullptr,
                        f.hasDeadline ? &f.deadlineMs : nullptr);
                    row = rowFor(
                        o.entry,
                        o.haveCircuit()
                            ? qasm::toQasm(o.report.circuit,
                                           outputDialect(cfg, o.dialect))
                            : "");
                }
                writeQ.push(std::move(row));
            }
        });

    // The calling thread is the reader: admission is credit-gated, so
    // when cfg.capacity requests are in flight this blocks *before*
    // consuming more input — backpressure the client can feel.
    FrameReader reader(in, cfg.maxPayload);
    const auto shutdownRequested = [&cfg] {
        return cfg.shutdown &&
               cfg.shutdown->load(std::memory_order_relaxed);
    };
    while (!shutdownRequested()) {
        credits.acquire();
        Item item;
        FrameError err;
        const FrameReader::Status st = reader.next(item.frame, err);
        if (st == FrameReader::Status::Eof) {
            credits.release();
            break;
        }
        if (st == FrameReader::Status::Error) {
            item.bad = true;
            item.preError = frameErrorEntry(err, cfg);
            ++stats.frameErrors;
        } else {
            ++stats.frames;
        }
        workQ.push(std::move(item));
    }

    // Drain-on-EOF/shutdown: stop admitting, let workers finish every
    // queued item, then let the writer flush every finished row.
    workQ.close();
    for (std::thread &w : workers)
        w.join();
    writeQ.close();
    writer.join();
    stats.peakInFlight = credits.peak();
    return stats;
}

BatchResult
runBatch(const std::string &rootDir, const std::string &outDir,
         const Config &cfg)
{
    const fs::path root(rootDir);
    const fs::path outRoot(outDir);
    const fs::path outCanon = canonicalish(outRoot);

    BatchResult result;
    Credits credits(cfg.capacity);
    BoundedQueue<fs::path> workQ(cfg.capacity);
    BoundedQueue<BatchFileEntry> doneQ(cfg.capacity);

    // The collector is the batch pipeline's "writer": it owns the
    // entries vector and the per-file progress lines (one thread, one
    // line at a time, under the process-wide log mutex — concurrent
    // jobs can no longer interleave mid-line), and returns each
    // file's credit once its entry is recorded.
    std::thread collector([&] {
        BatchFileEntry e;
        std::size_t done = 0;
        while (doneQ.pop(e)) {
            ++done;
            if (!cfg.quiet) {
                support::MutexLock lock(support::logMutex());
                if (e.status == Status::Ok)
                    std::fprintf(stderr,
                                 "guoq_cli: [%zu] %s: ok (%zu -> %zu "
                                 "gates, %.2fs)\n",
                                 done, e.file.c_str(), e.gatesBefore,
                                 e.gatesAfter, e.seconds);
                else
                    std::fprintf(stderr,
                                 "guoq_cli: [%zu] %s: %s (%s)\n", done,
                                 e.file.c_str(), statusName(e.status),
                                 e.message.c_str());
            }
            result.entries.push_back(std::move(e));
            credits.release();
        }
    });

    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(cfg.jobs));
    for (int j = 0; j < cfg.jobs; ++j)
        workers.emplace_back([&] {
            fs::path in;
            while (workQ.pop(in)) {
                const auto t0 = std::chrono::steady_clock::now();
                const fs::path rel = in.lexically_relative(root);
                Outcome o = processParsed(
                    rel.generic_string(),
                    qasm::parseSourceFile(in.string(), cfg.inDialect), cfg);
                BatchFileEntry &e = o.entry;
                if (o.haveCircuit()) {
                    const fs::path outPath = outRoot / rel;
                    std::error_code ec;
                    fs::create_directories(outPath.parent_path(), ec);
                    const std::string err = qasm::writeQasmFile(
                        o.report.circuit, outPath.generic_string(),
                        outputDialect(cfg, o.dialect));
                    if (err.empty()) {
                        e.output = outPath.generic_string();
                    } else {
                        e.status = Status::WriteError;
                        e.message = err;
                    }
                }
                e.seconds = secondsSince(t0);
                doneQ.push(std::move(e));
            }
        });

    // The calling thread is the reader — a directory walker feeding
    // files into the pipeline as it finds them. The output tree is
    // excluded so a nested --out-dir (or a rerun over the same
    // directory) does not re-optimize its own results; the
    // non-throwing iterator overloads keep a directory vanishing
    // mid-scan a reported failure, never an uncaught exception.
    std::error_code ec;
    auto it = fs::recursive_directory_iterator(
        root, fs::directory_options::skip_permission_denied, ec);
    while (!ec && it != fs::recursive_directory_iterator()) {
        std::error_code entry_ec;
        if (it->is_directory(entry_ec) && isUnder(it->path(), outCanon)) {
            it.disable_recursion_pending();
        } else if (!entry_ec && it->is_regular_file(entry_ec) &&
                   !entry_ec && it->path().extension() == ".qasm" &&
                   !isUnder(it->path(), outCanon)) {
            credits.acquire();
            workQ.push(it->path());
        }
        it.increment(ec);
    }
    if (ec) {
        result.scanOk = false;
        result.scanError = ec.message();
    }

    workQ.close();
    for (std::thread &w : workers)
        w.join();
    doneQ.close();
    collector.join();
    result.peakInFlight = credits.peak();

    // Completion order is nondeterministic with --jobs > 1; the
    // summary contract (docs/FORMATS.md) is one entry per file sorted
    // by path.
    std::sort(result.entries.begin(), result.entries.end(),
              [](const BatchFileEntry &a, const BatchFileEntry &b) {
                  return a.file < b.file;
              });
    return result;
}

} // namespace serve
} // namespace guoq
