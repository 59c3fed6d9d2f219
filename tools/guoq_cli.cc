/**
 * @file
 * Command-line driver: OpenQASM 2.0/3.x in, optimized OpenQASM out.
 *
 * Single-file mode (the default) reads one circuit and writes one:
 *
 *   guoq_cli --in circuit.qasm --out optimized.qasm \
 *            --gate-set nam --objective 2q-count \
 *            --epsilon 1e-5 --time 10 --threads 4 --seed 1
 *
 * `--in -` (the default) reads the program from stdin; `--out -` (the
 * default) writes to stdout. Progress and statistics go to stderr so
 * the QASM stream stays pipeable.
 *
 * Batch mode drives a whole suite through one process:
 *
 *   guoq_cli --batch suite/ --out-dir suite-opt --jobs 4 --time 5
 *
 * Every *.qasm under the directory is discovered recursively, each
 * file is optimized (--jobs files concurrently, each as a --threads
 * portfolio), outputs mirror the input tree under --out-dir, and a
 * `guoq-batch-v1` JSON summary is written. A malformed file marks
 * that file failed (with a file:line:col diagnostic) but never aborts
 * the rest of the suite.
 *
 * Serve mode turns the process into a long-lived optimization service:
 *
 *   guoq_cli --serve --jobs 4 --capacity 64 --deadline-ms 5000
 *
 * `guoq-serve-v1` frames are read from stdin (docs/FORMATS.md), each
 * request is optimized by a worker pool sharing the process-wide
 * synthesis cache, and one `guoq-serve-row-v1` JSON line per request
 * streams to stdout as it finishes. Admission is credit-bounded
 * (--capacity), per-request deadlines are cooperative, and EOF or
 * SIGTERM/SIGINT drains in-flight requests before exit. Batch mode
 * rides the same pipeline (src/serve/), so files start optimizing as
 * the directory walk discovers them, and single-file mode runs the
 * same per-request body (serve::processParsed).
 *
 * Exit codes: 0 success; 1 runtime failure (parse/verify errors, an
 * output that could not be written, or a batch with failed files
 * unless --keep-going); 2 usage errors. The full CLI contract lives in
 * README.md and docs/FORMATS.md.
 */

#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/observer.h"
#include "core/optimizer.h"
#include "core/portfolio.h"
#include "ir/gate_set.h"
#include "qasm/parser.h"
#include "qasm/printer.h"
#include "serve/server.h"
#include "support/logging.h"
#include "support/table.h"
#include "synth/service.h"
#include "verify/checker.h"

namespace {

namespace fs = std::filesystem;
using namespace guoq;

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "\n"
        "Optimize OpenQASM 2.0/3.x circuits with GUOQ. Full reference:\n"
        "README.md; input/output format contract: docs/FORMATS.md.\n"
        "\n"
        "input/output:\n"
        "  --in FILE        input QASM file, or - for stdin (default -)\n"
        "  --out FILE       output QASM file, or - for stdout (default -)\n"
        "  --dialect D      input dialect: auto | qasm2 | qasm3\n"
        "                   (default auto: detect from the OPENQASM\n"
        "                   version line)\n"
        "  --out-dialect D  output dialect: auto | qasm2 | qasm3\n"
        "                   (default auto: match the input dialect)\n"
        "\n"
        "batch mode:\n"
        "  --batch DIR      optimize every *.qasm under DIR (recursive);\n"
        "                   excludes --in/--out\n"
        "  --out-dir DIR    output root mirroring the input tree\n"
        "                   (default: <batch-dir>-opt)\n"
        "  --jobs N         requests optimized concurrently (batch and\n"
        "                   serve; default 1; total worker threads =\n"
        "                   jobs x threads)\n"
        "  --keep-going     exit 0 even when some files fail (failures\n"
        "                   still reported per file and in the summary)\n"
        "  --summary FILE   guoq-batch-v1 JSON summary path, - for\n"
        "                   stdout (default <out-dir>/summary.json)\n"
        "\n"
        "serve mode:\n"
        "  --serve          optimize guoq-serve-v1 frames from stdin,\n"
        "                   streaming one guoq-serve-row-v1 JSON line\n"
        "                   per request to stdout as it finishes\n"
        "                   (framing/row schema: docs/FORMATS.md);\n"
        "                   excludes --in/--out/--batch\n"
        "  --capacity N     max requests in flight between admission\n"
        "                   and emission; the reader blocks when all\n"
        "                   credits are out (batch and serve;\n"
        "                   default 64)\n"
        "  --deadline-ms D  default per-request deadline, cooperative:\n"
        "                   an expired request returns its best-so-far\n"
        "                   result (batch and serve; frames may\n"
        "                   override; default: none)\n"
        "\n"
        "optimization:\n"
        "  --algorithm A    optimizer to run (default guoq); see\n"
        "                   --list-algorithms for the full registry\n"
        "  --param K=V      algorithm-specific parameter (repeatable);\n"
        "                   keys are validated against the selected\n"
        "                   algorithm's declared parameters\n"
        "  --list-algorithms\n"
        "                   list registered algorithms and their\n"
        "                   parameters, then exit\n"
        "  --gate-set S     ibmq20 | ibm-eagle | ionq | nam | cliffordt\n"
        "                   (default nam)\n"
        "  --objective O    2q-count | t-count | 2t+cx | fidelity |\n"
        "                   gate-count | depth  (default 2q-count)\n"
        "  --epsilon E      total approximation budget eps_f; 0 keeps\n"
        "                   the run exact (default 0)\n"
        "  --time T         wall-clock budget in seconds, per file\n"
        "                   (default 10)\n"
        "  --threads N      portfolio worker threads (default 1)\n"
        "  --seed S         base RNG seed (default 1)\n"
        "  --synth-workers N\n"
        "                   shared asynchronous synthesis workers\n"
        "                   (default 0 = synchronous resynthesis);\n"
        "                   sets the algorithm's synth-workers param\n"
        "  --synth-cache DIR\n"
        "                   persistent content-addressed synthesis\n"
        "                   cache: results load from DIR at startup\n"
        "                   and are saved back at exit, so reruns\n"
        "                   warm-start (format: docs/FORMATS.md)\n"
        "  --iterations K   iteration cap per worker; without an\n"
        "                   explicit --time the cap alone decides where\n"
        "                   the search stops, making runs reproducible\n"
        "                   (default: none, run until --time)\n"
        "  --verify         check the result against the input: replay\n"
        "                   the optimizer's derivation (guoq, one\n"
        "                   thread) and sum its blocks' local HS\n"
        "                   distances; otherwise the exact HS distance\n"
        "                   up to 10 qubits, a sampled estimate with a\n"
        "                   confidence bound above\n"
        "  --verify-method M\n"
        "                   auto | dense | sampling | certificate\n"
        "                   (default auto: certificate when a\n"
        "                   derivation was recorded, else dense or\n"
        "                   sampling by width; implies --verify)\n"
        "  --verify-shots N shots for the sampling estimator\n"
        "                   (default 1024; implies --verify)\n"
        "  --progress       stream best-cost improvements to stderr as\n"
        "                   they happen (single-file mode)\n"
        "  --quiet          suppress the stderr report\n"
        "  -h, --help       show this message\n",
        argv0);
}

bool
parseGateSet(const std::string &name, ir::GateSetKind &out)
{
    for (ir::GateSetKind set : ir::allGateSets())
        if (ir::gateSetName(set) == name) {
            out = set;
            return true;
        }
    return false;
}

bool
parseObjective(const std::string &name, core::Objective &out)
{
    static const core::Objective all[] = {
        core::Objective::TwoQubitCount, core::Objective::TCount,
        core::Objective::TThenTwoQubit, core::Objective::Fidelity,
        core::Objective::GateCount,     core::Objective::Depth,
    };
    for (core::Objective obj : all)
        if (core::objectiveName(obj) == name) {
            out = obj;
            return true;
        }
    return false;
}

/** Usage error: bad flags/values. Exits 2 per the CLI contract. */
[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "guoq_cli: %s\n", msg.c_str());
    std::exit(2);
}

/** Runtime failure (I/O, environment). Exits 1 per the contract. */
[[noreturn]] void
fail(const std::string &msg)
{
    std::fprintf(stderr, "guoq_cli: %s\n", msg.c_str());
    std::exit(1);
}

/** Strict numeric parses: reject trailing garbage instead of
 *  silently reading "abc" as 0 (mirrors support::envDouble). */
double
parseDouble(const std::string &flag, const std::string &v)
{
    char *end = nullptr;
    const double x = std::strtod(v.c_str(), &end);
    if (!end || *end != '\0' || v.empty())
        die(flag + " expects a number, got '" + v + "'");
    return x;
}

long
parseLong(const std::string &flag, const std::string &v)
{
    char *end = nullptr;
    const long x = std::strtol(v.c_str(), &end, 10);
    if (!end || *end != '\0' || v.empty())
        die(flag + " expects an integer, got '" + v + "'");
    return x;
}

std::uint64_t
parseSeed(const std::string &flag, const std::string &v)
{
    char *end = nullptr;
    const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
    // strtoull silently wraps "-3" to 2^64-3; reject the sign upfront.
    if (!end || *end != '\0' || v.empty() || v[0] == '-')
        die(flag + " expects an unsigned integer, got '" + v + "'");
    return static_cast<std::uint64_t>(x);
}

std::string
readAll(std::istream &in)
{
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** Write @p text to stdout and flush it: "" once the bytes reached
 *  the device, else the error (like qasm::writeQasmFile). */
std::string
writeStdout(const std::string &text)
{
    std::fputs(text.c_str(), stdout);
    return std::fflush(stdout) == 0 && !std::ferror(stdout)
               ? ""
               : "cannot write to stdout";
}

/** Everything the flag parser produces. */
struct CliOptions
{
    std::string inPath = "-";
    std::string outPath = "-";
    std::string batchDir;
    std::string outDir;
    std::string summaryPath;
    qasm::Dialect inDialect = qasm::Dialect::Auto;
    qasm::Dialect outDialect = qasm::Dialect::Auto;
    ir::GateSetKind set = ir::GateSetKind::Nam;
    std::string algorithm = "guoq";
    core::ParamMap params;
    core::PortfolioConfig cfg;
    int synthWorkers = 0;
    std::string synthCacheDir;
    int jobs = 1;
    bool serveMode = false;
    std::size_t capacity = 64;
    double deadlineMs = 0;
    bool keepGoing = false;
    bool verify = false;
    std::string verifyMethod = "auto";
    long verifyShots = 1024;
    bool progress = false;
    bool quiet = false;

    /** The registry entry selected by --algorithm; resolved (and
     *  params validated) once in main(). */
    const core::Optimizer *optimizer = nullptr;

    /** The verification backend selected by --verify-method; resolved
     *  once in main() (nullptr when --verify is off). */
    const verify::EquivalenceChecker *checker = nullptr;

    /** The circuit-independent request --algorithm/--param and the
     *  shared flags describe. */
    core::OptimizeRequest
    request() const
    {
        core::OptimizeRequest req;
        req.set = set;
        req.objective = cfg.base.objective;
        req.epsilonTotal = cfg.base.epsilonTotal;
        req.timeBudgetSeconds = cfg.base.timeBudgetSeconds;
        req.maxIterations = cfg.base.maxIterations;
        req.seed = cfg.base.seed;
        req.threads = cfg.threads;
        req.params = params;
        return req;
    }

    /** The verification request the --verify* and shared flags
     *  describe. The 1e-6 tolerance preserves the historical noise
     *  floor of the exact check's over-budget comparison. */
    verify::VerifyRequest
    verifyRequest() const
    {
        verify::VerifyRequest req;
        req.epsilon = cfg.base.epsilonTotal;
        req.tolerance = 1e-6;
        req.shots = verifyShots;
        req.seed = cfg.base.seed;
        req.threads = cfg.threads;
        req.method = verifyMethod;
        return req;
    }
};

/** The pipeline configuration (serve/server.h) these options
 *  describe; both --serve and --batch run on it. */
serve::Config
makeConfig(const CliOptions &opt)
{
    serve::Config cfg;
    cfg.set = opt.set;
    cfg.inDialect = opt.inDialect;
    cfg.outDialect = opt.outDialect;
    cfg.algorithm = opt.algorithm;
    cfg.optimizer = opt.optimizer;
    cfg.base = opt.request();
    cfg.verify = opt.verify;
    cfg.checker = opt.checker;
    cfg.verifyBase = opt.verifyRequest();
    cfg.jobs = opt.jobs;
    cfg.capacity = opt.capacity;
    cfg.deadlineMs = opt.deadlineMs;
    cfg.quiet = opt.quiet;
    return cfg;
}

/** --list-algorithms: the registry, self-described. */
void
listAlgorithms()
{
    for (const core::Optimizer *opt :
         core::OptimizerRegistry::global().all()) {
        const core::OptimizerInfo &info = opt->info();
        std::printf("%-18s %s\n", info.name.c_str(),
                    info.summary.c_str());
        for (const core::ParamSpec &p : info.params)
            std::printf("    --param %s=<%s>  %s (default %s)\n",
                        p.key.c_str(), core::paramKindName(p.kind),
                        p.summary.c_str(), p.defaultValue.c_str());
    }
}

// --- batch mode ------------------------------------------------------

int
runBatch(const CliOptions &opt)
{
    // Normalize away a trailing slash so the default output root is
    // the documented sibling `<DIR>-opt`, not `<DIR>/-opt`.
    fs::path root = fs::path(opt.batchDir).lexically_normal();
    if (!root.has_filename())
        root = root.parent_path();
    std::error_code ec;
    if (!fs::is_directory(root, ec))
        die("--batch: not a directory: " + opt.batchDir);
    const fs::path outRoot = opt.outDir.empty()
                                 ? fs::path(root.string() + "-opt")
                                 : fs::path(opt.outDir);

    if (!opt.quiet)
        std::fprintf(stderr,
                     "guoq_cli: batch from %s -> %s, algorithm %s, "
                     "%d job(s) x %d thread(s), %gs per file\n",
                     root.generic_string().c_str(),
                     outRoot.generic_string().c_str(),
                     opt.algorithm.c_str(), opt.jobs, opt.cfg.threads,
                     opt.cfg.base.timeBudgetSeconds);

    // Streaming pipeline (serve/server.h): the directory walk feeds
    // files into --jobs workers as it discovers them, bounded at
    // --capacity files in flight, instead of load-everything-first.
    const serve::BatchResult result = serve::runBatch(
        root.generic_string(), outRoot.generic_string(),
        makeConfig(opt));
    if (!result.scanOk)
        fail("--batch: cannot scan " + opt.batchDir + ": " +
             result.scanError);
    if (result.entries.empty())
        die("--batch: no .qasm files under " + opt.batchDir);
    const std::vector<serve::BatchFileEntry> &entries = result.entries;

    // Per-file status table (stderr keeps a batch's stdout clean for
    // the optional `--summary -` JSON stream).
    std::size_t failed = 0, skipped = 0;
    if (!opt.quiet) {
        support::TextTable table({"file", "status", "qubits", "gates",
                                  "2q", "verify", "seconds", "detail"});
        for (const serve::BatchFileEntry &e : entries) {
            std::string detail = e.message;
            if (e.line > 0)
                detail = support::strcat(e.line, ":", e.col, ": ",
                                         e.message);
            const bool optimized = serve::isOkShaped(e.status);
            std::string verify_cell;
            if (!e.verify.method.empty())
                verify_cell = support::strcat(
                    e.verify.method, " ",
                    support::fmt(e.verify.distanceEstimate, 3),
                    e.verify.bound > 0
                        ? support::strcat(
                              " +/- ", support::fmt(e.verify.bound, 3))
                        : "");
            table.addRow(
                {e.file, serve::statusName(e.status),
                 optimized ? std::to_string(e.qubits) : "",
                 optimized ? support::strcat(e.gatesBefore, " -> ",
                                             e.gatesAfter)
                           : "",
                 optimized ? support::strcat(e.twoQubitBefore, " -> ",
                                             e.twoQubitAfter)
                           : "",
                 verify_cell, support::fmt(e.seconds, 2), detail});
        }
        std::fputs(table.render().c_str(), stderr);
    }
    for (const serve::BatchFileEntry &e : entries) {
        failed += serve::isOkShaped(e.status) ? 0 : 1;
        skipped += e.status == serve::Status::VerifySkipped ? 1 : 0;
    }
    // A skipped check is survivable but must be loud: the result was
    // written without its --verify guarantee.
    if (skipped > 0)
        std::fprintf(stderr,
                     "guoq_cli: warning: verification skipped on %zu "
                     "file(s); see the per-file messages\n",
                     skipped);

    serve::BatchRunMeta meta;
    meta.inputDir = root.generic_string();
    meta.outputDir = outRoot.generic_string();
    meta.gateSet = ir::gateSetName(opt.set);
    meta.objective = core::objectiveName(opt.cfg.base.objective);
    meta.algorithm = opt.algorithm;
    meta.epsilon = opt.cfg.base.epsilonTotal;
    meta.timeBudgetSeconds = opt.cfg.base.timeBudgetSeconds;
    meta.threads = opt.cfg.threads;
    meta.jobs = opt.jobs;
    meta.seed = opt.cfg.base.seed;
    meta.synthWorkers = opt.synthWorkers;
    meta.synthCacheDir = opt.synthCacheDir;
    if (!opt.quiet && !opt.synthCacheDir.empty()) {
        core::GuoqStats total;
        for (const serve::BatchFileEntry &e : entries)
            total.merge(e.stats);
        std::fprintf(stderr,
                     "guoq_cli: synthesis cache: %ld hit(s), %ld "
                     "miss(es), %ld store(s)\n",
                     total.synthCache.hits, total.synthCache.misses,
                     total.synthCache.stores);
    }
    const std::string json = serve::toBatchJson(meta, entries);
    const std::string summaryPath =
        opt.summaryPath.empty()
            ? (outRoot / "summary.json").generic_string()
            : opt.summaryPath;
    if (summaryPath == "-") {
        if (const std::string err = writeStdout(json); !err.empty())
            fail(err);
    } else {
        fs::create_directories(
            fs::path(summaryPath).parent_path(), ec);
        std::ofstream out(summaryPath);
        if (out) {
            out << json;
            out.close();
        }
        if (!out)
            fail("cannot write summary " + summaryPath);
        if (!opt.quiet)
            std::fprintf(stderr, "guoq_cli: summary -> %s\n",
                         summaryPath.c_str());
    }

    if (!opt.quiet)
        std::fprintf(stderr,
                     "guoq_cli: %zu/%zu file(s) ok, %zu failed, %zu "
                     "verify-skipped\n",
                     entries.size() - failed - skipped, entries.size(),
                     failed, skipped);
    if (failed > 0 && !opt.keepGoing)
        return 1;
    return 0;
}

// --- serve mode ------------------------------------------------------

/** The flag the signal handler flips: the serve run's shutdown
 *  CancelToken atomic (only async-signal-safe atomic stores happen in
 *  the handler). */
std::atomic<std::atomic<bool> *> g_shutdownFlag{nullptr};

void
handleShutdownSignal(int)
{
    if (std::atomic<bool> *flag =
            g_shutdownFlag.load(std::memory_order_relaxed))
        flag->store(true, std::memory_order_relaxed);
}

/** Route SIGTERM/SIGINT into the shutdown token. No SA_RESTART: the
 *  signal must interrupt the reader's blocking stdin read so an idle
 *  server drains and exits instead of waiting for the next frame. */
void
installShutdownHandlers()
{
    struct sigaction sa = {};
    sa.sa_handler = handleShutdownSignal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
}

int
runServe(const CliOptions &opt)
{
    serve::Config cfg = makeConfig(opt);
    cfg.shutdown = core::makeCancelToken();
    g_shutdownFlag.store(cfg.shutdown.get());
    installShutdownHandlers();

    if (!opt.quiet)
        std::fprintf(stderr,
                     "guoq_cli: serving guoq-serve-v1 frames from "
                     "stdin, algorithm %s, %d job(s) x %d thread(s), "
                     "capacity %zu\n",
                     opt.algorithm.c_str(), opt.jobs, opt.cfg.threads,
                     cfg.capacity);

    const serve::ServeStats stats =
        serve::runServe(std::cin, std::cout, cfg);

    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    g_shutdownFlag.store(nullptr);

    if (!opt.quiet)
        std::fprintf(stderr,
                     "guoq_cli: served %zu row(s): %zu ok, %zu frame "
                     "error(s), peak %zu request(s) in flight\n",
                     stats.rows, stats.okRows, stats.frameErrors,
                     stats.peakInFlight);
    if (!stats.outputOk)
        fail("cannot write response rows to stdout");
    return 0;
}

// --- single-file mode ------------------------------------------------

int
runSingle(const CliOptions &opt)
{
    const qasm::ParseResult pr =
        opt.inPath == "-"
            ? qasm::parseSource(readAll(std::cin), opt.inDialect,
                                "<stdin>")
            : qasm::parseSourceFile(opt.inPath, opt.inDialect);
    if (!pr.ok) {
        std::fprintf(stderr, "guoq_cli: %s\n", pr.error.str().c_str());
        return 1;
    }
    const ir::Circuit &input = pr.circuit;
    // Fail fast, before spending the optimization budget, when the
    // selected verification backend cannot handle this input at all
    // (e.g. --verify-method dense past the unitary cap, or any method
    // past the sampling cap). Runtime failure, not a usage error: it
    // depends on the input circuit, and unlike batch mode there is no
    // other file to carry on with.
    // The certificate's precondition, a recorded derivation, only
    // exists after the run. `auto` certifies at any width whenever
    // the run records one, so it is only prechecked when it will not.
    const bool certifies =
        opt.verifyMethod == "certificate" ||
        (opt.verifyMethod == "auto" &&
         opt.optimizer->info().recordsDerivation && opt.cfg.threads == 1);
    if (opt.verify && !certifies) {
        const std::string err = opt.checker->checkRequest(
            input, input, opt.verifyRequest());
        if (!err.empty())
            fail("--verify: " + err);
    }
    if (!opt.quiet)
        std::fprintf(stderr,
                     "guoq_cli: %zu gates (%zu two-qubit) on %d qubits "
                     "(%s), algorithm %s, gate set %s, objective %s, "
                     "eps=%g, %gs x %d thread(s)\n",
                     input.size(), input.twoQubitGateCount(),
                     input.numQubits(),
                     qasm::dialectName(pr.dialect).c_str(),
                     opt.algorithm.c_str(),
                     ir::gateSetName(opt.set).c_str(),
                     core::objectiveName(opt.cfg.base.objective).c_str(),
                     opt.cfg.base.epsilonTotal,
                     opt.cfg.base.timeBudgetSeconds, opt.cfg.threads);

    // The optimize → verify body batch and serve run too.
    serve::Config cfg = makeConfig(opt);
    if (opt.progress)
        cfg.base.hooks.onBest = [](const core::ProgressEvent &ev) {
            const std::string worker =
                ev.worker >= 0 ? support::strcat(", worker ", ev.worker)
                               : "";
            std::fprintf(stderr,
                         "guoq_cli: t=%.3fs best cost %g (%zu gates%s)\n",
                         ev.seconds, ev.cost, ev.gateCount, worker.c_str());
        };
    const serve::Outcome o = serve::processParsed(
        opt.inPath == "-" ? "<stdin>" : opt.inPath, pr, cfg);
    const core::OptimizeReport &result = o.report;

    if (!opt.quiet) {
        std::fprintf(stderr,
                     "guoq_cli: best cost %g, %zu gates "
                     "(%zu two-qubit), error bound %.3g\n",
                     result.cost, result.circuit.size(),
                     result.circuit.twoQubitGateCount(),
                     result.errorBound);
        std::fprintf(stderr,
                     "guoq_cli: %ld iterations total, %ld accepted, "
                     "%ld resynthesis accepts, %.2fs wall\n",
                     result.stats.iterations, result.stats.accepted,
                     result.stats.resynthAccepted, result.stats.seconds);
        if (!opt.synthCacheDir.empty() || opt.synthWorkers > 0)
            std::fprintf(stderr,
                         "guoq_cli: synthesis cache: %ld hit(s), %ld "
                         "miss(es), %ld store(s); pool queue peak %ld\n",
                         result.stats.synthCache.hits,
                         result.stats.synthCache.misses,
                         result.stats.synthCache.stores,
                         result.stats.poolQueuePeak);
        for (const core::PortfolioWorkerReport &w : result.workers)
            std::fprintf(stderr,
                         "guoq_cli:   worker %d: seed %llu, final cost "
                         "%g, %ld iterations\n",
                         w.worker,
                         static_cast<unsigned long long>(w.seed),
                         w.finalCost, w.stats.iterations);
    }

    const verify::VerifyReport &vr = result.verification;
    if (vr.shots > 0)
        std::fprintf(stderr,
                     "guoq_cli: verified (%s): HS distance %.3g "
                     "+/- %.3g at %g%% confidence, %ld shots, "
                     "%.2fs (budget %g): %s\n",
                     vr.method.c_str(), vr.distanceEstimate, vr.bound,
                     vr.confidence * 100, vr.shots, vr.wallSeconds,
                     opt.cfg.base.epsilonTotal,
                     verify::verdictName(vr.verdict));
    else if (!vr.method.empty())
        std::fprintf(stderr,
                     "guoq_cli: verified (%s): HS distance %.3g "
                     "(budget %g): %s\n",
                     vr.method.c_str(), vr.distanceEstimate,
                     opt.cfg.base.epsilonTotal,
                     verify::verdictName(vr.verdict));
    if (o.entry.status == serve::Status::VerifyFailed) {
        std::fprintf(stderr, "guoq_cli: verification FAILED: "
                             "distance exceeds budget\n");
        return 1;
    }
    if (o.entry.status == serve::Status::VerifySkipped)
        std::fprintf(stderr, "guoq_cli: warning: %s\n",
                     o.entry.message.c_str());

    const qasm::Dialect out_d = serve::outputDialect(cfg, pr.dialect);
    const std::string err =
        opt.outPath == "-"
            ? writeStdout(qasm::toQasm(result.circuit, out_d))
            : qasm::writeQasmFile(result.circuit, opt.outPath, out_d);
    if (!err.empty())
        std::fprintf(stderr, "guoq_cli: %s\n", err.c_str());
    return err.empty() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    constexpr double kMaxTimeSeconds = 1e7;
    CliOptions opt;
    opt.cfg.base.epsilonTotal = 0;
    opt.cfg.base.timeBudgetSeconds = 10.0;
    opt.cfg.base.seed = 1;
    bool explicit_time = false;
    bool explicit_in = false;
    bool explicit_out = false;
    bool explicit_capacity = false;
    bool explicit_deadline = false;

    auto value = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            die(std::string(argv[i]) + " expects a value");
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "-h" || arg == "--help") {
            usage(argv[0]);
            return 0;
        } else if (arg == "--in") {
            opt.inPath = value(i);
            explicit_in = true;
        } else if (arg == "--out") {
            opt.outPath = value(i);
            explicit_out = true;
        } else if (arg == "--batch") {
            opt.batchDir = value(i);
        } else if (arg == "--out-dir") {
            opt.outDir = value(i);
        } else if (arg == "--summary") {
            opt.summaryPath = value(i);
        } else if (arg == "--serve") {
            opt.serveMode = true;
        } else if (arg == "--capacity") {
            const long n = parseLong(arg, value(i));
            // The cap exists to bound memory (capacity x payload
            // bytes can be resident); 2^20 is far past any sane
            // pipeline depth but still a guard against typos.
            if (n < 1 || n > (1L << 20))
                die("--capacity must be in [1, 1048576]");
            opt.capacity = static_cast<std::size_t>(n);
            explicit_capacity = true;
        } else if (arg == "--deadline-ms") {
            opt.deadlineMs = parseDouble(arg, value(i));
            if (!(opt.deadlineMs > 0) || opt.deadlineMs > 1e9)
                die("--deadline-ms must be in (0, 1e9]");
            explicit_deadline = true;
        } else if (arg == "--keep-going") {
            opt.keepGoing = true;
        } else if (arg == "--jobs") {
            const long n = parseLong(arg, value(i));
            if (n < 1 || n > 256)
                die("--jobs must be in [1, 256]");
            opt.jobs = static_cast<int>(n);
        } else if (arg == "--dialect") {
            const std::string name = value(i);
            if (!qasm::dialectFromName(name, &opt.inDialect))
                die("unknown dialect '" + name + "'");
        } else if (arg == "--out-dialect") {
            const std::string name = value(i);
            if (!qasm::dialectFromName(name, &opt.outDialect))
                die("unknown dialect '" + name + "'");
        } else if (arg == "--list-algorithms") {
            listAlgorithms();
            return 0;
        } else if (arg == "--algorithm") {
            opt.algorithm = value(i);
        } else if (arg == "--param") {
            const std::string kv = value(i);
            const std::size_t eq = kv.find('=');
            if (eq == std::string::npos || eq == 0)
                die("--param expects KEY=VALUE, got '" + kv + "'");
            opt.params[kv.substr(0, eq)] = kv.substr(eq + 1);
        } else if (arg == "--gate-set") {
            const std::string name = value(i);
            if (!parseGateSet(name, opt.set))
                die("unknown gate set '" + name + "'");
        } else if (arg == "--objective") {
            const std::string name = value(i);
            if (!parseObjective(name, opt.cfg.base.objective))
                die("unknown objective '" + name + "'");
        } else if (arg == "--epsilon") {
            opt.cfg.base.epsilonTotal = parseDouble(arg, value(i));
            // !(>= 0) also rejects NaN, which would otherwise disable
            // every budget comparison in the optimizer.
            if (!(opt.cfg.base.epsilonTotal >= 0) ||
                !std::isfinite(opt.cfg.base.epsilonTotal))
                die("--epsilon must be a finite value >= 0");
        } else if (arg == "--time") {
            opt.cfg.base.timeBudgetSeconds = parseDouble(arg, value(i));
            // The upper bound keeps Deadline's double-to-clock-duration
            // conversion representable; NaN/inf/huge would overflow it
            // into an already-expired deadline (silent 0-iteration run).
            if (!(opt.cfg.base.timeBudgetSeconds > 0) ||
                opt.cfg.base.timeBudgetSeconds > kMaxTimeSeconds)
                die("--time must be in (0, 1e7] seconds");
            explicit_time = true;
        } else if (arg == "--threads") {
            const long n = parseLong(arg, value(i));
            if (n < 1 || n > 1024)
                die("--threads must be in [1, 1024]");
            opt.cfg.threads = static_cast<int>(n);
        } else if (arg == "--seed") {
            opt.cfg.base.seed = parseSeed(arg, value(i));
        } else if (arg == "--synth-workers") {
            const long n = parseLong(arg, value(i));
            if (n < 0 || n > 256)
                die("--synth-workers must be in [0, 256]");
            opt.synthWorkers = static_cast<int>(n);
        } else if (arg == "--synth-cache") {
            opt.synthCacheDir = value(i);
            if (opt.synthCacheDir.empty())
                die("--synth-cache expects a directory");
        } else if (arg == "--iterations") {
            opt.cfg.base.maxIterations = parseLong(arg, value(i));
            // 0 would emit the input unchanged (silent no-op); omit
            // the flag entirely for an unlimited run.
            if (opt.cfg.base.maxIterations < 1)
                die("--iterations must be >= 1");
        } else if (arg == "--verify") {
            opt.verify = true;
        } else if (arg == "--verify-method") {
            opt.verifyMethod = value(i);
            opt.verify = true;
        } else if (arg == "--verify-shots") {
            const long n = parseLong(arg, value(i));
            // The cap bounds the estimator's O(shots) bookkeeping to
            // ~24 MB; at 1e6 shots the Hoeffding half-width is
            // already < 0.01 in overlap, far past any useful bound.
            if (n < 1 || n > 1000000)
                die("--verify-shots must be in [1, 1e6]");
            opt.verifyShots = n;
            opt.verify = true;
        } else if (arg == "--progress") {
            opt.progress = true;
        } else if (arg == "--quiet") {
            opt.quiet = true;
        } else {
            usage(argv[0]);
            die("unknown argument '" + arg + "'");
        }
    }

    const bool batch = !opt.batchDir.empty();
    if (opt.serveMode && batch)
        die("--serve excludes --batch");
    if (opt.serveMode && (explicit_in || explicit_out))
        die("--serve frames requests over stdin/stdout; --in/--out "
            "do not apply");
    if (batch && (explicit_in || explicit_out))
        die("--batch excludes --in/--out (use --out-dir)");
    if (!batch &&
        (!opt.outDir.empty() || !opt.summaryPath.empty() ||
         opt.keepGoing))
        die("--out-dir/--summary/--keep-going require --batch");
    if (!batch && !opt.serveMode && opt.jobs != 1)
        die("--jobs requires --batch or --serve");
    if (!batch && !opt.serveMode &&
        (explicit_capacity || explicit_deadline))
        die("--capacity/--deadline-ms require --batch or --serve");
    if ((batch || opt.serveMode) && opt.progress)
        die("--progress requires single-file mode");

    // Resolve --algorithm against the registry and validate every
    // --param key/value against its declared metadata — a typo must
    // fail loudly here, not be silently ignored by the run.
    const core::OptimizerRegistry &registry =
        core::OptimizerRegistry::global();
    opt.optimizer = registry.find(opt.algorithm);
    if (!opt.optimizer) {
        std::string msg = "unknown algorithm '" + opt.algorithm + "'";
        const std::string guess =
            core::closestName(opt.algorithm, registry.names());
        if (!guess.empty())
            msg += " (did you mean '" + guess + "'?)";
        die(msg + "; see --list-algorithms");
    }
    // --synth-workers maps onto the algorithm's own `synth-workers`
    // parameter when it declares one (the GUOQ family); algorithms
    // without the parameter (exact baselines) simply leave the shared
    // pool idle. An explicit --param synth-workers=N wins.
    if (opt.synthWorkers > 0 &&
        opt.params.find("synth-workers") == opt.params.end()) {
        for (const core::ParamSpec &p : opt.optimizer->info().params)
            if (p.key == "synth-workers") {
                opt.params["synth-workers"] =
                    std::to_string(opt.synthWorkers);
                break;
            }
    }

    // checkRequest covers both the --param metadata and algorithm
    // preconditions (e.g. guoq-resynth without --epsilon), so a
    // misconfigured run is a usage error here instead of a fatal()
    // abort mid-run (which in batch mode would lose the summary).
    const std::string request_err =
        opt.optimizer->checkRequest(opt.request());
    if (!request_err.empty())
        die(request_err);

    // Resolve --verify-method against the checker registry, with the
    // same did-you-mean treatment as --algorithm.
    if (opt.verify) {
        const verify::CheckerRegistry &checkers =
            verify::CheckerRegistry::global();
        opt.checker = checkers.find(opt.verifyMethod);
        if (!opt.checker) {
            std::string msg = "unknown verification method '" +
                              opt.verifyMethod + "'";
            const std::string guess = core::closestName(
                opt.verifyMethod, checkers.names());
            if (!guess.empty())
                msg += " (did you mean '" + guess + "'?)";
            msg += "; methods:";
            for (const std::string &name : checkers.names())
                msg += " " + name;
            die(msg);
        }
    }

    // An iteration cap without an explicit --time means "reproducible
    // run": lift the default 10 s budget so the cap — not machine
    // speed — decides where the search stops.
    if (opt.cfg.base.maxIterations >= 0 && !explicit_time)
        opt.cfg.base.timeBudgetSeconds = kMaxTimeSeconds;

    // Configure the process-wide synthesis service every resynthesis
    // call routes through: the shared worker pool (all jobs and
    // portfolio workers submit to it) and the persistent cache tier.
    synth::SynthService &service = synth::SynthService::global();
    if (opt.synthWorkers > 0)
        service.configurePool(opt.synthWorkers);
    if (!opt.synthCacheDir.empty()) {
        std::error_code cache_ec;
        fs::create_directories(opt.synthCacheDir, cache_ec);
        if (cache_ec)
            fail("--synth-cache: cannot create " + opt.synthCacheDir +
                 ": " + cache_ec.message());
        std::string err;
        if (!service.loadCacheDir(opt.synthCacheDir, &err))
            std::fprintf(stderr, "guoq_cli: warning: %s; starting "
                                 "with an empty cache\n",
                         err.c_str());
        else if (!err.empty())
            std::fprintf(stderr, "guoq_cli: warning: %s\n", err.c_str());
        if (!opt.quiet)
            std::fprintf(stderr,
                         "guoq_cli: synthesis cache: %zu entr%s "
                         "loaded from %s\n",
                         service.cache().size(),
                         service.cache().size() == 1 ? "y" : "ies",
                         opt.synthCacheDir.c_str());
    }

    const int rc = opt.serveMode ? runServe(opt)
                   : batch       ? runBatch(opt)
                                 : runSingle(opt);

    if (!opt.synthCacheDir.empty()) {
        std::string err;
        if (!service.saveCacheDir(opt.synthCacheDir, &err))
            fail("--synth-cache: " + err);
        if (!opt.quiet)
            std::fprintf(stderr,
                         "guoq_cli: synthesis cache: %zu entr%s "
                         "saved to %s\n",
                         service.cache().size(),
                         service.cache().size() == 1 ? "y" : "ies",
                         opt.synthCacheDir.c_str());
    }
    return rc;
}
