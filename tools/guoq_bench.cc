/**
 * @file
 * Unified benchmark runner: one process regenerates any subset of the
 * paper's figure/table cases through the portfolio-backed harness and
 * emits machine-readable results.
 *
 *   guoq_bench --list
 *   guoq_bench --filter fig7 --scale 0.05 --trials 1 --out out.json
 *   guoq_bench --filter fig1 --filter table2 \
 *              --threads 4 --out bench.json --out bench.csv
 *
 * Defaults come from GUOQ_BENCH_{SCALE,TRIALS,SEED,THREADS}; flags
 * override. `--out` emits JSON (or CSV for *.csv paths); the pretty
 * paper-style tables still go to stdout unless --quiet.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench/emit.h"
#include "bench/harness.h"
#include "bench/registry.h"
#include "support/timer.h"

namespace {

using namespace guoq;

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "\n"
        "Run the paper's benchmark cases through the portfolio-backed\n"
        "harness and emit structured results.\n"
        "\n"
        "options:\n"
        "  --list           list the registered cases and exit\n"
        "  --filter STR     run only matching cases: exact id or\n"
        "                   leading path component ('fig12' selects\n"
        "                   fig12/t and fig12/2q but not fig1);\n"
        "                   substring fallback when neither matches\n"
        "                   (repeatable; default: every case)\n"
        "  --scale X        multiply every search budget (default\n"
        "                   GUOQ_BENCH_SCALE or 1.0)\n"
        "  --trials N       trials per experiment cell (default\n"
        "                   GUOQ_BENCH_TRIALS or 1)\n"
        "  --seed S         base RNG seed; trial t uses S + t (default\n"
        "                   GUOQ_BENCH_SEED or 12345)\n"
        "  --threads N      portfolio workers per GUOQ invocation\n"
        "                   (default GUOQ_BENCH_THREADS or 1; 1 is\n"
        "                   bit-for-bit the serial optimizer)\n"
        "  --out FILE       write results to FILE: *.csv emits CSV,\n"
        "                   anything else JSON (repeatable; '-' writes\n"
        "                   JSON to stdout and implies --quiet)\n"
        "  --quiet          suppress the pretty tables on stdout\n"
        "  -h, --help       show this message\n",
        argv0);
}

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "guoq_bench: %s\n", msg.c_str());
    std::exit(2);
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

} // namespace

int
main(int argc, char **argv)
{
    bench::RunOptions opts = bench::RunOptions::fromEnv();
    std::vector<std::string> filters;
    std::vector<std::string> outs;
    bool list = false;
    bool quiet = false;

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
        } else if (arg == "--list") {
            list = true;
        } else if (arg == "--filter") {
            filters.push_back(value(i));
        } else if (arg == "--scale") {
            opts.scale = parseDouble(arg, value(i));
            // Same clamp rationale as GUOQ_BENCH_SCALE: a zero scale
            // would zero every search budget and silently report 0%.
            if (!(opts.scale >= 1e-3) || opts.scale > 1e6)
                die("--scale must be in [1e-3, 1e6]");
        } else if (arg == "--trials") {
            const long n = parseLong(arg, value(i));
            if (n < 1 || n > 1000)
                die("--trials must be in [1, 1000]");
            opts.trials = static_cast<int>(n);
        } else if (arg == "--seed") {
            opts.seed = parseSeed(arg, value(i));
        } else if (arg == "--threads") {
            const long n = parseLong(arg, value(i));
            if (n < 1 || n > 1024)
                die("--threads must be in [1, 1024]");
            opts.threads = static_cast<int>(n);
        } else if (arg == "--out") {
            outs.push_back(value(i));
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            usage(argv[0]);
            die("unknown argument '" + arg + "'");
        }
    }

    const std::vector<const bench::BenchCase *> cases =
        bench::Registry::instance().matching(filters);

    if (list) {
        for (const bench::BenchCase *c : cases)
            std::printf("%-22s %s\n", c->id.c_str(), c->title.c_str());
        return 0;
    }
    if (cases.empty())
        die("no cases match the given --filter(s); "
            "try --list to see what is registered");

    for (const std::string &out : outs)
        if (out == "-")
            quiet = true; // keep the stdout JSON stream parseable
    opts.pretty = !quiet;

    support::Timer timer;
    const std::vector<bench::CaseResult> results =
        bench::runCases(cases, opts);

    bench::RunMeta meta;
    meta.scale = opts.scale;
    meta.trials = opts.trials;
    meta.seed = opts.seed;
    meta.threads = opts.threads;
    for (const bench::BenchCase *c : cases)
        meta.cases.push_back(c->id);
    meta.machine = bench::probeMachine();

    for (const std::string &out : outs) {
        const bool csv =
            out.size() >= 4 && out.compare(out.size() - 4, 4, ".csv") == 0;
        const std::string payload = csv ? bench::toCsv(results)
                                        : bench::toJson(meta, results);
        if (out == "-") {
            std::fputs(payload.c_str(), stdout);
            continue;
        }
        std::ofstream file(out, std::ios::binary);
        if (!file)
            die("cannot open '" + out + "' for writing");
        file << payload;
        // Flush before checking: a buffered write failure (full disk)
        // only surfaces once the stream drains.
        file.close();
        if (!file.good())
            die("short write to '" + out + "'");
    }

    std::fprintf(stderr,
                 "guoq_bench: %zu case(s), %zu result row(s), %.1fs "
                 "wall (scale %g, %d trial(s), seed %llu, %d "
                 "thread(s))\n",
                 cases.size(), results.size(), timer.seconds(),
                 opts.scale, opts.trials,
                 static_cast<unsigned long long>(opts.seed),
                 opts.threads);
    return 0;
}
