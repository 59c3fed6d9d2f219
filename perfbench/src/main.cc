/**
 * @file
 * The perfbench binary:
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--commit <sha>] [--trace-out <file>] [--tiny]
 *
 * Prints one `{"perfbench_meta": ...}` line (machine, build, commit,
 * seed, fingerprints, sample counts, failures) and then, as the last
 * line, the result object. Exits 0 when every output checked correct,
 * 1 when one did not, 2 on a usage error (without a result line).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "report.h"
#include "sim/kernels.h"
#include "workload.h"

namespace {

using namespace perfbench;

int
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> [--commit <sha>] "
                 "[--trace-out <file>] [--tiny]\n",
                 why.c_str());
    return 2;
}

/** The CPU brand string via cpuid (no file reads), or "unknown". */
std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned int regs[12] = {};
    if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
        for (unsigned int i = 0; i < 3; ++i)
            __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        std::string s(reinterpret_cast<const char *>(regs), sizeof regs);
        s = s.c_str();
        const std::size_t a = s.find_first_not_of(' ');
        return a == std::string::npos ? "unknown" : s.substr(a);
    }
#endif
    return "unknown";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::string commit = "unknown", traceOut;
    bool haveWorkload = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        if (arg == "--tiny") {
            opt.tiny = true;
            continue;
        }
        if (!hasValue)
            return usage("missing value for " + arg);
        const std::string v = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opt.workload = v;
            haveWorkload = true;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0')
                return usage("--seed expects an unsigned integer");
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(opt.seconds > 0) ||
                opt.seconds > 3600)
                return usage("--seconds expects a value in (0, 3600]");
        } else if (arg == "--trace") {
            if (v != "0" && v != "1")
                return usage("--trace expects 0 or 1");
            opt.trace = v == "1";
            haveTrace = true;
        } else if (arg == "--commit") {
            commit = v;
        } else if (arg == "--trace-out") {
            traceOut = v;
        } else {
            return usage("unknown argument " + arg);
        }
    }
    if (!haveWorkload || !haveTrace)
        return usage("--workload and --trace are required");
    bool known = false;
    for (const std::string &w : workloadNames())
        known = known || w == opt.workload;
    if (!known)
        return usage("unknown workload '" + opt.workload + "'");

    Tracer tracer(opt.trace);
    const RunOutput out = runWorkload(opt, tracer);
    if (opt.trace && !traceOut.empty() && !tracer.write(traceOut))
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     traceOut.c_str());

    std::string meta = "{\"perfbench_meta\": {";
    const auto field = [&meta](const std::string &k, const std::string &v) {
        meta += (meta.back() == '{' ? "" : ", ") + jsonQuote(k) + ": " +
                jsonQuote(v);
    };
    field("workload", opt.workload);
    field("seed", std::to_string(opt.seed));
    field("seconds", jsonNumber(opt.seconds));
    field("trace", opt.trace ? "1" : "0");
    field("cpu", cpuModel());
    field("nproc", std::to_string(std::thread::hardware_concurrency()));
    field("simd", guoq::sim::kernels::backendName());
    field("compiler", PERFBENCH_COMPILER);
    field("build_type", PERFBENCH_BUILD_TYPE);
    field("commit", commit);
    std::vector<std::pair<std::string, std::string>> info;
    for (const auto &[k, v] : out.info) {
        auto it = std::find_if(info.begin(), info.end(),
                               [&k](const auto &e) { return e.first == k; });
        if (it == info.end())
            info.emplace_back(k, v);
        else
            it->second += "; " + v;
    }
    for (const auto &[k, v] : info)
        field(k, v);
    meta += "}}";
    std::printf("%s\n", meta.c_str());

    std::string err;
    const std::string result = resultJson(out.report, &err);
    if (result.empty()) {
        std::fprintf(stderr, "perfbench: %s\n", err.c_str());
        return 2;
    }
    std::printf("%s\n", result.c_str());
    return out.report.correct ? 0 : 1;
}
