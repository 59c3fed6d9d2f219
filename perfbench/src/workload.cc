#include "workload.h"

#include <sys/resource.h>

#include <cstdio>

#include "core/optimizer.h"
#include "qasm/parser.h"
#include "qasm/printer.h"
#include "rewrite/rule_libraries.h"
#include "verify/checker.h"

namespace perfbench {

using namespace guoq;

namespace {

/** The checker's numeric noise floor (guoq_cli --verify uses 1e-6). */
constexpr double kVerifyTolerance = 1e-6;

/** Layers whose self time the traced run reports. */
const char *const kSelfTimeLayers[] = {"core", "verify", "serve"};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "exact_rewrite", "approx_resynth", "serve_stream"};
    return names;
}

RunOutput
runWorkload(const Options &opt, Tracer &tracer)
{
    if (opt.workload == "exact_rewrite")
        return runPanel(opt, /*approx=*/false, tracer);
    if (opt.workload == "approx_resynth")
        return runPanel(opt, /*approx=*/true, tracer);
    return runServeStream(opt, tracer);
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::string
fingerprint(const std::vector<ir::Circuit> &circuits)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const ir::Circuit &c : circuits) {
        for (const char ch : qasm::toQasm(c)) {
            h ^= static_cast<unsigned char>(ch);
            h *= 0x100000001b3ull;
        }
    }
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
checkOutput(const ir::Circuit &in, const ir::Circuit &out, double eps,
            double errorBound, std::uint64_t seed)
{
    if (!(errorBound <= eps))
        return "error bound " + std::to_string(errorBound) +
               " exceeds epsilon " + std::to_string(eps);

    const verify::EquivalenceChecker *checker =
        verify::CheckerRegistry::global().find("auto");
    verify::VerifyRequest req;
    req.epsilon = eps;
    req.tolerance = kVerifyTolerance;
    req.shots = kSamplingShots;
    req.seed = seed;
    req.threads = 1;
    const std::string refused = checker->checkRequest(in, out, req);
    if (!refused.empty())
        return "verification refused: " + refused;
    const verify::VerifyReport vr = checker->run(in, out, req);
    if (vr.verdict != verify::Verdict::Equivalent)
        return vr.method + " verification: distance " +
               std::to_string(vr.distanceEstimate) + " exceeds " +
               std::to_string(eps);

    const qasm::ParseResult pr = qasm::parseSource(qasm::toQasm(out));
    if (!pr.ok)
        return "output does not re-parse: " + pr.error.str();
    if (pr.circuit.numQubits() != out.numQubits() ||
        pr.circuit.size() != out.size())
        return "re-parsed output differs from the output";
    return "";
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
buildRegistries(ir::GateSetKind set)
{
    core::OptimizerRegistry optimizers;
    core::registerGuoqOptimizers(optimizers);
    core::registerBaselineOptimizers(optimizers);
    verify::CheckerRegistry checkers;
    verify::registerDenseChecker(checkers);
    verify::registerSamplingChecker(checkers);
    verify::registerAutoChecker(checkers);

    std::vector<rewrite::RewriteRule> rules;
    switch (set) {
      case ir::GateSetKind::Nam: rules = rewrite::buildNamRules(); break;
      case ir::GateSetKind::Ibmq20: rules = rewrite::buildIbmq20Rules(); break;
      default: break;
    }

    (void)core::OptimizerRegistry::global();
    (void)verify::CheckerRegistry::global();
    (void)rewrite::rulesFor(set);
}

void
addCoreMetrics(const CoreTotals &t, Report &report)
{
    const auto ratio = [](long a, long b) {
        return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
    };
    report.add("core.iterations", static_cast<double>(t.iterations),
               "count");
    report.add("core.noop_ratio", ratio(t.noops, t.iterations), "ratio");
    report.add("core.accept_ratio", ratio(t.accepted, t.iterations),
               "ratio");
    report.add("core.resynth_calls", static_cast<double>(t.resynthCalls),
               "count");
    report.add("core.resynth_accept_ratio",
               ratio(t.resynthAccepted, t.resynthCalls), "ratio");
}

void
addServeMetricsAbsent(Report &report)
{
    for (const char *name :
         {"serve.parse_share", "serve.optimize_share", "serve.verify_share",
          "serve.emit_share", "synth.cache_hit_ratio"})
        report.add(name, 0, "ratio");
    for (const char *name : {"serve.service_ms_p50", "serve.wait_ms_p50",
                             "serve.gen_lag_ms_max"})
        report.add(name, 0, "ms");
    report.add("serve.peak_in_flight", 0, "count");
    report.add("serve.latency_samples", 0, "count");
}

void
addTraceMetrics(const Tracer &tracer, double tracedSeconds,
                double untracedSeconds, Report &report)
{
    const std::map<std::string, double> self = tracer.selfSeconds();
    for (const char *layer : kSelfTimeLayers) {
        const auto it = self.find(layer);
        report.add(std::string(layer) + ".self_ms",
                   it == self.end() ? 0.0 : it->second * 1e3, "ms");
    }
    report.add("trace.overhead_pct",
               untracedSeconds > 0
                   ? 100.0 * (tracedSeconds - untracedSeconds) /
                         untracedSeconds
                   : 0.0,
               "%");
}

} // namespace perfbench
