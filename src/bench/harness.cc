#include "bench/harness.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <thread>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench/registry.h"
#include "sim/kernels.h"
#include "support/logging.h"
#include "support/options.h"
#include "support/stats.h"
#include "support/table.h"
#include "support/timer.h"

// Baked in by CMakeLists.txt; a build outside it says so.
#ifndef GUOQ_COMPILER
#define GUOQ_COMPILER "unknown"
#endif
#ifndef GUOQ_BUILD_TYPE
#define GUOQ_BUILD_TYPE "unknown"
#endif

namespace guoq {
namespace bench {

namespace {

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
        s = s.c_str(); // the brand string is NUL-padded
        const std::size_t a = s.find_first_not_of(' ');
        return a == std::string::npos ? "unknown" : s.substr(a);
    }
#endif
    return "unknown";
}

} // namespace

MachineInfo
probeMachine()
{
    MachineInfo m;
    m.cpu = cpuModel();
    m.logicalCores = std::thread::hardware_concurrency();
    m.simd = sim::kernels::backendName();
    m.compiler = GUOQ_COMPILER;
    m.buildType = GUOQ_BUILD_TYPE;
    return m;
}

RunOptions
RunOptions::fromEnv()
{
    RunOptions opts;
    opts.scale = support::benchScale();
    opts.trials = support::benchTrials();
    opts.seed = support::benchSeed();
    opts.threads = support::benchThreads();
    return opts;
}

core::OptimizeReport
runGuoqPortfolio(CaseContext &ctx, const GuoqSpec &spec,
                 const ir::Circuit &c, std::uint64_t seed)
{
    core::PortfolioConfig pcfg;
    pcfg.base = spec.cfg;
    pcfg.base.seed = seed;
    pcfg.base.timeBudgetSeconds = ctx.budget(spec.baseBudgetSeconds);
    pcfg.threads = ctx.opts().threads;
    core::OptimizeReport r = core::optimizePortfolio(c, spec.set, pcfg);
    ctx.stashRun(r);
    return r;
}

ir::Circuit
runGuoq(CaseContext &ctx, const GuoqSpec &spec, const ir::Circuit &c,
        std::uint64_t seed)
{
    return runGuoqPortfolio(ctx, spec, c, seed).circuit;
}

Tool
registryTool(CaseContext &ctx, std::string display,
             std::string algorithm, core::OptimizeRequest base)
{
    const core::Optimizer *opt =
        core::OptimizerRegistry::global().find(algorithm);
    if (!opt)
        support::fatal(support::strcat("registryTool: unknown algorithm '",
                                       algorithm, "'"));
    const std::string err = opt->checkRequest(base);
    if (!err.empty())
        support::fatal(support::strcat("registryTool: ", err));
    Tool tool;
    tool.name = std::move(display);
    tool.algorithm = std::move(algorithm);
    tool.run = [&ctx, opt, base = std::move(base)](
                   const ir::Circuit &c, std::uint64_t seed) {
        core::OptimizeRequest req = base;
        req.seed = seed;
        req.threads = ctx.opts().threads;
        core::OptimizeReport report = opt->run(c, req);
        ctx.stashRun(report);
        return std::move(report.circuit);
    };
    return tool;
}

void
runComparison(CaseContext &ctx,
              const std::vector<workloads::Benchmark> &suite,
              const Tool &guoq, const std::vector<Tool> &tools,
              const Comparison &cmp)
{
    const RunOptions &opts = ctx.opts();
    std::vector<std::string> headers{"benchmark", "gates", guoq.name};
    for (const Tool &t : tools)
        headers.push_back(t.name);
    support::TextTable table(std::move(headers));

    std::vector<support::CompareCounts> counts(tools.size());
    double guoq_sum = 0.0;
    std::vector<double> tool_sum(tools.size(), 0.0);

    // Runs one (benchmark, tool) cell: opts.trials runs, one row each,
    // returning the across-trial mean the table and bars summarize.
    auto runCell = [&](const Tool &tool,
                       const workloads::Benchmark &b) -> double {
        double sum = 0.0;
        for (int t = 0; t < opts.trials; ++t) {
            const std::uint64_t seed = opts.trialSeed(t);
            support::Timer timer;
            const ir::Circuit out = tool.run(b.circuit, seed);
            const double seconds = timer.seconds();
            const double m = cmp.metric(b.circuit, out);
            sum += m;
            CaseResult row = ctx.takeRun();
            row.benchmark = b.name;
            row.tool = tool.name;
            row.algorithm = tool.algorithm;
            row.metric = cmp.metricKey;
            row.value = m;
            row.seconds = seconds;
            row.trial = t;
            row.seed = seed;
            ctx.record(std::move(row));
        }
        return sum / static_cast<double>(opts.trials);
    };

    for (const workloads::Benchmark &b : suite) {
        const double guoq_mean = runCell(guoq, b);
        guoq_sum += guoq_mean;
        std::vector<std::string> row{b.name,
                                     std::to_string(b.circuit.size()),
                                     support::fmtPct(guoq_mean)};
        for (std::size_t t = 0; t < tools.size(); ++t) {
            const double m = runCell(tools[t], b);
            tool_sum[t] += m;
            counts[t].add(support::compareMeans(guoq_mean, m, 1e-6));
            row.push_back(support::fmtPct(m));
        }
        table.addRow(std::move(row));
    }

    const double n = static_cast<double>(suite.size());
    auto aggregate = [&](const Tool &tool, const std::string &metric,
                         double value) {
        CaseResult row;
        row.benchmark = "*";
        row.tool = tool.name;
        row.algorithm = tool.algorithm;
        row.metric = metric;
        row.value = value;
        row.seed = opts.seed;
        ctx.record(std::move(row));
    };
    if (n > 0)
        aggregate(guoq, cmp.metricKey + "_avg", guoq_sum / n);
    for (std::size_t t = 0; t < tools.size(); ++t) {
        if (n > 0)
            aggregate(tools[t], cmp.metricKey + "_avg",
                      tool_sum[t] / n);
        aggregate(tools[t], "better", counts[t].better);
        aggregate(tools[t], "match", counts[t].match);
        aggregate(tools[t], "worse", counts[t].worse);
    }

    if (!ctx.pretty())
        return;
    table.print();
    if (suite.empty())
        return; // no bars (and no nan% averages) over zero benchmarks
    std::printf("\n%s, GUOQ vs each tool "
                "(better/match/worse out of %zu):\n",
                cmp.metricName.c_str(), suite.size());
    for (std::size_t t = 0; t < tools.size(); ++t) {
        std::printf("  %-14s %3d / %3d / %3d   "
                    "(avg: guoq %s vs %s)\n",
                    tools[t].name.c_str(), counts[t].better,
                    counts[t].match, counts[t].worse,
                    support::fmtPct(guoq_sum / n).c_str(),
                    support::fmtPct(tool_sum[t] / n).c_str());
    }
    std::printf("\n");
}

int
suiteCap(const RunOptions &opts, int base)
{
    if (opts.scale >= 4)
        return 1 << 20; // full suite
    return base;
}

std::vector<workloads::Benchmark>
benchSuiteFor(ir::GateSetKind set, int cap, std::size_t min_gates)
{
    std::vector<workloads::Benchmark> full = workloads::suiteFor(set);
    std::vector<workloads::Benchmark> sized;
    for (workloads::Benchmark &b : full)
        if (b.circuit.size() >= min_gates)
            sized.push_back(std::move(b));
    std::stable_sort(sized.begin(), sized.end(),
                     [](const workloads::Benchmark &a,
                        const workloads::Benchmark &b) {
                         return a.circuit.size() < b.circuit.size();
                     });
    // Family round-robin so a truncated panel stays diverse; each
    // benchmark is taken at most once.
    std::vector<bool> used(sized.size(), false);
    std::vector<workloads::Benchmark> out;
    bool any = true;
    while (any && static_cast<int>(out.size()) < cap) {
        any = false;
        std::set<std::string> this_round;
        for (std::size_t i = 0;
             i < sized.size() && static_cast<int>(out.size()) < cap;
             ++i) {
            if (used[i] || this_round.count(sized[i].family))
                continue;
            used[i] = true;
            this_round.insert(sized[i].family);
            out.push_back(sized[i]);
            any = true;
        }
    }
    return out;
}

std::vector<CaseResult>
runCases(const std::vector<const BenchCase *> &cases,
         const RunOptions &opts)
{
    std::vector<CaseResult> results;
    for (const BenchCase *c : cases) {
        CaseContext ctx(opts, c->id, results);
        c->fn(ctx);
    }
    return results;
}

} // namespace bench
} // namespace guoq
