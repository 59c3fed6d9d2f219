/**
 * @file
 * The unified benchmark harness behind every per-figure case: run
 * options, structured per-row results, and the shared runners.
 *
 * Every GUOQ invocation goes through core::optimizePortfolio
 * (threads/seed/trials/budget scale come from GUOQ_BENCH_* env vars or
 * the guoq_bench flags), and cases record flat (case, benchmark, tool,
 * metric, value) rows that emit.h serializes to JSON/CSV.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/optimizer.h"
#include "core/portfolio.h"
#include "ir/circuit.h"
#include "ir/gate_set.h"
#include "workloads/suite.h"

namespace guoq {
namespace bench {

/** Options for one runner invocation (env defaults, flag overrides). */
struct RunOptions
{
    double scale = 1.0;        //!< multiplies every search budget
    int trials = 1;            //!< repetitions per experiment cell
    std::uint64_t seed = 12345; //!< base seed; trial t uses seed + t
    int threads = 1;           //!< portfolio workers per GUOQ call
    bool pretty = true;        //!< print the paper-style tables

    /** Defaults from GUOQ_BENCH_{SCALE,TRIALS,SEED,THREADS}. */
    static RunOptions fromEnv();

    /** A per-run budget: @p base seconds scaled by `scale`. */
    double
    budget(double base) const
    {
        return base * scale;
    }

    /** The seed for trial @p trial of any experiment cell. */
    std::uint64_t
    trialSeed(int trial) const
    {
        return seed + static_cast<std::uint64_t>(trial);
    }
};

/** The machine a run executed on (the bench artifact's provenance). */
struct MachineInfo
{
    std::string cpu = "unknown"; //!< CPU brand string
    unsigned logicalCores = 0;   //!< hardware threads the OS reports
    std::string simd = "unknown"; //!< sim::kernels dispatch backend
    std::string compiler = "unknown"; //!< "<compiler id> <version>"
    std::string buildType = "unknown"; //!< CMAKE_BUILD_TYPE
};

/**
 * Probe this process's machine: CPU brand via cpuid, logical cores,
 * the SIMD backend the statevector kernels dispatch to, and the
 * compiler and build type baked in at build time. The same probes as
 * perfbench's meta line.
 */
MachineInfo probeMachine();

/** One structured result row, the unit the emitters serialize. */
struct CaseResult
{
    std::string caseId;    //!< e.g. "fig1" (stamped by CaseContext)
    std::string benchmark; //!< circuit name, or "*" for aggregates
    std::string tool;      //!< "guoq", "qiskit", a knob label, ...
    /** Registry name of the core::Optimizer that produced the row
     *  ("guoq", "beam", ...; "+"-joined for phased composites). Empty
     *  for rows from cases not yet routed through the registry. */
    std::string algorithm;
    std::string metric;    //!< e.g. "2q_reduction", "final_2q"
    double value = 0;
    double seconds = 0;    //!< wall seconds of the producing run
    int trial = 0;
    std::uint64_t seed = 0;
    /** Per-worker wall seconds when the row came from a multi-thread
     *  portfolio run (empty otherwise). */
    std::vector<double> workerSeconds;
    /** Counters of the producing run(s), merged; the rows carry its
     *  synthesis-cache traffic (all zero when the run did no
     *  service-routed resynthesis). */
    core::GuoqStats stats;
};

/**
 * Per-case recorder handed to every registered case: stamps rows with
 * the case id and carries the run options. Also ferries each run's
 * report from runGuoq() or a registryTool() to whichever helper
 * records the row for it: each run appends its per-worker timings and
 * merges its stats (so a tool built from several GUOQ phases, like
 * fig11's sequential halves, reports all of them), and takeRun()
 * clears the stash so a run can never attach to a later row.
 */
class CaseContext
{
  public:
    CaseContext(const RunOptions &opts, std::string case_id,
                std::vector<CaseResult> &sink)
        : opts_(opts), caseId_(std::move(case_id)), sink_(sink)
    {
    }

    const RunOptions &opts() const { return opts_; }
    bool pretty() const { return opts_.pretty; }
    double budget(double base) const { return opts_.budget(base); }

    /** Record one row (fills in the case id). */
    void
    record(CaseResult r)
    {
        r.caseId = caseId_;
        sink_.push_back(std::move(r));
    }

    /**
     * Stash one run for the next recorded row: its per-worker wall
     * timings (multi-thread portfolio runs only) and its stats.
     */
    void
    stashRun(const core::OptimizeReport &report)
    {
        if (report.workers.size() > 1)
            for (const core::PortfolioWorkerReport &w : report.workers)
                run_.workerSeconds.push_back(w.wallSeconds);
        run_.stats.merge(report.stats);
    }

    /** Take (and clear) the stash: a row holding only the stashed
     *  worker timings and stats. */
    CaseResult
    takeRun()
    {
        CaseResult out = std::move(run_);
        run_ = CaseResult{};
        return out;
    }

  private:
    const RunOptions &opts_;
    std::string caseId_;
    std::vector<CaseResult> &sink_;
    CaseResult run_;
};

/** A registered case body. */
using CaseFn = std::function<void(CaseContext &)>;

/**
 * 1 - after/before, the paper's gate-reduction metric. A before == 0
 * baseline has nothing to reduce: growth from it is reported as a
 * negative signed value (minus the gates added) rather than the silent
 * 0 the old harness returned, so a tool that adds gates to an empty
 * baseline can no longer score as break-even.
 */
inline double
reduction(std::size_t before, std::size_t after)
{
    if (before == 0)
        return after == 0 ? 0.0 : -static_cast<double>(after);
    return 1.0 -
           static_cast<double>(after) / static_cast<double>(before);
}

/**
 * One GUOQ configuration a case runs per (circuit, seed) cell. The
 * seed and wall-clock budget of `cfg` are overwritten per invocation:
 * the budget is baseBudgetSeconds scaled by RunOptions::scale.
 */
struct GuoqSpec
{
    ir::GateSetKind set = ir::GateSetKind::Nam;
    core::GuoqConfig cfg;
    double baseBudgetSeconds = 3.0;
};

/**
 * Route one GUOQ invocation through core::optimizePortfolio with the
 * context's thread count, and stash the run for the next recorded
 * row. threads == 1 reproduces core::optimize() bit-for-bit, so
 * legacy printed numbers are preserved by default.
 */
core::OptimizeReport runGuoqPortfolio(CaseContext &ctx,
                                      const GuoqSpec &spec,
                                      const ir::Circuit &c,
                                      std::uint64_t seed);

/** runGuoqPortfolio, keeping only the best circuit. */
ir::Circuit runGuoq(CaseContext &ctx, const GuoqSpec &spec,
                    const ir::Circuit &c, std::uint64_t seed);

/** A tool entry: name plus a circuit optimizer closure. */
struct Tool
{
    using RunFn =
        std::function<ir::Circuit(const ir::Circuit &, std::uint64_t)>;

    Tool() = default;
    /** Legacy {name, run} spellings keep working; rows of a tool
     *  constructed without an algorithm stay untagged. */
    Tool(std::string name_, RunFn run_, std::string algorithm_ = "")
        : name(std::move(name_)), run(std::move(run_)),
          algorithm(std::move(algorithm_))
    {
    }

    std::string name; //!< display/row label, e.g. "queso"
    RunFn run;
    /** Producing algorithm recorded on the tool's rows (see
     *  CaseResult::algorithm). */
    std::string algorithm;
};

/**
 * A Tool dispatching through core::OptimizerRegistry::global():
 * per invocation @p base gets the cell's seed and the context's
 * thread count, the named optimizer runs it, and any per-worker wall
 * timings are stashed on @p ctx for the recorded row (exactly like
 * runGuoqPortfolio). Fatal when @p algorithm is not registered or
 * @p base fails the optimizer's checkRequest validation.
 */
Tool registryTool(CaseContext &ctx, std::string display,
                  std::string algorithm, core::OptimizeRequest base);

/** The metric of a head-to-head comparison. */
struct Comparison
{
    std::string metricName; //!< display name, e.g. "2q gate reduction"
    std::string metricKey;  //!< row key, e.g. "2q_reduction"
    std::function<double(const ir::Circuit &before,
                         const ir::Circuit &after)>
        metric;
};

/**
 * Head-to-head comparison on a suite: runs @p guoq and each tool on
 * every benchmark for opts().trials trials, records one row per
 * (benchmark, tool, trial) plus per-tool better/match/worse and
 * average aggregates, and (pretty mode) prints the per-benchmark table
 * and the paper-style bars. Table cells show the across-trial mean.
 */
void runComparison(CaseContext &ctx,
                   const std::vector<workloads::Benchmark> &suite,
                   const Tool &guoq, const std::vector<Tool> &tools,
                   const Comparison &cmp);

/** Suite size used by the harnesses (full suite when scale >= 4). */
int suiteCap(const RunOptions &opts, int base);

/**
 * The harness suite: suiteFor(@p set) filtered to circuits with
 * enough gates to have optimization slack (tiny GHZ-scale circuits
 * only produce ties), family-diverse, capped at @p cap entries.
 */
std::vector<workloads::Benchmark>
benchSuiteFor(ir::GateSetKind set, int cap, std::size_t min_gates = 30);

struct BenchCase;

/** Run @p cases in order under @p opts; returns all recorded rows. */
std::vector<CaseResult> runCases(const std::vector<const BenchCase *> &cases,
                                 const RunOptions &opts);

} // namespace bench
} // namespace guoq
