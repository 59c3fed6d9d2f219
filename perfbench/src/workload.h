/**
 * @file
 * The three benchmark workloads and what they share. Each workload
 * builds its inputs from the run's seed, measures with tracing off
 * (end-to-end metrics) or on (per-layer metrics), checks every output,
 * and fills one Report. See perfbench/README.md for the metric
 * definitions and why each workload exists.
 */

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ir/circuit.h"
#include "ir/gate_set.h"
#include "report.h"
#include "trace.h"

namespace perfbench {

/** Command-line settings of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10; //!< measuring time the run aims for
    bool trace = false;  //!< per-layer run instead of end-to-end
    bool tiny = false;   //!< smoke-test sizes (the unit tests use them)
};

/** What a run prints: the report plus informational key/value lines
 *  (fingerprints, sample counts) that precede the result line. */
struct RunOutput
{
    Report report;
    std::vector<std::pair<std::string, std::string>> info;
};

/** "exact_rewrite", "approx_resynth", "serve_stream". */
const std::vector<std::string> &workloadNames();

/** Run one workload. @p tracer records spans when enabled. */
RunOutput runWorkload(const Options &opt, Tracer &tracer);

// --- shared by the workload implementations -------------------------

/** Shots of every sampling check (outputs wider than 10 qubits). */
constexpr long kSamplingShots = 32;

/** A 64-bit mix of @p seed and @p salt (splitmix64 finalizer). */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt);

/** FNV-1a over the QASM text of @p circuits, as 16 hex digits. */
std::string fingerprint(const std::vector<guoq::ir::Circuit> &circuits);

/**
 * The benchmark's correctness check of one optimization: @p out must
 * verify against @p in (dense up to 10 qubits, sampling above) within
 * @p eps, @p errorBound must not exceed @p eps, and @p out must survive
 * print → qasm::parseSource. Returns "" when all hold, else the reason.
 */
std::string checkOutput(const guoq::ir::Circuit &in,
                        const guoq::ir::Circuit &out, double eps,
                        double errorBound, std::uint64_t seed);

/** ru_maxrss of this process, in MiB. */
double peakRssMib();

/**
 * Warm the process-wide state a workload uses on @p set: fresh
 * optimizer and checker registries and the gate set's rule library are
 * built, and the global ones are touched so their lazy set-up happens
 * here rather than inside a timed loop.
 */
void buildRegistries(guoq::ir::GateSetKind set);

/** The workload's own inputs, replayed by the per-layer probes. */
struct LayerInputs
{
    guoq::ir::GateSetKind set = guoq::ir::GateSetKind::Nam;
    std::vector<guoq::ir::Circuit> circuits; //!< lowered to `set`
};

/**
 * Add every probe-measured per-layer metric (rewrite engine attempts,
 * DAG, convex subcircuits, resynthesis, instantiation gradient, linalg,
 * sim, cache hit, qasm, verify, transpile) over @p in.
 */
void addLayerProbes(const LayerInputs &in, const Options &opt,
                    Report &report, RunOutput &out, Tracer &tracer);

/** GuoqStats-derived per-layer metrics, summed over a workload. */
struct CoreTotals
{
    long iterations = 0;
    long noops = 0;
    long accepted = 0;
    long resynthCalls = 0;
    long resynthAccepted = 0;
};

void addCoreMetrics(const CoreTotals &t, Report &report);

/** Per-layer metrics that only the serve workload exercises, at 0 for
 *  the panel workloads so every traced run reports the same names. */
void addServeMetricsAbsent(Report &report);

/** The trace-derived metrics: self time per layer, tracing overhead. */
void addTraceMetrics(const Tracer &tracer, double tracedSeconds,
                     double untracedSeconds, Report &report);

RunOutput runPanel(const Options &opt, bool approx, Tracer &tracer);
RunOutput runServeStream(const Options &opt, Tracer &tracer);

} // namespace perfbench
