/**
 * @file
 * Fig. 15 (Appendix B): the benchmark suite's total gate counts per
 * gate set as a log-bucket histogram, plus per-family counts — the
 * suite composition summary.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "bench/harness.h"
#include "bench/registry.h"

namespace {

using namespace guoq;
using namespace guoq::bench;

void
runFig15(CaseContext &ctx)
{
    if (ctx.pretty())
        std::printf("=== Fig. 15: suite total gate counts per gate set "
                    "(log-scale buckets) ===\n\n");

    for (ir::GateSetKind set : ir::allGateSets()) {
        const auto suite = workloads::suiteFor(set);
        // Buckets: [10^k, 10^(k+0.5)).
        std::map<int, int> hist;
        std::size_t min_q = 1u << 20, max_q = 0;
        for (const auto &b : suite) {
            const double lg =
                std::log10(static_cast<double>(b.circuit.size()));
            ++hist[static_cast<int>(std::floor(lg * 2))];
            min_q = std::min(min_q,
                             static_cast<std::size_t>(
                                 b.circuit.numQubits()));
            max_q = std::max(max_q,
                             static_cast<std::size_t>(
                                 b.circuit.numQubits()));
        }
        const std::string set_name = ir::gateSetName(set);
        auto suiteRow = [&](const std::string &metric, double value) {
            CaseResult row;
            row.benchmark = set_name;
            row.tool = "suite";
            row.metric = metric;
            row.value = value;
            ctx.record(std::move(row));
        };
        suiteRow("circuits", static_cast<double>(suite.size()));
        suiteRow("min_qubits", static_cast<double>(min_q));
        suiteRow("max_qubits", static_cast<double>(max_q));
        for (const auto &[bucket, count] : hist)
            suiteRow("bucket_" + std::to_string(bucket),
                     static_cast<double>(count));

        if (!ctx.pretty())
            continue;
        std::printf("%-11s (%zu circuits, %zu-%zu qubits)\n",
                    set_name.c_str(), suite.size(), min_q, max_q);
        for (const auto &[bucket, count] : hist) {
            const double lo = std::pow(10.0, bucket / 2.0);
            std::printf("  >= %6.0f gates: ", lo);
            for (int i = 0; i < count; ++i)
                std::printf("#");
            std::printf(" (%d)\n", count);
        }
        std::printf("\n");
    }

    if (ctx.pretty())
        std::printf("per-family composition of the generic suite:\n");
    std::map<std::string, int> families;
    for (const auto &b : workloads::standardSuite())
        ++families[b.family];
    for (const auto &[family, count] : families) {
        CaseResult row;
        row.benchmark = family;
        row.tool = "suite";
        row.metric = "family_count";
        row.value = count;
        ctx.record(std::move(row));
        if (ctx.pretty())
            std::printf("  %-12s %d\n", family.c_str(), count);
    }
}

const CaseRegistrar kFig15(
    "fig15", "benchmark suite composition per gate set", 150, runFig15);

} // namespace
