/**
 * @file
 * Table 2: the five target gate sets, their native gates, and their
 * architectures — printed from the registry, plus per-set rule-library
 * and error-model summaries to show what each instantiation wires up.
 */

#include <cstdio>

#include "bench/harness.h"
#include "bench/registry.h"
#include "fidelity/error_model.h"
#include "rewrite/rule.h"
#include "support/table.h"

namespace {

using namespace guoq;
using namespace guoq::bench;

void
runTable2(CaseContext &ctx)
{
    if (ctx.pretty())
        std::printf("=== Table 2: gate sets ===\n\n");
    support::TextTable table(
        {"gate set", "gates", "architecture", "rules", "2q err",
         "1q err"});
    for (ir::GateSetKind set : ir::allGateSets()) {
        std::string gates;
        for (ir::GateKind kind : ir::nativeGates(set)) {
            if (!gates.empty())
                gates += ", ";
            gates += ir::gateName(kind);
        }
        const fidelity::ErrorModel &m = fidelity::errorModelFor(set);
        const std::string set_name = ir::gateSetName(set);
        table.addRow({set_name, gates, ir::gateSetArchitecture(set),
                      std::to_string(rewrite::rulesFor(set).size()),
                      support::fmt(m.twoQubitError, 6),
                      support::fmt(m.oneQubitError, 6)});
        auto setRow = [&](const std::string &metric, double value) {
            CaseResult row;
            row.benchmark = set_name;
            row.tool = "gate-set";
            row.metric = metric;
            row.value = value;
            ctx.record(std::move(row));
        };
        setRow("rules",
               static_cast<double>(rewrite::rulesFor(set).size()));
        setRow("two_qubit_error", m.twoQubitError);
        setRow("one_qubit_error", m.oneQubitError);
    }
    if (ctx.pretty())
        table.print();
}

const CaseRegistrar kTable2(
    "table2", "target gate sets, rule libraries, error models", 210,
    runTable2);

} // namespace
