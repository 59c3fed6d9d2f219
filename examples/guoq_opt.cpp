/**
 * @file
 * guoq-opt: the command-line optimizer — read an OpenQASM 2.0 file,
 * lower it to a target gate set, optimize with GUOQ, and write the
 * optimized OpenQASM to stdout (statistics go to stderr).
 *
 * Usage:
 *   guoq_opt FILE.qasm [--set ibmq20|ibm-eagle|ionq|nam|cliffordt]
 *            [--objective 2q|t|2t+cx|fidelity|gates|depth]
 *            [--eps EPS] [--seconds S] [--seed N] [--async]
 *            [--rewrite-only|--resynth-only]
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/guoq.h"
#include "qasm/parser.h"
#include "qasm/printer.h"
#include "support/logging.h"
#include "transpile/to_gate_set.h"

namespace {

using namespace guoq;

ir::GateSetKind
parseSet(const std::string &name)
{
    for (ir::GateSetKind set : ir::allGateSets())
        if (ir::gateSetName(set) == name)
            return set;
    if (name == "ibm-eagle" || name == "eagle")
        return ir::GateSetKind::IbmEagle;
    if (name == "clifford+t")
        return ir::GateSetKind::CliffordT;
    support::fatal("unknown gate set '" + name +
                   "' (ibmq20, ibm-eagle, ionq, nam, cliffordt)");
}

core::Objective
parseObjective(const std::string &name)
{
    if (name == "2q")
        return core::Objective::TwoQubitCount;
    if (name == "t")
        return core::Objective::TCount;
    if (name == "2t+cx")
        return core::Objective::TThenTwoQubit;
    if (name == "fidelity")
        return core::Objective::Fidelity;
    if (name == "gates")
        return core::Objective::GateCount;
    if (name == "depth")
        return core::Objective::Depth;
    support::fatal("unknown objective '" + name +
                   "' (2q, t, 2t+cx, fidelity, gates, depth)");
}

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: guoq_opt FILE.qasm [--set NAME] [--objective OBJ]\n"
        "                [--eps EPS] [--seconds S] [--seed N] "
        "[--async]\n"
        "                [--rewrite-only|--resynth-only]\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();

    std::string file;
    ir::GateSetKind set = ir::GateSetKind::IbmEagle;
    core::GuoqConfig cfg;
    cfg.epsilonTotal = 1e-5;
    cfg.timeBudgetSeconds = 10.0;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--set")
            set = parseSet(next());
        else if (arg == "--objective")
            cfg.objective = parseObjective(next());
        else if (arg == "--eps")
            cfg.epsilonTotal = std::atof(next().c_str());
        else if (arg == "--seconds")
            cfg.timeBudgetSeconds = std::atof(next().c_str());
        else if (arg == "--seed")
            cfg.seed = static_cast<std::uint64_t>(
                std::atoll(next().c_str()));
        else if (arg == "--async")
            cfg.synthWorkers = 1;
        else if (arg == "--rewrite-only")
            cfg.selection = core::TransformSelection::RewriteOnly;
        else if (arg == "--resynth-only")
            cfg.selection = core::TransformSelection::ResynthOnly;
        else if (!arg.empty() && arg[0] == '-')
            usage();
        else
            file = arg;
    }
    if (file.empty())
        usage();

    const qasm::ParseResult parsed = qasm::parseSourceFile(file);
    if (!parsed.ok) {
        std::fprintf(stderr, "guoq-opt: %s\n", parsed.error.str().c_str());
        return 1;
    }
    const ir::Circuit lowered = transpile::toGateSet(parsed.circuit, set);
    std::fprintf(stderr,
                 "guoq-opt: %s -> %s: %zu gates (%zu 2q, %zu T)\n",
                 file.c_str(), ir::gateSetName(set).c_str(),
                 lowered.size(), lowered.twoQubitGateCount(),
                 lowered.tGateCount());

    const core::GuoqResult r = core::optimize(lowered, set, cfg);
    std::fprintf(stderr,
                 "guoq-opt: optimized: %zu gates (%zu 2q, %zu T), "
                 "error bound %.2e, %ld iterations\n",
                 r.best.size(), r.best.twoQubitGateCount(),
                 r.best.tGateCount(), r.errorBound,
                 r.stats.iterations);

    std::fputs(qasm::toQasm(r.best).c_str(), stdout);
    return 0;
}
