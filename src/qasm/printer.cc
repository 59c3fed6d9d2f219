#include "qasm/printer.h"

#include <fstream>
#include <sstream>

namespace guoq {
namespace qasm {

namespace {

/** Format an angle with enough digits to round-trip a double. */
std::string
angle(double v)
{
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

/**
 * Header snippets for the gates neither qelib1.inc nor stdgates.inc
 * defines. Each is a self-contained `gate` declaration in terms of
 * primitives both include files provide; the declaration syntax is
 * identical in both dialects.
 */
const char *const kExtraDefs =
    "gate sxdg a { s a; h a; s a; }\n"
    "gate rxx(theta) a, b { h a; h b; cx a, b; rz(theta) b; cx a, b; "
    "h a; h b; }\n"
    "gate ccz a, b, c { h c; ccx a, b, c; h c; }\n";

bool
needsExtraDefs(const ir::Circuit &c)
{
    for (const ir::Gate &g : c.gates()) {
        switch (g.kind) {
          case ir::GateKind::SXdg:
          case ir::GateKind::Rxx:
          case ir::GateKind::CCZ:
            return true;
          default:
            break;
        }
    }
    return false;
}

} // namespace

std::string
toQasm(const ir::Circuit &c, Dialect dialect)
{
    const bool q3 = dialect == Dialect::Qasm3;
    std::ostringstream os;
    if (q3)
        os << "OPENQASM 3.0;\ninclude \"stdgates.inc\";\n";
    else
        os << "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";
    if (needsExtraDefs(c))
        os << kExtraDefs;
    if (q3) {
        // qubit[0] would declare nothing; an empty circuit has no
        // register line (and parses back to an empty circuit).
        if (c.numQubits() > 0)
            os << "qubit[" << c.numQubits() << "] q;\n";
    } else {
        os << "qreg q[" << c.numQubits() << "];\n";
    }
    for (const ir::Gate &g : c.gates()) {
        os << ir::gateName(g.kind);
        if (!g.params.empty()) {
            os << "(";
            for (std::size_t i = 0; i < g.params.size(); ++i) {
                if (i)
                    os << ", ";
                os << angle(g.params[i]);
            }
            os << ")";
        }
        os << " ";
        for (std::size_t i = 0; i < g.qubits.size(); ++i) {
            if (i)
                os << ", ";
            os << "q[" << g.qubits[i] << "]";
        }
        os << ";\n";
    }
    return os.str();
}

std::string
writeQasmFile(const ir::Circuit &c, const std::string &path,
              Dialect dialect)
{
    std::ofstream out(path);
    if (out) {
        out << toQasm(c, dialect);
        out.close();
    }
    return out ? "" : "cannot write " + path;
}

} // namespace qasm
} // namespace guoq
