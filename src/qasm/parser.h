/**
 * @file
 * Recursive-descent parsers for the OpenQASM 2.0 and 3.x subsets this
 * library speaks (the precise grammar is written down in
 * docs/FORMATS.md).
 *
 * Both dialects lower to the same ir::Circuit. Supported across
 * dialects: OPENQASM/include headers, register declarations (flattened
 * into one qubit index space), gate applications with
 * constant-expression parameters (pi/tau/euler, literals, + - * /,
 * unary minus, parentheses), single-qubit broadcast over a whole
 * register, `barrier` (ignored), comments. QASM 3 additionally
 * accepts `qubit[n]`/`bit[n]` declarations, `U`/`gphase`, and
 * `const` declarations usable in angle expressions. `gate` definitions
 * are skipped — the printer only emits definitions for gates the
 * parser already knows natively. measure/reset/control flow are
 * rejected: this library optimizes pure unitary circuits.
 *
 * The entry points return a ParseResult instead of calling fatal(),
 * so a batch run over a directory survives malformed files and can
 * report `file:line:col` diagnostics per file.
 */

#pragma once

#include <string>

#include "ir/circuit.h"
#include "qasm/dialect.h"

namespace guoq {
namespace qasm {

/** Position and message of the first syntax error in a source. */
struct ParseError
{
    std::string file; //!< input path; empty for in-memory sources
    int line = 0;     //!< 1-based; 0 when no position applies (e.g.
                      //!< the file could not be opened)
    int col = 0;      //!< 1-based column
    std::string message;

    /** "file:line:col: message" (omitting the parts not present). */
    std::string str() const;
};

/** Outcome of one parse: a circuit, or a located error. */
struct ParseResult
{
    ir::Circuit circuit;               //!< valid iff ok
    Dialect dialect = Dialect::Qasm2;  //!< dialect actually parsed
    bool ok = false;
    ParseError error;                  //!< valid iff !ok
};

/**
 * Parse @p source as @p dialect (Dialect::Auto detects it from the
 * `OPENQASM <version>;` line, falling back to a qreg/qubit keyword
 * sniff, defaulting to QASM 2). @p file is used only to label error
 * messages. Never aborts: syntax errors come back in the result.
 */
ParseResult parseSource(const std::string &source,
                        Dialect dialect = Dialect::Auto,
                        std::string file = {});

/**
 * Read and parse the file at @p path. Unreadable files report an
 * error with line == 0; all errors carry the path.
 */
ParseResult parseSourceFile(const std::string &path,
                            Dialect dialect = Dialect::Auto);

/**
 * The dialect parseSource(source, Dialect::Auto) would pick: the
 * OPENQASM major version when a header is present, else the first
 * qreg/creg (QASM 2) or qubit/bit (QASM 3) declaration keyword, else
 * QASM 2.
 */
Dialect detectDialect(const std::string &source);

} // namespace qasm
} // namespace guoq
