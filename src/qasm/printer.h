/**
 * @file
 * OpenQASM emission in either dialect. Circuits round-trip through the
 * parser so benchmark circuits can be exported and inspected with
 * other toolkits; docs/FORMATS.md pins down exactly what is emitted.
 */

#pragma once

#include <string>

#include "ir/circuit.h"
#include "qasm/dialect.h"

namespace guoq {
namespace qasm {

/**
 * Render @p c as an OpenQASM program in @p dialect (Dialect::Auto is
 * treated as Qasm2, the historical default).
 *
 * Gates outside the qelib1/stdgates vocabulary (SXdg, Rxx, CCZ) are
 * emitted with a matching `gate` definition header so standard parsers
 * accept the output.
 */
std::string toQasm(const ir::Circuit &c,
                   Dialect dialect = Dialect::Qasm2);

/** Write toQasm(c, dialect) to @p path. Returns "" on success, else
 *  "cannot write <path>"; the check runs after close(), so a full
 *  device is reported rather than lost in the stream's destructor. */
[[nodiscard]] std::string writeQasmFile(const ir::Circuit &c, const std::string &path,
                   Dialect dialect = Dialect::Qasm2);

} // namespace qasm
} // namespace guoq
