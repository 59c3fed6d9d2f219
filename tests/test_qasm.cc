/** @file Tests for the OpenQASM 2.0 printer and parser. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "qasm/parser.h"
#include "qasm/printer.h"
#include "sim/unitary_sim.h"
#include "tests/test_util.h"
#include "workloads/standard.h"

namespace guoq {
namespace {

TEST(QasmPrinter, EmitsHeaderAndRegister)
{
    ir::Circuit c(3);
    c.h(0);
    const std::string q = qasm::toQasm(c);
    EXPECT_NE(q.find("OPENQASM 2.0;"), std::string::npos);
    EXPECT_NE(q.find("qreg q[3];"), std::string::npos);
    EXPECT_NE(q.find("h q[0];"), std::string::npos);
}

TEST(QasmPrinter, EmitsParameters)
{
    ir::Circuit c(1);
    c.rz(0.5, 0);
    EXPECT_NE(qasm::toQasm(c).find("rz(0.5) q[0];"), std::string::npos);
}

TEST(QasmPrinter, EmitsExtraDefsOnlyWhenNeeded)
{
    ir::Circuit plain(2);
    plain.cx(0, 1);
    EXPECT_EQ(qasm::toQasm(plain).find("gate rxx"), std::string::npos);
    ir::Circuit fancy(2);
    fancy.rxx(0.3, 0, 1);
    EXPECT_NE(qasm::toQasm(fancy).find("gate rxx"), std::string::npos);
}

TEST(QasmParser, ParsesSimpleProgram)
{
    const qasm::ParseResult r = qasm::parseSource(R"(
        OPENQASM 2.0;
        include "qelib1.inc";
        qreg q[2];
        h q[0];
        cx q[0], q[1];
    )");
    ASSERT_TRUE(r.ok) << r.error.str();
    const ir::Circuit &c = r.circuit;
    ASSERT_EQ(c.size(), 2u);
    EXPECT_EQ(c.numQubits(), 2);
    EXPECT_EQ(c.gate(0).kind, ir::GateKind::H);
    EXPECT_EQ(c.gate(1).kind, ir::GateKind::CX);
}

TEST(QasmParser, EvaluatesAngleExpressions)
{
    const qasm::ParseResult r = qasm::parseSource(
        "qreg q[1]; rz(pi/2) q[0]; rz(-pi) q[0]; rz(3*pi/4+0.5) q[0]; "
        "rz((1+2)*0.25) q[0];");
    ASSERT_TRUE(r.ok) << r.error.str();
    const ir::Circuit &c = r.circuit;
    ASSERT_EQ(c.size(), 4u);
    EXPECT_NEAR(c.gate(0).params[0], M_PI / 2, 1e-12);
    EXPECT_NEAR(c.gate(1).params[0], -M_PI, 1e-12);
    EXPECT_NEAR(c.gate(2).params[0], 3 * M_PI / 4 + 0.5, 1e-12);
    EXPECT_NEAR(c.gate(3).params[0], 0.75, 1e-12);
}

TEST(QasmParser, FlattensMultipleRegisters)
{
    const qasm::ParseResult r = qasm::parseSource(
        "qreg a[2]; qreg b[2]; cx a[1], b[0];");
    ASSERT_TRUE(r.ok) << r.error.str();
    const ir::Circuit &c = r.circuit;
    ASSERT_EQ(c.size(), 1u);
    EXPECT_EQ(c.numQubits(), 4);
    EXPECT_EQ(c.gate(0).qubits[0], 1);
    EXPECT_EQ(c.gate(0).qubits[1], 2);
}

TEST(QasmParser, IgnoresBarriersCommentsCreg)
{
    const qasm::ParseResult r = qasm::parseSource(R"(
        // a comment
        qreg q[2];
        creg c[2];
        h q[0]; // trailing comment
        barrier q[0], q[1];
        x q[1];
    )");
    ASSERT_TRUE(r.ok) << r.error.str();
    const ir::Circuit &c = r.circuit;
    EXPECT_EQ(c.size(), 2u);
}

TEST(QasmParser, SkipsGateDefinitions)
{
    const qasm::ParseResult r = qasm::parseSource(R"(
        qreg q[1];
        gate mygate(a) x { rz(a) x; rz(a) x; }
        t q[0];
    )");
    ASSERT_TRUE(r.ok) << r.error.str();
    const ir::Circuit &c = r.circuit;
    ASSERT_EQ(c.size(), 1u);
    EXPECT_EQ(c.gate(0).kind, ir::GateKind::T);
}

TEST(QasmParser, BroadcastsSingleQubitGatesOverRegisters)
{
    const qasm::ParseResult r = qasm::parseSource("qreg q[3]; h q; x q[1];");
    ASSERT_TRUE(r.ok) << r.error.str();
    const ir::Circuit &c = r.circuit;
    ASSERT_EQ(c.size(), 4u);
    EXPECT_EQ(c.gate(0).kind, ir::GateKind::H);
    EXPECT_EQ(c.gate(2).qubits[0], 2);
}

TEST(QasmParser, ResolvesAliasNames)
{
    // U/u are the builtin u3 matrix; p/phase are u1; id is a no-op.
    const qasm::ParseResult r = qasm::parseSource(
        "qreg q[2]; U(0.1, 0.2, 0.3) q[0]; p(0.5) q[1]; id q[0]; "
        "CX q[0], q[1];");
    ASSERT_TRUE(r.ok) << r.error.str();
    const ir::Circuit &c = r.circuit;
    ASSERT_EQ(c.size(), 3u);
    EXPECT_EQ(c.gate(0).kind, ir::GateKind::U3);
    EXPECT_EQ(c.gate(1).kind, ir::GateKind::U1);
    EXPECT_EQ(c.gate(2).kind, ir::GateKind::CX);
}

TEST(QasmParseResult, ReportsLineAndColumn)
{
    const qasm::ParseResult r =
        qasm::parseSource("qreg q[2];\nh q[5];\n");
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.dialect, qasm::Dialect::Qasm2);
    EXPECT_EQ(r.error.line, 2);
    EXPECT_EQ(r.error.col, 5); // the offending index literal
    EXPECT_NE(r.error.message.find("out of range"), std::string::npos);
    // In-memory sources have no file, so str() spells the position.
    EXPECT_NE(r.error.str().find("line 2"), std::string::npos);
}

TEST(QasmParseResult, RecoverableLexicalError)
{
    const qasm::ParseResult r = qasm::parseSource("qreg q[1];\nh @;\n");
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.error.line, 2);
    EXPECT_NE(r.error.message.find("unexpected character"),
              std::string::npos);
}

TEST(QasmParseResult, RejectsMalformedNumbers)
{
    // stod parses the longest valid prefix; the lexer must reject the
    // whole spelling, not silently truncate 1.5.7 to 1.5.
    const qasm::ParseResult r =
        qasm::parseSource("qreg q[1]; rx(1.5.7) q[0];");
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.error.message.find("malformed number"),
              std::string::npos);
    EXPECT_FALSE(qasm::parseSource("qreg q[1]; rx(2e) q[0];").ok);
}

TEST(QasmParseResult, IdentityAliasesValidateParameterCounts)
{
    EXPECT_TRUE(qasm::parseSource("qreg q[1]; id q[0];").ok);
    EXPECT_TRUE(qasm::parseSource("qreg q[1]; u0(1) q[0];").ok);
    EXPECT_FALSE(qasm::parseSource("qreg q[1]; id(0.3) q[0];").ok);
    EXPECT_FALSE(qasm::parseSource("qreg q[1]; u0 q[0];").ok);
}

TEST(QasmParseResult, RejectsDuplicateQubitOperands)
{
    const qasm::ParseResult r =
        qasm::parseSource("qreg q[2]; cx q[0], q[0];");
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.error.message.find("same qubit"), std::string::npos);
}

TEST(QasmParseResult, FileErrorsCarryThePath)
{
    const std::string path =
        testing::TempDir() + "guoq_qasm_bad_input.qasm";
    {
        std::ofstream out(path);
        out << "qreg q[1];\nbadgate q[0];\n";
    }
    const qasm::ParseResult r = qasm::parseSourceFile(path);
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.error.file, path);
    EXPECT_EQ(r.error.line, 2);
    EXPECT_EQ(r.error.col, 1);
    // The rendered diagnostic names the offending file (the batch
    // driver prints exactly this).
    EXPECT_NE(r.error.str().find(path), std::string::npos);
    std::remove(path.c_str());
}

TEST(QasmParseResult, MissingFileReportsPathWithoutPosition)
{
    const qasm::ParseResult r =
        qasm::parseSourceFile("/no/such/dir/missing.qasm");
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.error.line, 0);
    EXPECT_NE(r.error.str().find("missing.qasm"), std::string::npos);
    EXPECT_NE(r.error.str().find("cannot open"), std::string::npos);
}

TEST(QasmParseResult, FileErrorRendersFileLineColAndMessage)
{
    const std::string path =
        testing::TempDir() + "guoq_qasm_bad_located.qasm";
    {
        std::ofstream out(path);
        out << "qreg q[1];\nbadgate q[0];\n";
    }
    const qasm::ParseResult r = qasm::parseSourceFile(path);
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.error.str(), path + ":2:1: unknown gate 'badgate'");
    std::remove(path.c_str());
}

/** Assert that @p source fails to parse at @p line:@p col with a
 *  message containing @p message. */
void
expectParseError(const std::string &source, int line, int col,
                 const std::string &message)
{
    const qasm::ParseResult r = qasm::parseSource(source);
    ASSERT_FALSE(r.ok) << source;
    EXPECT_EQ(r.error.line, line) << source;
    EXPECT_EQ(r.error.col, col) << source;
    EXPECT_NE(r.error.message.find(message), std::string::npos)
        << r.error.message;
}

TEST(QasmParser, RejectsMeasurement)
{
    expectParseError("qreg q[1]; creg c[1]; measure q[0] -> c[0];", 1, 23,
                     "'measure' is not supported");
}

TEST(QasmParser, RejectsUnknownGate)
{
    expectParseError("qreg q[1]; zzz q[0];", 1, 12, "unknown gate 'zzz'");
}

TEST(QasmParser, RejectsOutOfRangeQubit)
{
    expectParseError("qreg q[2]; h q[5];", 1, 16,
                     "qubit index 5 out of range");
}

TEST(QasmParser, RejectsArityMismatch)
{
    expectParseError("qreg q[2]; cx q[0];", 1, 12,
                     "gate 'cx' expects 2 qubits, got 1");
}

TEST(QasmParser, RejectsOverArityStatementsWithoutPanicking)
{
    // More operands than any gate holds inline: still a located parse
    // error, caught before a Gate is built.
    expectParseError("qreg q[4]; cx q[0],q[1],q[2];", 1, 12,
                     "gate 'cx' expects 2 qubits, got 3");
    expectParseError("qreg q[4]; ccx q[0],q[1],q[2],q[3];", 1, 12,
                     "gate 'ccx' expects 3 qubits, got 4");
    expectParseError("qreg q[1]; u3(1,2,3,4) q[0];", 1, 12,
                     "gate 'u3' expects 3 parameters, got 4");
}

class QasmRoundTrip : public ::testing::TestWithParam<int>
{
};

TEST_P(QasmRoundTrip, PrintParsePreservesSemantics)
{
    support::Rng rng(static_cast<std::uint64_t>(GetParam()) * 41 + 5);
    const auto sets = ir::allGateSets();
    const ir::GateSetKind set =
        sets[static_cast<std::size_t>(GetParam()) % sets.size()];
    const ir::Circuit c = testutil::randomNativeCircuit(set, 4, 25, rng);
    const qasm::ParseResult r = qasm::parseSource(qasm::toQasm(c));
    ASSERT_TRUE(r.ok) << r.error.str();
    const ir::Circuit &back = r.circuit;
    ASSERT_EQ(back.size(), c.size());
    EXPECT_LT(sim::circuitDistance(c, back), testutil::kExact);
}

INSTANTIATE_TEST_SUITE_P(AllSets, QasmRoundTrip, ::testing::Range(0, 15));

TEST(QasmRoundTripWorkloads, QftSurvives)
{
    const ir::Circuit c = workloads::qft(4);
    const qasm::ParseResult r = qasm::parseSource(qasm::toQasm(c));
    ASSERT_TRUE(r.ok) << r.error.str();
    const ir::Circuit &back = r.circuit;
    EXPECT_LT(sim::circuitDistance(c, back), testutil::kExact);
}

TEST(QasmRoundTripWorkloads, ToffoliChainSurvives)
{
    const ir::Circuit c = workloads::barencoTof(3);
    const qasm::ParseResult r = qasm::parseSource(qasm::toQasm(c));
    ASSERT_TRUE(r.ok) << r.error.str();
    const ir::Circuit &back = r.circuit;
    EXPECT_LT(sim::circuitDistance(c, back), testutil::kExact);
}

} // namespace
} // namespace guoq
