#include "qasm/parser.h"

#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>

#include "qasm/parser_detail.h"
#include "support/logging.h"

namespace guoq {
namespace qasm {

// --- Dialect names ---------------------------------------------------

const std::string &
dialectName(Dialect d)
{
    static const std::string names[] = {"auto", "qasm2", "qasm3"};
    return names[static_cast<int>(d)];
}

bool
dialectFromName(const std::string &name, Dialect *out)
{
    for (Dialect d : {Dialect::Auto, Dialect::Qasm2, Dialect::Qasm3})
        if (dialectName(d) == name) {
            *out = d;
            return true;
        }
    return false;
}

// --- ParseError ------------------------------------------------------

std::string
ParseError::str() const
{
    std::string out;
    if (!file.empty()) {
        out += file;
        out += line > 0 ? ":" : ": ";
    }
    if (line > 0) {
        if (file.empty())
            out += support::strcat("line ", line, ", col ", col, ": ");
        else
            out += support::strcat(line, ":", col, ": ");
    }
    out += message;
    return out;
}

namespace detail {

namespace {

/** Human-readable spelling of a token for diagnostics (punctuation
 *  tokens carry no text, so the kind supplies it). */
std::string
describe(const Token &t)
{
    switch (t.kind) {
      case Tok::Ident:
      case Tok::Number: return "'" + t.text + "'";
      case Tok::String: return "string \"" + t.text + "\"";
      case Tok::LParen: return "'('";
      case Tok::RParen: return "')'";
      case Tok::LBracket: return "'['";
      case Tok::RBracket: return "']'";
      case Tok::LBrace: return "'{'";
      case Tok::RBrace: return "'}'";
      case Tok::Comma: return "','";
      case Tok::Semi: return "';'";
      case Tok::Plus: return "'+'";
      case Tok::Minus: return "'-'";
      case Tok::Star: return "'*'";
      case Tok::Slash: return "'/'";
      case Tok::Arrow: return "'->'";
      case Tok::Equals: return "'='";
      case Tok::Error: return t.text;
      case Tok::End: break;
    }
    return "<end of input>";
}

} // namespace

// --- ParserBase: token plumbing --------------------------------------

void
ParserBase::expect(Tok k, const char *what)
{
    if (cur_.kind != k)
        error(support::strcat("expected ", what, ", got ",
                              describe(cur_)));
    advance();
}

bool
ParserBase::accept(Tok k)
{
    if (cur_.kind != k)
        return false;
    advance();
    return true;
}

int
ParserBase::parseIntLit(const char *what, int min, int max)
{
    if (cur_.kind != Tok::Number)
        error(support::strcat("expected ", what));
    const double v = cur_.number;
    if (v != std::floor(v) || v < min || v > max)
        error(support::strcat(what, " must be an integer in [", min,
                              ", ", max, "], got '", cur_.text, "'"));
    advance();
    return static_cast<int>(v);
}

// --- ParserBase: constant expressions --------------------------------

double
ParserBase::parseExpr()
{
    double v = parseTerm();
    while (true) {
        if (accept(Tok::Plus))
            v += parseTerm();
        else if (accept(Tok::Minus))
            v -= parseTerm();
        else
            return v;
    }
}

double
ParserBase::parseTerm()
{
    double v = parseFactor();
    while (true) {
        if (accept(Tok::Star)) {
            v *= parseFactor();
        } else if (accept(Tok::Slash)) {
            const Token div = cur_;
            const double d = parseFactor();
            if (d == 0)
                failAt(div.line, div.col,
                       "division by zero in angle expression");
            v /= d;
        } else {
            return v;
        }
    }
}

double
ParserBase::parseFactor()
{
    if (accept(Tok::Minus))
        return -parseFactor();
    if (cur_.kind == Tok::Number) {
        const double v = cur_.number;
        advance();
        return v;
    }
    if (cur_.kind == Tok::Ident) {
        if (cur_.text == "pi") {
            advance();
            return M_PI;
        }
        if (cur_.text == "tau") {
            advance();
            return 2 * M_PI;
        }
        if (cur_.text == "euler") {
            advance();
            return M_E;
        }
        const auto it = consts_.find(cur_.text);
        if (it != consts_.end()) {
            advance();
            return it->second;
        }
        error("unknown identifier '" + cur_.text + "' in expression");
    }
    if (accept(Tok::LParen)) {
        const double v = parseExpr();
        expect(Tok::RParen, "')'");
        return v;
    }
    error("expected number, 'pi', or '('");
}

// --- ParserBase: registers and gate applications ---------------------

void
ParserBase::declareRegister(const std::string &name, int size, int line,
                            int col)
{
    if (registerStart_.count(name))
        failAt(line, col, "duplicate register '" + name + "'");
    registerStart_[name] = totalQubits_;
    registerSize_[name] = size;
    totalQubits_ += size;
}

ParserBase::Operand
ParserBase::parseOperand()
{
    if (cur_.kind != Tok::Ident)
        error("expected qubit reference");
    const Token reg_tok = cur_;
    const std::string name = cur_.text;
    advance();
    const auto it = registerStart_.find(name);
    if (it == registerStart_.end())
        failAt(reg_tok.line, reg_tok.col,
               "unknown register '" + name + "'");
    Operand op;
    op.first = it->second;
    if (accept(Tok::LBracket)) {
        const Token idx_tok = cur_;
        const int idx = parseIntLit("qubit index", 0, kMaxRegisterSize);
        expect(Tok::RBracket, "']'");
        if (idx >= registerSize_[name])
            failAt(idx_tok.line, idx_tok.col,
                   support::strcat("qubit index ", idx,
                                   " out of range for '", name, "'"));
        op.first += idx;
        op.count = 1;
    } else {
        op.count = registerSize_[name];
    }
    return op;
}

namespace {

/**
 * Gate names beyond the native gateKindFromName() table. `U` is the
 * QASM builtin (both dialects' U(θ,φ,λ) is the u3 matrix); the rest
 * are qelib1/stdgates spellings of gates we know by another name.
 * `id`/`u0` are identity no-ops: parsed, validated, and dropped.
 */
bool
resolveGateName(const std::string &name, ir::GateKind *kind,
                bool *identity)
{
    *identity = false;
    if (ir::gateKindFromName(name, kind))
        return true;
    if (name == "U" || name == "u") {
        *kind = ir::GateKind::U3;
        return true;
    }
    if (name == "p" || name == "phase") {
        *kind = ir::GateKind::U1;
        return true;
    }
    if (name == "cphase") {
        *kind = ir::GateKind::CP;
        return true;
    }
    if (name == "CX") {
        *kind = ir::GateKind::CX;
        return true;
    }
    if (name == "id" || name == "u0") {
        *identity = true;
        return true;
    }
    return false;
}

} // namespace

void
ParserBase::parseGateApplication()
{
    if (cur_.kind != Tok::Ident)
        error("expected statement");
    const Token name_tok = cur_;
    const std::string name = cur_.text;
    ir::GateKind kind{};
    bool identity = false;
    if (!resolveGateName(name, &kind, &identity))
        failAt(name_tok.line, name_tok.col,
               "unknown gate '" + name + "'");
    advance();

    std::vector<double> params;
    if (accept(Tok::LParen)) {
        if (cur_.kind != Tok::RParen) {
            params.push_back(parseExpr());
            while (accept(Tok::Comma))
                params.push_back(parseExpr());
        }
        expect(Tok::RParen, "')'");
    }

    std::vector<Operand> ops;
    ops.push_back(parseOperand());
    while (accept(Tok::Comma))
        ops.push_back(parseOperand());
    expect(Tok::Semi, "';'");

    if (identity) {
        // id takes no parameters, u0 takes one (a qelib1 wait cycle);
        // both are single-qubit (one operand, broadcast allowed) and
        // lower to nothing once validated.
        const std::size_t want = name == "u0" ? 1 : 0;
        if (params.size() != want)
            failAt(name_tok.line, name_tok.col,
                   support::strcat("gate '", name, "' expects ", want,
                                   " parameters, got ", params.size()));
        if (ops.size() != 1)
            failAt(name_tok.line, name_tok.col,
                   support::strcat("gate '", name,
                                   "' expects 1 qubit, got ",
                                   ops.size()));
        return;
    }

    if (static_cast<int>(params.size()) != ir::gateParamCount(kind))
        failAt(name_tok.line, name_tok.col,
               support::strcat("gate '", name, "' expects ",
                               ir::gateParamCount(kind),
                               " parameters, got ", params.size()));

    const int arity = ir::gateArity(kind);
    // Single-qubit broadcast: `h q;` applies h to every qubit of q.
    if (arity == 1 && ops.size() == 1 && ops[0].count != 1) {
        for (int i = 0; i < ops[0].count; ++i)
            pending_.emplace_back(kind,
                                  std::vector<int>{ops[0].first + i},
                                  params);
        return;
    }
    std::vector<int> qubits;
    for (const Operand &op : ops) {
        if (op.count != 1)
            failAt(name_tok.line, name_tok.col,
                   support::strcat(
                       "whole-register operands of multi-qubit gates "
                       "must have size 1 (register has ", op.count,
                       " qubits)"));
        qubits.push_back(op.first);
    }
    if (static_cast<int>(qubits.size()) != arity)
        failAt(name_tok.line, name_tok.col,
               support::strcat("gate '", name, "' expects ", arity,
                               " qubits, got ", qubits.size()));
    for (std::size_t i = 0; i < qubits.size(); ++i)
        for (std::size_t j = i + 1; j < qubits.size(); ++j)
            if (qubits[i] == qubits[j])
                failAt(name_tok.line, name_tok.col,
                       "gate '" + name + "' applied to the same qubit "
                       "twice");
    pending_.emplace_back(kind, std::move(qubits), std::move(params));
}

void
ParserBase::skipGateDefinition()
{
    advance(); // 'gate'
    while (cur_.kind != Tok::LBrace && cur_.kind != Tok::End)
        advance();
    int depth = 0;
    do {
        if (cur_.kind == Tok::LBrace)
            ++depth;
        else if (cur_.kind == Tok::RBrace)
            --depth;
        else if (cur_.kind == Tok::End)
            error("unterminated gate definition");
        advance();
    } while (depth > 0);
}

void
ParserBase::skipToSemi()
{
    while (cur_.kind != Tok::Semi && cur_.kind != Tok::End)
        advance();
    expect(Tok::Semi, "';'");
}

ir::Circuit
ParserBase::finishCircuit()
{
    ir::Circuit c(totalQubits_);
    for (ir::Gate &g : pending_)
        c.add(std::move(g));
    return c;
}

// --- The OpenQASM 2.0 grammar ----------------------------------------

ir::Circuit
Qasm2Parser::run()
{
    advance(); // prime the token stream
    parseHeader();
    while (cur_.kind != Tok::End)
        parseStatement();
    return finishCircuit();
}

void
Qasm2Parser::parseHeader()
{
    if (!atIdent("OPENQASM"))
        return;
    advance();
    if (cur_.kind != Tok::Number)
        error("expected version number");
    if (static_cast<int>(cur_.number) != 2)
        error("OPENQASM " + cur_.text +
              " is not supported by the qasm2 parser");
    advance();
    expect(Tok::Semi, "';'");
}

void
Qasm2Parser::parseStatement()
{
    if (cur_.kind != Tok::Ident)
        error("expected statement");
    const std::string kw = cur_.text;
    if (kw == "include") {
        advance();
        expect(Tok::String, "file name");
        expect(Tok::Semi, "';'");
    } else if (kw == "qreg") {
        parseQreg();
    } else if (kw == "creg") {
        // Classical registers are accepted and ignored so that
        // published benchmark files parse; measurements are not.
        parseCreg();
    } else if (kw == "barrier") {
        skipToSemi();
    } else if (kw == "gate") {
        skipGateDefinition();
    } else if (kw == "opaque") {
        skipToSemi();
    } else if (kw == "measure" || kw == "reset" || kw == "if") {
        error("'" + kw + "' is not supported (unitary circuits only)");
    } else {
        parseGateApplication();
    }
}

void
Qasm2Parser::parseQreg()
{
    advance(); // 'qreg'
    if (cur_.kind != Tok::Ident)
        error("expected register name");
    const Token name_tok = cur_;
    const std::string name = cur_.text;
    advance();
    expect(Tok::LBracket, "'['");
    const int size = parseIntLit("register size", 0, kMaxRegisterSize);
    expect(Tok::RBracket, "']'");
    expect(Tok::Semi, "';'");
    declareRegister(name, size, name_tok.line, name_tok.col);
}

void
Qasm2Parser::parseCreg()
{
    advance(); // 'creg'
    if (cur_.kind != Tok::Ident)
        error("expected register name");
    advance();
    expect(Tok::LBracket, "'['");
    parseIntLit("register size", 0, kMaxRegisterSize);
    expect(Tok::RBracket, "']'");
    expect(Tok::Semi, "';'");
}

} // namespace detail

// --- Dialect detection and the public API ----------------------------

Dialect
detectDialect(const std::string &source)
{
    Lexer lex(source);
    Token t = lex.next();
    if (t.kind == Tok::Ident && t.text == "OPENQASM") {
        const Token v = lex.next();
        if (v.kind == Tok::Number)
            return static_cast<int>(v.number) >= 3 ? Dialect::Qasm3
                                                   : Dialect::Qasm2;
        return Dialect::Qasm2;
    }
    // Headerless program: the first declaration keyword decides.
    while (t.kind != Tok::End && t.kind != Tok::Error) {
        if (t.kind == Tok::Ident) {
            if (t.text == "qreg" || t.text == "creg")
                return Dialect::Qasm2;
            if (t.text == "qubit" || t.text == "bit")
                return Dialect::Qasm3;
        }
        t = lex.next();
    }
    return Dialect::Qasm2;
}

namespace {

template <typename ParserT>
ParseResult
runParser(const std::string &source, Dialect d, std::string file)
{
    ParseResult r;
    r.dialect = d;
    ParserT p(source, std::move(file));
    try {
        r.circuit = p.run();
        r.ok = true;
    } catch (const detail::ParseAbort &) {
        r.error = p.error();
    }
    return r;
}

} // namespace

ParseResult
parseSource(const std::string &source, Dialect dialect, std::string file)
{
    const Dialect d =
        dialect == Dialect::Auto ? detectDialect(source) : dialect;
    if (d == Dialect::Qasm3)
        return runParser<detail::Qasm3Parser>(source, d,
                                              std::move(file));
    return runParser<detail::Qasm2Parser>(source, d, std::move(file));
}

ParseResult
parseSourceFile(const std::string &path, Dialect dialect)
{
    std::ifstream in(path);
    if (!in) {
        ParseResult r;
        r.dialect = dialect == Dialect::Auto ? Dialect::Qasm2 : dialect;
        r.error.file = path;
        r.error.message = "cannot open file";
        return r;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return parseSource(buf.str(), dialect, path);
}

} // namespace qasm
} // namespace guoq
