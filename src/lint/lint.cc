/** @file The guoq_lint rule engine. */

#include "lint/lint.h"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace guoq {
namespace lint {

namespace {

namespace fs = std::filesystem;

/** 1-based line of byte offset @p pos in @p text. */
int
lineOf(const std::string &text, std::size_t pos)
{
    return 1 + static_cast<int>(
                   std::count(text.begin(), text.begin() +
                              static_cast<std::ptrdiff_t>(pos), '\n'));
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.compare(0, prefix.size(), prefix) == 0;
}

bool
isWordChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool
isSpaceChar(char c)
{
    return std::isspace(static_cast<unsigned char>(c)) != 0;
}

/*
 * A backtracking matcher for the regex subset the rules are written
 * in: literal characters, `\` escapes, the `\b` word boundary, the
 * `\s` and `\w` classes, `[...]` sets (ranges and `\s` allowed) and
 * the greedy `*` `+` `?` quantifiers — leftmost-first and greedy like
 * ECMAScript, so it finds the matches std::regex would. (std::regex
 * itself is avoided: libstdc++ 12's regex compiler trips
 * -Wmaybe-uninitialized under -fsanitize=address, which -Werror makes
 * a build failure.)
 */

/** Length of the atom at p[i]: a character, `\x` escape or `[...]`. */
std::size_t
atomLength(const std::string &p, std::size_t i)
{
    if (p[i] == '\\')
        return 2;
    if (p[i] == '[')
        return p.find(']', i) - i + 1;
    return 1;
}

/** Does the atom at p[i] match @p c? */
bool
atomMatches(const std::string &p, std::size_t i, char c)
{
    if (p[i] == '\\')
        return p[i + 1] == 's'   ? isSpaceChar(c)
               : p[i + 1] == 'w' ? isWordChar(c)
                                 : c == p[i + 1];
    if (p[i] != '[')
        return c == p[i];
    for (std::size_t k = i + 1; p[k] != ']'; ++k) {
        if (p[k] == '\\') {
            if (p[++k] == 's' ? isSpaceChar(c) : c == p[k])
                return true;
        } else if (p[k + 1] == '-' && p[k + 2] != ']') {
            if (p[k] <= c && c <= p[k + 2])
                return true;
            k += 2;
        } else if (c == p[k]) {
            return true;
        }
    }
    return false;
}

/** End of a match of p[pi..] starting at t[ti], or npos. */
std::size_t
matchHere(const std::string &p, std::size_t pi, const std::string &t,
          std::size_t ti)
{
    if (pi == p.size())
        return ti;
    if (p.compare(pi, 2, "\\b") == 0) {
        const bool before = ti > 0 && isWordChar(t[ti - 1]);
        const bool after = ti < t.size() && isWordChar(t[ti]);
        return before != after ? matchHere(p, pi + 2, t, ti)
                               : std::string::npos;
    }
    const std::size_t len = atomLength(p, pi);
    const char q = pi + len < p.size() ? p[pi + len] : '\0';
    if (q != '*' && q != '+' && q != '?')
        return ti < t.size() && atomMatches(p, pi, t[ti])
                   ? matchHere(p, pi + len, t, ti + 1)
                   : std::string::npos;
    // Greedy: the longest run first, backing off one at a time.
    std::size_t n = 0;
    while ((q != '?' || n == 0) && ti + n < t.size() &&
           atomMatches(p, pi, t[ti + n]))
        ++n;
    for (std::size_t k = n + 1; k-- > (q == '+' ? 1u : 0u);) {
        const std::size_t end = matchHere(p, pi + len + 1, t, ti + k);
        if (end != std::string::npos)
            return end;
    }
    return std::string::npos;
}

/** [start, end) of each non-overlapping match of @p p, left to right. */
std::vector<std::pair<std::size_t, std::size_t>>
findAll(const std::string &p, const std::string &t)
{
    std::vector<std::pair<std::size_t, std::size_t>> found;
    for (std::size_t pos = 0; pos <= t.size();) {
        const std::size_t end = matchHere(p, 0, t, pos);
        if (end == std::string::npos) {
            ++pos;
            continue;
        }
        found.emplace_back(pos, end);
        pos = end > pos ? end : pos + 1;
    }
    return found;
}

/** One token rule: regexes that may not appear in the scoped paths. */
struct TokenRule
{
    const char *name;
    const char *message;
    std::vector<std::string> patterns;
    std::vector<std::string> scopes; //!< path prefixes the rule covers
    std::vector<std::string> exempt; //!< prefixes excused within scope
};

const std::vector<TokenRule> &
tokenRules()
{
    static const std::vector<TokenRule> kRules = {
        {"thread-seam",
         "thread creation outside the approved concurrency seams "
         "(core/portfolio, synth/pool, serve/, verify/sampling, "
         "bench/harness); route the work through one of those",
         {R"(std::j?thread\b)", R"(\.\s*detach\s*\()",
          R"(->\s*detach\s*\()", R"(\bstd\s*::\s*async\b)"},
         {"src/", "tools/", "bench/"},
         {"src/core/portfolio", "src/synth/pool", "src/serve/",
          "src/verify/sampling", "src/bench/harness"}},
        {"serve-fatal",
         "fatal()/abort() in library code on the --serve worker path; "
         "return an error status so a bad request becomes an error "
         "row, not process death",
         {R"(\bfatal\s*\()", R"(\babort\s*\()"},
         {"src/serve/", "src/synth/", "src/verify/"},
         {}},
        {"determinism",
         "wall-clock or global-state randomness in deterministic "
         "library code; draw from a seeded support::Rng stream",
         {R"(\bstd::rand\b)", R"(\bsrand\s*\()",
          R"(\brandom_device\b)",
          R"(\btime\s*\(\s*nullptr\s*\))",
          R"(\btime\s*\(\s*NULL\s*\))", R"(\btime\s*\(\s*0\s*\))"},
         {"src/"},
         {}},
        {"allocation",
         "naked array new/malloc-family allocation; use a container "
         "or std::make_unique so ownership is explicit",
         {R"(\bmalloc\s*\()", R"(\bcalloc\s*\()", R"(\brealloc\s*\()",
          R"(\bnew\s+[A-Za-z_][A-Za-z0-9_:<>,\s]*\[)"},
         {"src/"},
         {}},
    };
    return kRules;
}

bool
inScope(const TokenRule &rule, const std::string &relPath)
{
    bool scoped = false;
    for (const std::string &s : rule.scopes)
        if (startsWith(relPath, s))
            scoped = true;
    if (!scoped)
        return false;
    for (const std::string &e : rule.exempt)
        if (startsWith(relPath, e))
            return false;
    return true;
}

/**
 * The string literal starting at or after @p pos (whitespace skipped).
 * Returns true and fills @p out / @p lit_pos only when the next
 * non-space character opens a plain `"` literal.
 */
bool
nextLiteral(const std::string &s, std::size_t pos, std::string *out,
            std::size_t *lit_pos)
{
    while (pos < s.size() &&
           std::isspace(static_cast<unsigned char>(s[pos])))
        ++pos;
    if (pos >= s.size() || s[pos] != '"')
        return false;
    *lit_pos = pos;
    std::string v;
    for (++pos; pos < s.size() && s[pos] != '"'; ++pos) {
        if (s[pos] == '\\' && pos + 1 < s.size())
            ++pos;
        v += s[pos];
    }
    *out = v;
    return true;
}

/** A registration string and where it was declared. */
struct Registration
{
    std::string name;
    int line = 0;
};

std::vector<Registration>
extractRegistrations(const std::string &content)
{
    // Comment-stripped, literals kept: the names live in literals.
    const std::string text = stripForLint(content, false);
    std::vector<Registration> out;

    const auto collectAfter = [&](const std::string &pattern) {
        for (const auto &[start, end] : findAll(pattern, text)) {
            std::string name;
            std::size_t lit_pos = 0;
            if (nextLiteral(text, end, &name, &lit_pos) &&
                !name.empty())
                out.push_back({name, lineOf(text, lit_pos)});
        }
    };

    // bench: static CaseRegistrar kFoo("case/id", ...).
    collectAfter(R"(CaseRegistrar\s+\w+\s*\()");
    // verify: static const CheckerInfo kInfo{"name", ...}.
    collectAfter(R"(CheckerInfo\s+\w+\s*\{)");
    // optimizers registered with an inline name argument:
    // r.add(std::make_unique<SomeOptimizer>("name", ...)).
    collectAfter(R"(make_unique<\s*\w*Optimizer\s*>\s*\()");
    // optimizers that set their own fixed name: info_.name = "name".
    collectAfter(R"(info_\s*\.\s*name\s*=\s*)");

    return out;
}

} // namespace

const std::vector<RuleInfo> &
ruleCatalog()
{
    static const std::vector<RuleInfo> kCatalog = {
        {"thread-seam",
         "std::thread/detach/async launches only in approved seams"},
        {"serve-fatal",
         "no fatal()/abort() on the --serve worker path"},
        {"determinism",
         "no rand/time/random_device in deterministic src/"},
        {"allocation", "no naked new[]/malloc in src/"},
        {"docs",
         "every registration string documented in FORMATS.md or "
         "ARCHITECTURE.md"},
    };
    return kCatalog;
}

std::string
stripForLint(const std::string &src, bool blank_literals)
{
    std::string out = src;
    enum class S { Code, Line, Block, Str, Chr, Raw };
    S state = S::Code;
    std::string raw_delim; // the )delim" closer for a raw string
    for (std::size_t i = 0; i < src.size(); ++i) {
        const char c = src[i];
        const char n = i + 1 < src.size() ? src[i + 1] : '\0';
        switch (state) {
        case S::Code:
            if (c == '/' && n == '/') {
                state = S::Line;
                out[i] = out[i + 1] = ' ';
                ++i;
            } else if (c == '/' && n == '*') {
                state = S::Block;
                out[i] = out[i + 1] = ' ';
                ++i;
            } else if (c == 'R' && n == '"' &&
                       (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                                       src[i - 1])) &&
                                   src[i - 1] != '_'))) {
                // R"delim( ... )delim"
                std::size_t p = i + 2;
                std::string d;
                while (p < src.size() && src[p] != '(')
                    d += src[p++];
                raw_delim = ")" + d + "\"";
                state = S::Raw;
                i = p; // skip past the opening '('
            } else if (c == '"') {
                state = S::Str;
            } else if (c == '\'' &&
                       (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                                       src[i - 1])) &&
                                   src[i - 1] != '_'))) {
                // apostrophes inside identifiers are digit separators
                state = S::Chr;
            }
            break;
        case S::Line:
            if (c == '\n')
                state = S::Code;
            else
                out[i] = ' ';
            break;
        case S::Block:
            if (c == '*' && n == '/') {
                out[i] = out[i + 1] = ' ';
                ++i;
                state = S::Code;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
        case S::Str:
            if (c == '\\' && n != '\0') {
                if (blank_literals)
                    out[i] = out[i + 1] = ' ';
                ++i;
            } else if (c == '"') {
                state = S::Code;
            } else if (blank_literals && c != '\n') {
                out[i] = ' ';
            }
            break;
        case S::Chr:
            if (c == '\\' && n != '\0') {
                if (blank_literals)
                    out[i] = out[i + 1] = ' ';
                ++i;
            } else if (c == '\'') {
                state = S::Code;
            } else if (blank_literals && c != '\n') {
                out[i] = ' ';
            }
            break;
        case S::Raw:
            if (c == raw_delim[0] &&
                src.compare(i, raw_delim.size(), raw_delim) == 0) {
                i += raw_delim.size() - 1;
                state = S::Code;
            } else if (blank_literals && c != '\n') {
                out[i] = ' ';
            }
            break;
        }
    }
    return out;
}

std::vector<Finding>
lintFileContent(const std::string &relPath, const std::string &content)
{
    std::vector<Finding> findings;
    const std::string text = stripForLint(content, true);

    for (const TokenRule &rule : tokenRules()) {
        if (!inScope(rule, relPath))
            continue;
        for (const std::string &pattern : rule.patterns) {
            for (const auto &match : findAll(pattern, text))
                findings.push_back({relPath, lineOf(text, match.first),
                                    rule.name, rule.message});
        }
    }
    return findings;
}

std::vector<std::string>
registrationNames(const std::string &content)
{
    std::vector<std::string> out;
    for (const Registration &r : extractRegistrations(content))
        out.push_back(r.name);
    return out;
}

std::vector<Finding>
lintRegistrations(const std::string &relPath, const std::string &content,
                  const std::string &docsText)
{
    std::vector<Finding> findings;
    for (const Registration &r : extractRegistrations(content))
        if (docsText.find(r.name) == std::string::npos)
            findings.push_back(
                {relPath, r.line, "docs",
                 "registration string \"" + r.name +
                     "\" is not documented in docs/FORMATS.md or "
                     "docs/ARCHITECTURE.md"});
    return findings;
}

std::vector<Finding>
lintTree(const std::string &repoRoot, std::string *err)
{
    std::vector<Finding> findings;
    const fs::path root(repoRoot);

    const auto slurp = [](const fs::path &p, std::string *out) {
        std::ifstream in(p);
        if (!in)
            return false;
        std::ostringstream buf;
        buf << in.rdbuf();
        *out = buf.str();
        return true;
    };

    std::string docsText;
    for (const char *doc : {"docs/FORMATS.md", "docs/ARCHITECTURE.md"}) {
        std::string text;
        if (!slurp(root / doc, &text)) {
            const std::string msg =
                std::string("cannot read ") + doc +
                " (needed for the docs cross-check)";
            if (err != nullptr)
                *err = msg;
            findings.push_back({doc, 0, "docs", msg});
            return findings;
        }
        docsText += text;
        docsText += '\n';
    }

    std::vector<fs::path> files;
    for (const char *top : {"src", "tools", "bench"}) {
        std::error_code ec;
        fs::recursive_directory_iterator it(root / top, ec);
        if (ec) {
            const std::string msg = std::string("cannot scan ") + top +
                                    "/: " + ec.message();
            if (err != nullptr)
                *err = msg;
            findings.push_back({top, 0, "scan", msg});
            return findings;
        }
        for (; it != fs::recursive_directory_iterator(); ++it) {
            const fs::path &p = it->path();
            if (it->is_regular_file() &&
                (p.extension() == ".cc" || p.extension() == ".h"))
                files.push_back(p);
        }
    }
    std::sort(files.begin(), files.end());

    for (const fs::path &p : files) {
        std::string content;
        if (!slurp(p, &content)) {
            findings.push_back(
                {p.lexically_relative(root).generic_string(), 0, "scan",
                 "cannot read file"});
            continue;
        }
        const std::string rel =
            p.lexically_relative(root).generic_string();
        std::vector<Finding> f = lintFileContent(rel, content);
        std::vector<Finding> d =
            lintRegistrations(rel, content, docsText);
        findings.insert(findings.end(), f.begin(), f.end());
        findings.insert(findings.end(), d.begin(), d.end());
    }

    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
    return findings;
}

} // namespace lint
} // namespace guoq
