/**
 * @file
 * The guoq_lint rule engine (src/lint/): the comment/literal stripper,
 * every token rule against its violating and clean fixture in
 * tests/lint_fixtures/, path scoping (seam exemptions, serve-fatal
 * confinement), registration-string extraction, the docs cross-check,
 * and an end-to-end run over the real repository tree, which must be
 * clean — the same invariant CI's guoq_lint job enforces.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/lint.h"

namespace guoq {
namespace {

std::string
fixture(const std::string &name)
{
    const std::string path =
        std::string(GUOQ_SOURCE_DIR) + "/tests/lint_fixtures/" + name;
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing fixture " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

std::vector<std::string>
rulesIn(const std::vector<lint::Finding> &findings)
{
    std::vector<std::string> rules;
    for (const lint::Finding &f : findings)
        rules.push_back(f.rule);
    return rules;
}

bool
fires(const std::vector<lint::Finding> &findings, const std::string &rule)
{
    const std::vector<std::string> rules = rulesIn(findings);
    return std::find(rules.begin(), rules.end(), rule) != rules.end();
}

long
countRule(const std::vector<lint::Finding> &findings,
          const std::string &rule)
{
    const std::vector<std::string> rules = rulesIn(findings);
    return std::count(rules.begin(), rules.end(), rule);
}

// --- stripping -------------------------------------------------------

TEST(LintStrip, BlanksCommentsButKeepsLineStructure)
{
    const std::string src = "int a; // std::thread here\n"
                            "/* fatal(\n"
                            "   more */ int b;\n";
    const std::string out = lint::stripForLint(src, true);
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
    EXPECT_EQ(out.find("std::thread"), std::string::npos);
    EXPECT_EQ(out.find("fatal"), std::string::npos);
    EXPECT_NE(out.find("int a;"), std::string::npos);
    EXPECT_NE(out.find("int b;"), std::string::npos);
}

TEST(LintStrip, BlanksLiteralContentOnlyWhenAsked)
{
    const std::string src = "const char *m = \"call fatal( now\";\n";
    const std::string blanked = lint::stripForLint(src, true);
    EXPECT_EQ(blanked.find("fatal"), std::string::npos);
    const std::string kept = lint::stripForLint(src, false);
    EXPECT_NE(kept.find("call fatal( now"), std::string::npos);
}

TEST(LintStrip, HandlesRawStringsAndCharLiterals)
{
    const std::string src =
        "auto r = R\"(std::rand inside raw)\";\n"
        "char c = '\\'';\n"
        "int after = 1;\n";
    const std::string out = lint::stripForLint(src, true);
    EXPECT_EQ(out.find("std::rand"), std::string::npos);
    EXPECT_NE(out.find("int after = 1;"), std::string::npos);
}

// --- token rules against the fixtures --------------------------------

TEST(LintRules, ThreadSeamFiresOutsideSeams)
{
    const auto findings = lint::lintFileContent(
        "src/qasm/parser.cc", fixture("thread_seam_bad.cc"));
    EXPECT_TRUE(fires(findings, "thread-seam"));
    // The construction, the detach, and the std::async are reported.
    EXPECT_GE(countRule(findings, "thread-seam"), 3);
}

TEST(LintRules, ThreadSeamSilentOnCleanFileAndInsideSeams)
{
    EXPECT_TRUE(lint::lintFileContent("src/qasm/parser.cc",
                                      fixture("thread_seam_ok.cc"))
                    .empty());
    // The same violating content is legal inside an approved seam.
    EXPECT_TRUE(lint::lintFileContent("src/synth/pool.cc",
                                      fixture("thread_seam_bad.cc"))
                    .empty());
    EXPECT_TRUE(lint::lintFileContent("src/serve/server.cc",
                                      fixture("thread_seam_bad.cc"))
                    .empty());
}

TEST(LintRules, ServeFatalFiresOnWorkerPath)
{
    const auto findings = lint::lintFileContent(
        "src/serve/server.cc", fixture("serve_fatal_bad.cc"));
    EXPECT_TRUE(fires(findings, "serve-fatal"));
    EXPECT_TRUE(fires(lint::lintFileContent(
                          "src/verify/checker.cc",
                          fixture("serve_fatal_bad.cc")),
                      "serve-fatal"));
}

TEST(LintRules, ServeFatalScopedToServeSynthVerify)
{
    EXPECT_TRUE(lint::lintFileContent("src/serve/server.cc",
                                      fixture("serve_fatal_ok.cc"))
                    .empty());
    // core keeps its legacy fatal() diagnostics for direct CLI use.
    EXPECT_FALSE(fires(lint::lintFileContent(
                           "src/core/optimizer.cc",
                           fixture("serve_fatal_bad.cc")),
                       "serve-fatal"));
}

TEST(LintRules, DeterminismFiresOnEveryEntropySource)
{
    const auto findings = lint::lintFileContent(
        "src/synth/qsearch.cc", fixture("determinism_bad.cc"));
    // srand, time(nullptr), random_device, std::rand: four hits.
    EXPECT_GE(countRule(findings, "determinism"), 4);
}

TEST(LintRules, DeterminismSilentOnSeededStream)
{
    EXPECT_TRUE(lint::lintFileContent("src/synth/qsearch.cc",
                                      fixture("determinism_ok.cc"))
                    .empty());
    // The rule covers src/ only; bench drivers may read the clock.
    EXPECT_TRUE(lint::lintFileContent("bench/bench_fig7.cc",
                                      fixture("determinism_bad.cc"))
                    .empty());
}

TEST(LintRules, AllocationFiresOnNakedArrayNewAndMalloc)
{
    const auto findings = lint::lintFileContent(
        "src/linalg/complex_matrix.cc", fixture("allocation_bad.cc"));
    EXPECT_GE(countRule(findings, "allocation"), 2);
    EXPECT_GT(findings.front().line, 0);
}

TEST(LintRules, AllocationAllowsOwnedBuffers)
{
    EXPECT_TRUE(lint::lintFileContent("src/linalg/complex_matrix.cc",
                                      fixture("allocation_ok.cc"))
                    .empty());
}

// --- registration extraction and the docs rule -----------------------

TEST(LintDocs, ExtractsRegistrationNames)
{
    const auto names = lint::registrationNames(fixture("docs_bad.cc"));
    EXPECT_NE(std::find(names.begin(), names.end(), "fig99/ghost"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "ghost-checker"),
              names.end());
}

TEST(LintDocs, ExtractsOptimizerNames)
{
    const std::string content =
        "void f() {\n"
        "  r.add(std::make_unique<BeamOptimizer>(\"beam\", 4));\n"
        "  info_.name = \"guoq-rewrite\";\n"
        "}\n";
    const auto names = lint::registrationNames(content);
    EXPECT_NE(std::find(names.begin(), names.end(), "beam"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "guoq-rewrite"),
              names.end());
}

TEST(LintDocs, FlagsUndocumentedNamesOnly)
{
    const std::string docs = "documented: fig1 and dense.\n";
    EXPECT_TRUE(fires(lint::lintRegistrations(
                          "bench/bench_fig99.cc", fixture("docs_bad.cc"),
                          docs),
                      "docs"));
    EXPECT_TRUE(lint::lintRegistrations("bench/bench_fig1.cc",
                                        fixture("docs_ok.cc"), docs)
                    .empty());
}

TEST(LintDocs, IgnoresNamesInsideComments)
{
    const std::string content =
        "// static CaseRegistrar kOld(\"fig0/retired\", 0);\n";
    EXPECT_TRUE(lint::registrationNames(content).empty());
}

// --- the catalog and the real tree -----------------------------------

TEST(LintCatalog, ListsEveryRule)
{
    const auto &catalog = lint::ruleCatalog();
    ASSERT_EQ(catalog.size(), 5u);
    const std::vector<std::string> expected = {
        "thread-seam", "serve-fatal", "determinism", "allocation",
        "docs"};
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(catalog[i].name, expected[i]);
}

TEST(LintTree, RealRepositoryIsClean)
{
    std::string err;
    const auto findings = lint::lintTree(GUOQ_SOURCE_DIR, &err);
    EXPECT_TRUE(err.empty()) << err;
    for (const lint::Finding &f : findings)
        ADD_FAILURE() << f.file << ":" << f.line << ": [" << f.rule
                      << "] " << f.message;
}

TEST(LintTree, MissingRootReportsInsteadOfPassing)
{
    std::string err;
    const auto findings =
        lint::lintTree("/nonexistent/guoq-lint-root", &err);
    EXPECT_FALSE(findings.empty());
    EXPECT_FALSE(err.empty());
}

} // namespace
} // namespace guoq
