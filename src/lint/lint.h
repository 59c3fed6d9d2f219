/**
 * @file
 * The guoq_lint rule engine: repo-specific static checks the compiler
 * cannot express, run over `src/ tools/ bench/` by the guoq_lint tool
 * (registered in CTest and run in CI) and unit-tested against the
 * fixtures in tests/lint_fixtures/.
 *
 * Rules (each applies to a path scope; see ruleCatalog()):
 *  - thread-seam:   `std::thread` / `.detach()` / async launches
 *                   only inside the approved concurrency seams
 *                   (core/portfolio,
 *                   synth/pool, serve/, verify/sampling,
 *                   bench/harness). Everything else must go through
 *                   those seams, so the TSan tier and the annotation
 *                   inventory in docs/CONCURRENCY.md stay exhaustive.
 *  - serve-fatal:   no `fatal()` / `abort()` in library code on the
 *                   --serve worker path (src/serve, src/synth,
 *                   src/verify): a bad request must become an error
 *                   row, never process death. (The path into core is
 *                   guarded by Optimizer::checkRequest; core and the
 *                   front ends keep their legacy fatal() diagnostics
 *                   for direct CLI use.)
 *  - determinism:   no `std::rand` / `srand` / `time(nullptr)` /
 *                   `std::random_device` anywhere in src/ — all
 *                   randomness flows from seeded support::Rng streams
 *                   so fixed-seed runs stay bit-for-bit reproducible.
 *  - allocation:    no naked `new T[...]` / `malloc` family in src/;
 *                   containers or std::make_unique own every buffer.
 *  - docs:          every OptimizerRegistry / CheckerRegistry /
 *                   bench-case registration string must appear in
 *                   docs/FORMATS.md or docs/ARCHITECTURE.md, so the
 *                   user-facing name catalog cannot drift from code.
 *
 * Matching runs on comment-stripped text (string/char literals are
 * additionally blanked for the token rules, so a rule name mentioned
 * in a diagnostic message never trips the rule itself).
 */

#pragma once

#include <string>
#include <vector>

namespace guoq {
namespace lint {

/** One rule violation, located for file:line diagnostics. */
struct Finding
{
    std::string file; //!< repo-relative path (forward slashes)
    int line = 0;     //!< 1-based
    std::string rule;
    std::string message;
};

/** One rule's name and one-line purpose, for --list-rules. */
struct RuleInfo
{
    std::string name;
    std::string summary;
};

/** The rules in the order they run. */
const std::vector<RuleInfo> &ruleCatalog();

/**
 * Blank comment bodies with spaces (newlines kept, so line numbers
 * survive). With @p blank_literals also blanks the contents of
 * string/char literals (including raw strings). Quote characters
 * themselves are kept so the text stays visibly literal-shaped.
 */
std::string stripForLint(const std::string &src, bool blank_literals);

/**
 * Run the token rules (thread-seam, serve-fatal, determinism,
 * allocation) over one file's @p content. @p relPath is the
 * repo-relative path (forward slashes) and decides which rules apply.
 */
std::vector<Finding> lintFileContent(const std::string &relPath,
                                     const std::string &content);

/**
 * Registration strings declared in @p content: bench CaseRegistrar
 * ids, OptimizerInfo names (info_.name assignments and the literal
 * passed to make_unique<...Optimizer>(...)), and CheckerInfo names.
 */
std::vector<std::string> registrationNames(const std::string &content);

/** The docs rule for one file against the concatenated docs text. */
std::vector<Finding> lintRegistrations(const std::string &relPath,
                                       const std::string &content,
                                       const std::string &docsText);

/**
 * Run every rule over `src/ tools/ bench/` under @p repoRoot (the
 * docs rule reads docs/FORMATS.md and docs/ARCHITECTURE.md). Returns
 * findings sorted by (file, line). An unreadable tree reports through
 * @p err (when non-null) and yields a synthetic finding, so a broken
 * checkout can never pass as clean.
 */
std::vector<Finding> lintTree(const std::string &repoRoot,
                              std::string *err = nullptr);

} // namespace lint
} // namespace guoq
