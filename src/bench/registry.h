/**
 * @file
 * The benchmark-case registry: every figure/table harness registers
 * its cases here (via a static CaseRegistrar in its own translation
 * unit), and guoq_bench selects from it by filter: exact id or
 * leading path component
 * ("fig12" matches "fig12/t" but not "fig120"), with a substring
 * fallback for filters that match nothing that way.
 */

#pragma once

#include <string>
#include <vector>

#include "bench/harness.h"

namespace guoq {
namespace bench {

/** One registered benchmark case. */
struct BenchCase
{
    std::string id;    //!< e.g. "fig8/2q"; see matching() for filters
    std::string title; //!< one-line description for --list
    int order = 0;     //!< canonical run/list position (paper order)
    CaseFn fn;
};

/** Process-wide case registry (insertion from static registrars). */
class Registry
{
  public:
    static Registry &instance();

    void add(BenchCase c);

    /**
     * Cases matching any of @p filters (all cases when the list is
     * empty), sorted by (order, id). A filter matches a case whose id
     * equals it or starts with it at a '/' boundary — "fig1" selects
     * fig1 only, not fig10..fig15 — and a filter with no such hit
     * falls back to substring matching ("fidelity" still selects
     * fig8/fidelity and fig9/fidelity).
     */
    std::vector<const BenchCase *>
    matching(const std::vector<std::string> &filters) const;

  private:
    std::vector<BenchCase> cases_;
};

/** Registers a case at static-initialization time. */
struct CaseRegistrar
{
    CaseRegistrar(std::string id, std::string title, int order,
                  CaseFn fn);
};

} // namespace bench
} // namespace guoq
