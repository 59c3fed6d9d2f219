#include "verify/checker.h"

#include <cmath>

#include "support/logging.h"

namespace guoq {
namespace verify {

const char *
verdictName(Verdict v)
{
    return v == Verdict::Equivalent ? "equivalent" : "inequivalent";
}

Verdict
verdictFor(double estimate, double bound, const VerifyRequest &req)
{
    return estimate - bound > req.epsilon + req.tolerance
               ? Verdict::Inequivalent
               : Verdict::Equivalent;
}

std::string
EquivalenceChecker::checkRequest(const ir::Circuit &a,
                                 const ir::Circuit &b,
                                 const VerifyRequest &req) const
{
    if (a.numQubits() != b.numQubits())
        return support::strcat("qubit count mismatch (", a.numQubits(),
                               " vs ", b.numQubits(), ")");
    if (!(req.epsilon >= 0) || !std::isfinite(req.epsilon))
        return "epsilon must be a finite value >= 0";
    if (req.shots < 1)
        return "shots must be >= 1";
    if (!(req.confidence > 0) || !(req.confidence < 1))
        return "confidence must be in (0, 1)";
    if (req.threads < 1 || req.threads > 1024)
        return "threads must be in [1, 1024]";
    return "";
}

void
CheckerRegistry::add(std::unique_ptr<EquivalenceChecker> c)
{
    if (find(c->info().name))
        support::panic("CheckerRegistry: duplicate checker '" +
                       c->info().name + "'");
    checkers_.push_back(std::move(c));
}

const EquivalenceChecker *
CheckerRegistry::find(const std::string &name) const
{
    for (const auto &c : checkers_)
        if (c->info().name == name)
            return c.get();
    return nullptr;
}

std::vector<const EquivalenceChecker *>
CheckerRegistry::all() const
{
    std::vector<const EquivalenceChecker *> out;
    out.reserve(checkers_.size());
    for (const auto &c : checkers_)
        out.push_back(c.get());
    return out;
}

std::vector<std::string>
CheckerRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(checkers_.size());
    for (const auto &c : checkers_)
        out.push_back(c->info().name);
    return out;
}

const CheckerRegistry &
CheckerRegistry::global()
{
    // Built on first use (thread-safe magic static) rather than by
    // static registrars, for the same archive-member-elision reason as
    // OptimizerRegistry::global().
    static const CheckerRegistry *registry = [] {
        auto *r = new CheckerRegistry;
        registerDenseChecker(*r);
        registerSamplingChecker(*r);
        registerCertificateChecker(*r);
        registerAutoChecker(*r);
        return r;
    }();
    return *registry;
}

VerifyReport
verifyEquivalence(const ir::Circuit &a, const ir::Circuit &b,
                  const VerifyRequest &req)
{
    // panic, not fatal: reaching here with an unknown method or an
    // unrunnable request is a caller contract violation (front ends
    // validate before dispatch), and library code on the --serve
    // worker path must never turn a bad request into process exit.
    const EquivalenceChecker *c = CheckerRegistry::global().find(req.method);
    if (!c)
        support::panic("verifyEquivalence: unknown method '" +
                       req.method + "'");
    const std::string err = c->checkRequest(a, b, req);
    if (!err.empty())
        support::panic("verifyEquivalence: " + err);
    return c->run(a, b, req);
}

namespace {

/** The certificate when a derivation is attached; otherwise, or when
 *  the certificate does not establish equivalence, width-based
 *  dispatch: dense where it fits, sampling above. */
class AutoChecker final : public EquivalenceChecker
{
  public:
    AutoChecker(const EquivalenceChecker *dense,
                const EquivalenceChecker *sampling)
        : dense_(dense), sampling_(sampling)
    {
    }

    const CheckerInfo &
    info() const override
    {
        static const CheckerInfo kInfo{
            "auto", "certificate when the optimizer recorded a "
                    "derivation; else dense up to 10 qubits, sampling "
                    "above"};
        return kInfo;
    }

    std::string
    checkRequest(const ir::Circuit &a, const ir::Circuit &b,
                 const VerifyRequest &req) const override
    {
        // A derivation is checked at any width.
        if (req.derivation != nullptr)
            return EquivalenceChecker::checkRequest(a, b, req);
        return pick(a)->checkRequest(a, b, req);
    }

    VerifyReport
    run(const ir::Circuit &a, const ir::Circuit &b,
        const VerifyRequest &req) const override
    {
        // The report's `method` names the backend that actually ran,
        // so consumers (batch JSON, CLI) see the policy's choice.
        if (req.derivation == nullptr)
            return pick(a)->run(a, b, req);
        VerifyReport cert = certify(a, b, *req.derivation, req);
        if (cert.verdict == Verdict::Equivalent ||
            !pick(a)->checkRequest(a, b, req).empty())
            return cert;
        return pick(a)->run(a, b, req);
    }

  private:
    const EquivalenceChecker *
    pick(const ir::Circuit &a) const
    {
        return a.numQubits() <= kDenseAutoMaxQubits ? dense_ : sampling_;
    }

    const EquivalenceChecker *dense_;
    const EquivalenceChecker *sampling_;
};

} // namespace

void
registerAutoChecker(CheckerRegistry &r)
{
    const EquivalenceChecker *dense = r.find("dense");
    const EquivalenceChecker *sampling = r.find("sampling");
    if (!dense || !sampling)
        support::panic("registerAutoChecker: register dense and "
                       "sampling first");
    r.add(std::make_unique<AutoChecker>(dense, sampling));
}

} // namespace verify
} // namespace guoq
