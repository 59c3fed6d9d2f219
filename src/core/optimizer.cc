#include "core/optimizer.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "support/logging.h"

namespace guoq {
namespace core {

const char *
paramKindName(ParamSpec::Kind kind)
{
    switch (kind) {
    case ParamSpec::Kind::Double: return "number";
    case ParamSpec::Kind::Int: return "integer";
    case ParamSpec::Kind::Bool: return "bool";
    }
    return "value";
}

namespace {

bool
parseDoubleStrict(const std::string &v, double &out)
{
    if (v.empty())
        return false;
    char *end = nullptr;
    out = std::strtod(v.c_str(), &end);
    return end && *end == '\0' && std::isfinite(out);
}

bool
parseLongStrict(const std::string &v, long &out)
{
    if (v.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    out = std::strtol(v.c_str(), &end, 10);
    // ERANGE would otherwise clamp to LONG_MIN/MAX and pass the
    // "fail loudly" validation with a silently garbled value.
    return end && *end == '\0' && errno != ERANGE;
}

bool
parseBoolStrict(const std::string &v, bool &out)
{
    if (v == "true" || v == "1") {
        out = true;
        return true;
    }
    if (v == "false" || v == "0") {
        out = false;
        return true;
    }
    return false;
}

bool
valueParses(ParamSpec::Kind kind, const std::string &v)
{
    double d;
    long l;
    bool b;
    switch (kind) {
    case ParamSpec::Kind::Double: return parseDoubleStrict(v, d);
    case ParamSpec::Kind::Int:
        // Every declared Int param lands in an int-width knob; a
        // value that narrows is as wrong as one that doesn't parse.
        return parseLongStrict(v, l) && l >= INT_MIN && l <= INT_MAX;
    case ParamSpec::Kind::Bool: return parseBoolStrict(v, b);
    }
    return false;
}

std::size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<std::size_t> prev(b.size() + 1), curr(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        prev[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        curr[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t sub =
                prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
            curr[j] = std::min({prev[j] + 1, curr[j - 1] + 1, sub});
        }
        std::swap(prev, curr);
    }
    return prev[b.size()];
}

/** Removed parameters -> their replacements, for did-you-mean. */
const std::pair<const char *, const char *> kRetiredParams[] = {
    {"async-resynth", "synth-workers"},
};

} // namespace

std::string
closestName(const std::string &name,
            const std::vector<std::string> &candidates)
{
    std::string best;
    std::size_t best_d = 4; // suggestions beyond distance 3 mislead
    for (const std::string &c : candidates) {
        // One name being a prefix of the other ("qiskit" for
        // "qiskit-like") is as strong a signal as a near-typo.
        const bool prefix = !name.empty() &&
                            (c.compare(0, name.size(), name) == 0 ||
                             name.compare(0, c.size(), c) == 0);
        const std::size_t d = prefix ? 1 : editDistance(name, c);
        if (d < best_d) {
            best_d = d;
            best = c;
        }
    }
    return best;
}

std::string
checkParams(const OptimizerInfo &info, const ParamMap &params)
{
    std::vector<std::string> keys;
    keys.reserve(info.params.size());
    for (const ParamSpec &p : info.params)
        keys.push_back(p.key);

    for (const auto &[key, value] : params) {
        const auto it = std::find_if(
            info.params.begin(), info.params.end(),
            [&key](const ParamSpec &p) { return p.key == key; });
        if (it == info.params.end()) {
            std::string msg = support::strcat(
                "unknown parameter '", key, "' for algorithm '",
                info.name, "'");
            std::string guess = closestName(key, keys);
            for (const auto &[retired, replacement] : kRetiredParams)
                if (key == retired &&
                    std::find(keys.begin(), keys.end(), replacement) !=
                        keys.end())
                    guess = replacement;
            if (!guess.empty())
                msg += support::strcat(" (did you mean '", guess, "'?)");
            if (keys.empty()) {
                msg += "; it takes no parameters";
            } else {
                msg += "; known parameters:";
                for (const std::string &k : keys)
                    msg += support::strcat(" ", k);
            }
            return msg;
        }
        if (!valueParses(it->kind, value))
            return support::strcat("parameter '", key, "' of '",
                                   info.name, "' expects a ",
                                   paramKindName(it->kind), ", got '",
                                   value, "'");
    }
    return "";
}

double
paramDouble(const ParamMap &params, const std::string &key,
            double fallback)
{
    const auto it = params.find(key);
    if (it == params.end())
        return fallback;
    double out;
    if (!parseDoubleStrict(it->second, out))
        support::fatal(support::strcat("param ", key, ": bad number '",
                                       it->second, "'"));
    return out;
}

long
paramLong(const ParamMap &params, const std::string &key, long fallback)
{
    const auto it = params.find(key);
    if (it == params.end())
        return fallback;
    long out;
    if (!parseLongStrict(it->second, out))
        support::fatal(support::strcat("param ", key, ": bad integer '",
                                       it->second, "'"));
    return out;
}

bool
paramBool(const ParamMap &params, const std::string &key, bool fallback)
{
    const auto it = params.find(key);
    if (it == params.end())
        return fallback;
    bool out;
    if (!parseBoolStrict(it->second, out))
        support::fatal(support::strcat("param ", key, ": bad bool '",
                                       it->second,
                                       "' (use true/false/1/0)"));
    return out;
}

std::string
Optimizer::checkRequest(const OptimizeRequest &req) const
{
    return checkParams(info(), req.params);
}

void
OptimizerRegistry::add(std::unique_ptr<Optimizer> opt)
{
    const std::string &name = opt->info().name;
    if (find(name))
        support::fatal(
            support::strcat("optimizer '", name, "' registered twice"));
    optimizers_.push_back(std::move(opt));
}

const Optimizer *
OptimizerRegistry::find(const std::string &name) const
{
    for (const auto &opt : optimizers_)
        if (opt->info().name == name)
            return opt.get();
    return nullptr;
}

std::vector<const Optimizer *>
OptimizerRegistry::all() const
{
    std::vector<const Optimizer *> out;
    out.reserve(optimizers_.size());
    for (const auto &opt : optimizers_)
        out.push_back(opt.get());
    return out;
}

std::vector<std::string>
OptimizerRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(optimizers_.size());
    for (const auto &opt : optimizers_)
        out.push_back(opt->info().name);
    return out;
}

const OptimizerRegistry &
OptimizerRegistry::global()
{
    // Built on first use (thread-safe magic static) rather than by
    // static registrars: the registrar idiom silently loses entries to
    // archive-member elision when the library is linked statically.
    static const OptimizerRegistry *registry = [] {
        auto *r = new OptimizerRegistry;
        registerGuoqOptimizers(*r);
        registerBaselineOptimizers(*r);
        return r;
    }();
    return *registry;
}

// --- the GUOQ family -------------------------------------------------

namespace {

/**
 * GUOQ and its Q2/Q3 ablations behind the interface. threads > 1 runs
 * the parallel portfolio; threads == 1 with default params is
 * bit-for-bit core::optimize() (the portfolio's single-thread
 * passthrough), which the determinism tests pin down.
 */
class GuoqFamilyOptimizer : public Optimizer
{
  public:
    GuoqFamilyOptimizer(std::string name, std::string summary,
                        TransformSelection selection)
        : selection_(selection)
    {
        info_.name = std::move(name);
        info_.summary = std::move(summary);
        info_.recordsDerivation = true;
        using K = ParamSpec::Kind;
        info_.params = {
            {"temperature", K::Double,
             "Metropolis acceptance temperature t", "10"},
            {"resynth-prob", K::Double,
             "probability of sampling resynthesis", "0.015"},
            {"max-subcircuit-qubits", K::Int,
             "subcircuit qubit cap for resynthesis", "3"},
            {"resynth-call-seconds", K::Double,
             "wall-clock cap per synthesis call", "1"},
            {"resynth-call-epsilon", K::Double,
             "nominal eps per resynthesis call (<=0: auto)", "-1"},
            {"synth-workers", K::Int,
             "async resynthesis workers (0 = synchronous)", "0"},
            {"trace", K::Bool, "record a best-cost-over-time trace",
             "false"},
            {"sync-interval", K::Double,
             "seconds between portfolio best exchanges", "0.5"},
            {"exchange-best", K::Bool,
             "portfolio workers adopt the global best", "true"},
        };
    }

    const OptimizerInfo &info() const override { return info_; }

    std::string
    checkRequest(const OptimizeRequest &req) const override
    {
        std::string err = Optimizer::checkRequest(req);
        // Surface optimize()'s resynth-only fatal() as a validation
        // error a driver can report cleanly (usage error, not abort).
        if (err.empty() &&
            selection_ == TransformSelection::ResynthOnly &&
            !(req.epsilonTotal > 0))
            err = support::strcat(
                "algorithm '", info_.name,
                "' requires an approximation budget (epsilon > 0): "
                "resynthesis-only optimization has no exact moves");
        if (err.empty() &&
            paramLong(req.params, "synth-workers", 0) < 0)
            err = support::strcat("parameter 'synth-workers' of '",
                                  info_.name, "' must be >= 0");
        return err;
    }

    OptimizeReport
    run(const ir::Circuit &c, const OptimizeRequest &req) const override
    {
        PortfolioConfig cfg;
        cfg.base.epsilonTotal = req.epsilonTotal;
        cfg.base.objective = req.objective;
        cfg.base.timeBudgetSeconds = req.timeBudgetSeconds;
        cfg.base.maxIterations = req.maxIterations;
        cfg.base.seed = req.seed;
        cfg.base.selection = selection_;
        cfg.base.hooks = req.hooks;
        cfg.base.recordDerivation = req.recordDerivation;
        cfg.base.temperature =
            paramDouble(req.params, "temperature", cfg.base.temperature);
        cfg.base.resynthProbability = paramDouble(
            req.params, "resynth-prob", cfg.base.resynthProbability);
        cfg.base.maxSubcircuitQubits = static_cast<int>(
            paramLong(req.params, "max-subcircuit-qubits",
                      cfg.base.maxSubcircuitQubits));
        cfg.base.resynthCallSeconds =
            paramDouble(req.params, "resynth-call-seconds",
                        cfg.base.resynthCallSeconds);
        cfg.base.resynthCallEpsilon =
            paramDouble(req.params, "resynth-call-epsilon",
                        cfg.base.resynthCallEpsilon);
        cfg.base.synthWorkers = static_cast<int>(paramLong(
            req.params, "synth-workers", cfg.base.synthWorkers));
        cfg.base.recordTrace =
            paramBool(req.params, "trace", cfg.base.recordTrace);
        cfg.threads = req.threads;
        cfg.syncIntervalSeconds = paramDouble(
            req.params, "sync-interval", cfg.syncIntervalSeconds);
        cfg.exchangeBest =
            paramBool(req.params, "exchange-best", cfg.exchangeBest);

        OptimizeReport report = optimizePortfolio(c, req.set, cfg);
        report.algorithm = info_.name;
        return report;
    }

  private:
    OptimizerInfo info_;
    TransformSelection selection_;
};

} // namespace

void
registerGuoqOptimizers(OptimizerRegistry &r)
{
    r.add(std::make_unique<GuoqFamilyOptimizer>(
        "guoq",
        "GUOQ: randomized interleaving of rewrites and resynthesis "
        "(Alg. 1); threads>1 runs the parallel portfolio",
        TransformSelection::Combined));
    r.add(std::make_unique<GuoqFamilyOptimizer>(
        "guoq-rewrite",
        "GUOQ-REWRITE ablation: rewrite rules only (Q2), exact",
        TransformSelection::RewriteOnly));
    r.add(std::make_unique<GuoqFamilyOptimizer>(
        "guoq-resynth",
        "GUOQ-RESYNTH ablation: resynthesis only (Q2); requires "
        "epsilon > 0",
        TransformSelection::ResynthOnly));
}

} // namespace core
} // namespace guoq
