#include "bench/emit.h"

#include <cmath>
#include <iterator>

#include "support/json.h"

namespace guoq {
namespace bench {

namespace {

using support::jsonNumber;

std::string
csvNumber(double v)
{
    // Mirror the JSON emitter's null: an empty field rather than a
    // platform-spelled "nan"/"inf" token numeric CSV readers trip on.
    return std::isfinite(v) ? jsonNumber(v) : "";
}

std::string
u64(std::uint64_t v)
{
    return std::to_string(v);
}

} // namespace

std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\n\r") == std::string::npos)
        return s;
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

std::string
toJson(const RunMeta &meta, const std::vector<CaseResult> &results)
{
    using support::JsonObject;
    std::string out;
    JsonObject doc(out, JsonObject::Layout::Pretty);
    doc.str("schema", "guoq-bench-v1");
    JsonObject run = doc.object("run");
    run.num("scale", jsonNumber(meta.scale));
    run.num("trials", std::to_string(meta.trials));
    run.num("seed", u64(meta.seed));
    run.num("threads", std::to_string(meta.threads));
    std::vector<std::string> cases;
    for (const std::string &c : meta.cases)
        cases.push_back(support::jsonString(c));
    run.list("cases", cases);
    JsonObject machine = run.object("machine");
    machine.str("cpu", meta.machine.cpu);
    machine.num("logical_cores", std::to_string(meta.machine.logicalCores));
    machine.str("simd", meta.machine.simd);
    machine.str("compiler", meta.machine.compiler);
    machine.str("build_type", meta.machine.buildType);
    machine.close();
    run.close();
    doc.objects("results", results,
                [](JsonObject &row, const CaseResult &r) {
                    row.str("case", r.caseId);
                    row.str("benchmark", r.benchmark);
                    row.str("tool", r.tool);
                    row.str("algorithm", r.algorithm);
                    row.str("metric", r.metric);
                    row.num("value", jsonNumber(r.value));
                    row.num("seconds", jsonNumber(r.seconds));
                    row.num("trial", std::to_string(r.trial));
                    row.num("seed", u64(r.seed));
                    std::vector<std::string> workers;
                    for (const double w : r.workerSeconds)
                        workers.push_back(jsonNumber(w));
                    row.list("workers", workers);
                    const synth::ResynthCounters &cache =
                        r.stats.synthCache;
                    row.num("synth_cache_hits", std::to_string(cache.hits));
                    row.num("synth_cache_misses",
                            std::to_string(cache.misses));
                    row.num("synth_cache_stores",
                            std::to_string(cache.stores));
                });
    doc.close();
    out += '\n';
    return out;
}

std::string
toCsv(const std::vector<CaseResult> &results)
{
    // New columns are appended LAST: the schema policy (docs/FORMATS.md)
    // promises additive evolution, and positional CSV consumers must
    // keep reading the original columns unshifted.
    std::string out = "case,benchmark,tool,metric,value,seconds,trial,"
                      "seed,workers,algorithm,synth_cache_hits,"
                      "synth_cache_misses,synth_cache_stores\n";
    for (const CaseResult &r : results) {
        std::string workers;
        for (std::size_t w = 0; w < r.workerSeconds.size(); ++w) {
            if (w)
                workers += ';';
            workers += csvNumber(r.workerSeconds[w]);
        }
        const std::string fields[] = {
            csvField(r.caseId),    csvField(r.benchmark),
            csvField(r.tool),      csvField(r.metric),
            csvNumber(r.value),    csvNumber(r.seconds),
            std::to_string(r.trial), u64(r.seed),
            csvField(workers),     csvField(r.algorithm),
            std::to_string(r.stats.synthCache.hits),
            std::to_string(r.stats.synthCache.misses),
            std::to_string(r.stats.synthCache.stores)};
        for (std::size_t f = 0; f < std::size(fields); ++f) {
            if (f)
                out += ',';
            out += fields[f];
        }
        out += '\n';
    }
    return out;
}

} // namespace bench
} // namespace guoq
