#include "bench/emit.h"

#include <cmath>
#include <iterator>

#include "support/json.h"

namespace guoq {
namespace bench {

namespace {

using support::jsonEscape;
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
    // Sequential appends rather than operator+ chains: GCC 12's
    // -Werror=restrict misfires on `const char * + std::string &&`.
    std::string out;
    auto str = [&out](const char *key, const std::string &v,
                      const char *indent) {
        out += indent;
        out += key;
        out += ": \"";
        out += jsonEscape(v);
        out += "\"";
    };
    auto num = [&out](const char *key, const std::string &v,
                      const char *indent) {
        out += indent;
        out += key;
        out += ": ";
        out += v;
    };
    out += "{\n";
    out += "  \"schema\": \"guoq-bench-v1\",\n";
    out += "  \"run\": {\n";
    num("\"scale\"", jsonNumber(meta.scale), "    ");
    out += ",\n";
    num("\"trials\"", std::to_string(meta.trials), "    ");
    out += ",\n";
    num("\"seed\"", u64(meta.seed), "    ");
    out += ",\n";
    num("\"threads\"", std::to_string(meta.threads), "    ");
    out += ",\n";
    out += "    \"cases\": [";
    for (std::size_t i = 0; i < meta.cases.size(); ++i) {
        if (i)
            out += ", ";
        out += "\"";
        out += jsonEscape(meta.cases[i]);
        out += "\"";
    }
    out += "],\n";
    out += "    \"machine\": {\n";
    str("\"cpu\"", meta.machine.cpu, "      ");
    out += ",\n";
    num("\"logical_cores\"", std::to_string(meta.machine.logicalCores),
        "      ");
    out += ",\n";
    str("\"simd\"", meta.machine.simd, "      ");
    out += ",\n";
    str("\"compiler\"", meta.machine.compiler, "      ");
    out += ",\n";
    str("\"build_type\"", meta.machine.buildType, "      ");
    out += "\n    }\n";
    out += "  },\n";
    out += "  \"results\": [";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const CaseResult &r = results[i];
        out += i ? ",\n    {\n" : "\n    {\n";
        str("\"case\"", r.caseId, "      ");
        out += ",\n";
        str("\"benchmark\"", r.benchmark, "      ");
        out += ",\n";
        str("\"tool\"", r.tool, "      ");
        out += ",\n";
        str("\"algorithm\"", r.algorithm, "      ");
        out += ",\n";
        str("\"metric\"", r.metric, "      ");
        out += ",\n";
        num("\"value\"", jsonNumber(r.value), "      ");
        out += ",\n";
        num("\"seconds\"", jsonNumber(r.seconds), "      ");
        out += ",\n";
        num("\"trial\"", std::to_string(r.trial), "      ");
        out += ",\n";
        num("\"seed\"", u64(r.seed), "      ");
        out += ",\n";
        out += "      \"workers\": [";
        for (std::size_t w = 0; w < r.workerSeconds.size(); ++w) {
            if (w)
                out += ", ";
            out += jsonNumber(r.workerSeconds[w]);
        }
        out += "],\n";
        num("\"synth_cache_hits\"", std::to_string(r.synthCacheHits),
            "      ");
        out += ",\n";
        num("\"synth_cache_misses\"",
            std::to_string(r.synthCacheMisses), "      ");
        out += ",\n";
        num("\"synth_cache_stores\"",
            std::to_string(r.synthCacheStores), "      ");
        out += "\n";
        out += "    }";
    }
    out += results.empty() ? "]\n" : "\n  ]\n";
    out += "}\n";
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
            std::to_string(r.synthCacheHits),
            std::to_string(r.synthCacheMisses),
            std::to_string(r.synthCacheStores)};
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
