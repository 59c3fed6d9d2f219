#include "bench/emit.h"

#include <cmath>
#include <cstdio>
#include <iterator>

namespace guoq {
namespace bench {

namespace {

/** A JSON number token; non-finite becomes null (JSON has no NaN). */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

std::string
csvNumber(double v)
{
    // Mirror the JSON emitter's null: an empty field rather than a
    // platform-spelled "nan"/"inf" token numeric CSV readers trip on.
    if (!std::isfinite(v))
        return "";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

std::string
u64(std::uint64_t v)
{
    return std::to_string(v);
}

} // namespace

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char ch : s) {
        const unsigned char c = static_cast<unsigned char>(ch);
        switch (ch) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    return out;
}

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
toBatchJson(const BatchRunMeta &meta,
            const std::vector<BatchFileEntry> &files)
{
    // Three-way tally: a verify_skipped file was optimized and written
    // but not checked — visible in its own counter, neither a silent
    // pass ("ok") nor a failure.
    std::size_t ok = 0, skipped = 0;
    for (const BatchFileEntry &f : files) {
        ok += f.status == "ok" ? 1 : 0;
        skipped += f.status == "verify_skipped" ? 1 : 0;
    }

    std::string out;
    auto str = [&out](const char *key, const std::string &v) {
        out += key;
        out += ": \"";
        out += jsonEscape(v);
        out += "\"";
    };
    out += "{\n";
    out += "  \"schema\": \"guoq-batch-v1\",\n";
    out += "  \"run\": {\n    ";
    str("\"input_dir\"", meta.inputDir);
    out += ",\n    ";
    str("\"output_dir\"", meta.outputDir);
    out += ",\n    ";
    str("\"gate_set\"", meta.gateSet);
    out += ",\n    ";
    str("\"objective\"", meta.objective);
    out += ",\n    ";
    str("\"algorithm\"", meta.algorithm);
    out += ",\n    \"epsilon\": " + jsonNumber(meta.epsilon);
    out += ",\n    \"time\": " + jsonNumber(meta.timeBudgetSeconds);
    out += ",\n    \"threads\": " + std::to_string(meta.threads);
    out += ",\n    \"jobs\": " + std::to_string(meta.jobs);
    out += ",\n    \"seed\": " + u64(meta.seed);
    out += ",\n    \"synth_workers\": " +
           std::to_string(meta.synthWorkers);
    out += ",\n    ";
    str("\"synth_cache\"", meta.synthCacheDir);
    out += ",\n    \"files\": " + std::to_string(files.size());
    out += ",\n    \"ok\": " + std::to_string(ok);
    out += ",\n    \"failed\": " +
           std::to_string(files.size() - ok - skipped);
    out += ",\n    \"verify_skipped\": " + std::to_string(skipped);
    out += "\n  },\n";
    out += "  \"files\": [";
    for (std::size_t i = 0; i < files.size(); ++i) {
        const BatchFileEntry &f = files[i];
        out += i ? ",\n    {\n      " : "\n    {\n      ";
        str("\"file\"", f.file);
        out += ",\n      ";
        str("\"status\"", f.status);
        out += ",\n      ";
        str("\"dialect\"", f.dialect);
        out += ",\n      ";
        str("\"algorithm\"", f.algorithm);
        if (f.status == "ok" || f.status == "verify_skipped") {
            out += ",\n      ";
            str("\"output\"", f.output);
            out += ",\n      \"qubits\": " + std::to_string(f.qubits);
            out += ",\n      \"gates_before\": " +
                   std::to_string(f.gatesBefore);
            out += ",\n      \"gates_after\": " +
                   std::to_string(f.gatesAfter);
            out += ",\n      \"twoq_before\": " +
                   std::to_string(f.twoQubitBefore);
            out += ",\n      \"twoq_after\": " +
                   std::to_string(f.twoQubitAfter);
            out += ",\n      \"error_bound\": " +
                   jsonNumber(f.errorBound);
            out += ",\n      \"synth_cache_hits\": " +
                   std::to_string(f.synthCacheHits);
            out += ",\n      \"synth_cache_misses\": " +
                   std::to_string(f.synthCacheMisses);
            out += ",\n      \"synth_cache_stores\": " +
                   std::to_string(f.synthCacheStores);
            out += ",\n      \"pool_queue_peak\": " +
                   std::to_string(f.poolQueuePeak);
            // Notes ride along (a verify_skipped entry always has
            // one explaining why the check could not run).
            if (!f.message.empty()) {
                out += ",\n      ";
                str("\"message\"", f.message);
            }
        } else {
            out += ",\n      \"line\": " + std::to_string(f.line);
            out += ",\n      \"col\": " + std::to_string(f.col);
            out += ",\n      ";
            str("\"message\"", f.message);
        }
        if (f.verified) {
            out += ",\n      \"verify\": {\n        ";
            str("\"method\"", f.verifyMethod);
            out += ",\n        \"distance\": " +
                   jsonNumber(f.verifyDistance);
            out += ",\n        \"bound\": " + jsonNumber(f.verifyBound);
            out += ",\n        \"confidence\": " +
                   jsonNumber(f.verifyConfidence);
            out += ",\n        \"shots\": " +
                   std::to_string(f.verifyShots);
            out += ",\n        ";
            str("\"verdict\"", f.verifyVerdict);
            out += "\n      }";
        }
        out += ",\n      \"seconds\": " + jsonNumber(f.seconds);
        out += "\n    }";
    }
    out += files.empty() ? "]\n" : "\n  ]\n";
    out += "}\n";
    return out;
}

int
serveRowCode(const std::string &status)
{
    if (status == "ok" || status == "verify_skipped")
        return 0;
    if (status == "parse_error")
        return 1;
    if (status == "verify_failed")
        return 2;
    if (status == "write_error")
        return 3;
    if (status == "frame_error")
        return 4;
    return 5;
}

std::string
toServeRowJson(const BatchFileEntry &e, const std::string &qasm)
{
    std::string out;
    auto str = [&out](const char *key, const std::string &v) {
        out += ", \"";
        out += key;
        out += "\": \"";
        out += jsonEscape(v);
        out += "\"";
    };
    auto num = [&out](const char *key, const std::string &v) {
        out += ", \"";
        out += key;
        out += "\": ";
        out += v;
    };
    out += "{\"schema\": \"guoq-serve-row-v1\"";
    str("id", e.file);
    str("status", e.status);
    num("code", std::to_string(serveRowCode(e.status)));
    str("dialect", e.dialect);
    str("algorithm", e.algorithm);
    if (e.status == "ok" || e.status == "verify_skipped") {
        num("qubits", std::to_string(e.qubits));
        num("gates_before", std::to_string(e.gatesBefore));
        num("gates_after", std::to_string(e.gatesAfter));
        num("twoq_before", std::to_string(e.twoQubitBefore));
        num("twoq_after", std::to_string(e.twoQubitAfter));
        num("error_bound", jsonNumber(e.errorBound));
        num("synth_cache_hits", std::to_string(e.synthCacheHits));
        num("synth_cache_misses", std::to_string(e.synthCacheMisses));
        num("synth_cache_stores", std::to_string(e.synthCacheStores));
        num("pool_queue_peak", std::to_string(e.poolQueuePeak));
        if (!e.message.empty())
            str("message", e.message);
    } else {
        num("line", std::to_string(e.line));
        num("col", std::to_string(e.col));
        str("message", e.message);
    }
    if (e.verified) {
        out += ", \"verify\": {\"method\": \"";
        out += jsonEscape(e.verifyMethod);
        out += "\", \"distance\": " + jsonNumber(e.verifyDistance);
        out += ", \"bound\": " + jsonNumber(e.verifyBound);
        out += ", \"confidence\": " + jsonNumber(e.verifyConfidence);
        out += ", \"shots\": " + std::to_string(e.verifyShots);
        out += ", \"verdict\": \"";
        out += jsonEscape(e.verifyVerdict);
        out += "\"}";
    }
    num("seconds", jsonNumber(e.seconds));
    if (e.status == "ok" || e.status == "verify_skipped")
        str("qasm", qasm);
    out += "}";
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
