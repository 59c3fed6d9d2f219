#include "serve/rows.h"

#include <iterator>

#include "support/json.h"

namespace guoq {
namespace serve {

namespace {

/** The status table: one row per Status, in enum order. */
struct StatusInfo
{
    const char *name;
    int code;
    bool okShaped;
};

constexpr StatusInfo kStatuses[] = {
    {"ok", 0, true},               // Status::Ok
    {"verify_skipped", 0, true},   // Status::VerifySkipped
    {"parse_error", 1, false},     // Status::ParseError
    {"verify_failed", 2, false},   // Status::VerifyFailed
    {"write_error", 3, false},     // Status::WriteError
    {"frame_error", 4, false},     // Status::FrameError
};
static_assert(std::size(kStatuses) ==
              static_cast<std::size_t>(Status::FrameError) + 1);

const StatusInfo &
info(Status s)
{
    return kStatuses[static_cast<std::size_t>(s)];
}

/**
 * An entry's fields in schema order, written once for both schemas.
 * A non-null @p qasm selects the serve row: `id` for `file`, the
 * numeric `code`, no `output`, and the program inline on ok-shaped
 * rows.
 */
void
entryFields(support::JsonObject &f, const BatchFileEntry &e,
            const std::string *qasm)
{
    const bool ok = isOkShaped(e.status);
    f.str(qasm ? "id" : "file", e.file);
    f.str("status", statusName(e.status));
    if (qasm)
        f.num("code", std::to_string(statusCode(e.status)));
    f.str("dialect", e.dialect);
    f.str("algorithm", e.algorithm);
    if (ok) {
        if (!qasm)
            f.str("output", e.output);
        f.num("qubits", std::to_string(e.qubits));
        f.num("gates_before", std::to_string(e.gatesBefore));
        f.num("gates_after", std::to_string(e.gatesAfter));
        f.num("twoq_before", std::to_string(e.twoQubitBefore));
        f.num("twoq_after", std::to_string(e.twoQubitAfter));
        f.num("error_bound", support::jsonNumber(e.errorBound));
        f.num("synth_cache_hits", std::to_string(e.stats.synthCache.hits));
        f.num("synth_cache_misses",
              std::to_string(e.stats.synthCache.misses));
        f.num("synth_cache_stores",
              std::to_string(e.stats.synthCache.stores));
        f.num("pool_queue_peak", std::to_string(e.stats.poolQueuePeak));
        // Notes ride along (a verify_skipped entry always has one
        // explaining why the check could not run).
        if (!e.message.empty())
            f.str("message", e.message);
    } else {
        f.num("line", std::to_string(e.line));
        f.num("col", std::to_string(e.col));
        f.str("message", e.message);
    }
    if (!e.verify.method.empty()) {
        const verify::VerifyReport &vr = e.verify;
        support::JsonObject v = f.object("verify");
        v.str("method", vr.method);
        v.num("distance", support::jsonNumber(vr.distanceEstimate));
        v.num("bound", support::jsonNumber(vr.bound));
        v.num("confidence", support::jsonNumber(vr.confidence));
        v.num("shots", std::to_string(vr.shots));
        v.str("verdict", verify::verdictName(vr.verdict));
        v.close();
    }
    f.num("seconds", support::jsonNumber(e.seconds));
    if (qasm && ok)
        f.str("qasm", *qasm);
}

} // namespace

const char *
statusName(Status s)
{
    return info(s).name;
}

int
statusCode(Status s)
{
    return info(s).code;
}

bool
isOkShaped(Status s)
{
    return info(s).okShaped;
}

std::string
toBatchJson(const BatchRunMeta &meta,
            const std::vector<BatchFileEntry> &files)
{
    // Three-way tally: a verify_skipped file was optimized and written
    // but not checked — visible in its own counter, neither a silent
    // pass nor a failure.
    std::size_t ok = 0, skipped = 0;
    for (const BatchFileEntry &f : files) {
        ok += f.status == Status::Ok ? 1 : 0;
        skipped += f.status == Status::VerifySkipped ? 1 : 0;
    }

    std::string out;
    support::JsonObject doc(out, support::JsonObject::Layout::Pretty);
    doc.str("schema", "guoq-batch-v1");
    support::JsonObject run = doc.object("run");
    run.str("input_dir", meta.inputDir);
    run.str("output_dir", meta.outputDir);
    run.str("gate_set", meta.gateSet);
    run.str("objective", meta.objective);
    run.str("algorithm", meta.algorithm);
    run.num("epsilon", support::jsonNumber(meta.epsilon));
    run.num("time", support::jsonNumber(meta.timeBudgetSeconds));
    run.num("threads", std::to_string(meta.threads));
    run.num("jobs", std::to_string(meta.jobs));
    run.num("seed", std::to_string(meta.seed));
    run.num("synth_workers", std::to_string(meta.synthWorkers));
    run.str("synth_cache", meta.synthCacheDir);
    run.num("files", std::to_string(files.size()));
    run.num(statusName(Status::Ok), std::to_string(ok));
    run.num("failed", std::to_string(files.size() - ok - skipped));
    run.num(statusName(Status::VerifySkipped), std::to_string(skipped));
    run.close();
    doc.objects("files", files,
                [](support::JsonObject &entry, const BatchFileEntry &f) {
                    entryFields(entry, f, nullptr);
                });
    doc.close();
    out += '\n';
    return out;
}

std::string
toServeRowJson(const BatchFileEntry &e, const std::string &qasm)
{
    std::string out;
    support::JsonObject row(out, support::JsonObject::Layout::Inline);
    row.str("schema", "guoq-serve-row-v1");
    entryFields(row, e, &qasm);
    row.close();
    return out;
}

} // namespace serve
} // namespace guoq
