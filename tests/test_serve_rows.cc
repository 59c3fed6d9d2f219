/**
 * @file
 * Byte goldens for the two row schemas the batch and serve pipelines
 * emit: `guoq-batch-v1` (the pretty-printed summary document) and
 * `guoq-serve-row-v1` (one JSON line per request). Any change to the
 * bytes either schema produces must show up here as a failing test;
 * docs/FORMATS.md is the schemas' reference.
 */

#include <gtest/gtest.h>

#include <string>

#include "serve/rows.h"
#include "verify/checker.h"

namespace guoq {
namespace {

// --- guoq-serve-row-v1 -----------------------------------------------

/** An ok row: circuit fields, the verify block and the inline QASM.
 *  `output` is set to show that serve rows never carry it. */
serve::BatchFileEntry
okRow()
{
    serve::BatchFileEntry e;
    e.file = "bell.qasm";
    e.status = serve::Status::Ok;
    e.dialect = "qasm2";
    e.algorithm = "guoq";
    e.output = "suite-opt/bell.qasm";
    e.qubits = 2;
    e.gatesBefore = 4;
    e.gatesAfter = 2;
    e.twoQubitBefore = 2;
    e.twoQubitAfter = 1;
    e.errorBound = 0;
    e.stats.synthCache.hits = 3;
    e.stats.synthCache.misses = 1;
    e.stats.synthCache.stores = 1;
    e.stats.poolQueuePeak = 2;
    e.seconds = 0.5;
    e.verify.method = "dense";
    e.verify.distanceEstimate = 1.5e-08;
    e.verify.bound = 0;
    e.verify.confidence = 1;
    e.verify.shots = 0;
    e.verify.verdict = verify::Verdict::Equivalent;
    return e;
}

TEST(ServeRow, OkRowWithVerifyBlockGolden)
{
    const std::string qasm = "OPENQASM 2.0;\n"
                             "include \"qelib1.inc\";\n"
                             "qreg q[2];\n"
                             "cx q[0], q[1];\n";
    const std::string expected =
        "{\"schema\": \"guoq-serve-row-v1\", \"id\": \"bell.qasm\", "
        "\"status\": \"ok\", \"code\": 0, \"dialect\": \"qasm2\", "
        "\"algorithm\": \"guoq\", \"qubits\": 2, \"gates_before\": 4, "
        "\"gates_after\": 2, \"twoq_before\": 2, \"twoq_after\": 1, "
        "\"error_bound\": 0, \"synth_cache_hits\": 3, "
        "\"synth_cache_misses\": 1, \"synth_cache_stores\": 1, "
        "\"pool_queue_peak\": 2, \"verify\": {\"method\": \"dense\", "
        "\"distance\": 1.5e-08, \"bound\": 0, \"confidence\": 1, "
        "\"shots\": 0, \"verdict\": \"equivalent\"}, \"seconds\": 0.5, "
        "\"qasm\": \"OPENQASM 2.0;\\ninclude \\\"qelib1.inc\\\";\\n"
        "qreg q[2];\\ncx q[0], q[1];\\n\"}";
    EXPECT_EQ(serve::toServeRowJson(okRow(), qasm), expected);
}

TEST(ServeRow, VerifySkippedRowGolden)
{
    serve::BatchFileEntry e;
    e.file = "wide";
    e.status = serve::Status::VerifySkipped;
    e.dialect = "qasm3";
    e.algorithm = "guoq";
    e.qubits = 30;
    e.gatesBefore = 60;
    e.gatesAfter = 58;
    e.twoQubitBefore = 29;
    e.twoQubitAfter = 29;
    e.errorBound = 2.5e-06;
    e.message = "verify skipped: 30 qubits exceed the sampling cap";
    e.seconds = 0.25;
    const std::string expected =
        "{\"schema\": \"guoq-serve-row-v1\", \"id\": \"wide\", "
        "\"status\": \"verify_skipped\", \"code\": 0, "
        "\"dialect\": \"qasm3\", \"algorithm\": \"guoq\", "
        "\"qubits\": 30, \"gates_before\": 60, \"gates_after\": 58, "
        "\"twoq_before\": 29, \"twoq_after\": 29, "
        "\"error_bound\": 2.5e-06, \"synth_cache_hits\": 0, "
        "\"synth_cache_misses\": 0, \"synth_cache_stores\": 0, "
        "\"pool_queue_peak\": 0, \"message\": \"verify skipped: 30 "
        "qubits exceed the sampling cap\", \"seconds\": 0.25, "
        "\"qasm\": \"OPENQASM 3.0;\\n\"}";
    EXPECT_EQ(serve::toServeRowJson(e, "OPENQASM 3.0;\n"), expected);
}

TEST(ServeRow, ParseErrorRowGolden)
{
    serve::BatchFileEntry e;
    e.file = "sub/broken.qasm";
    e.status = serve::Status::ParseError;
    e.dialect = "qasm2";
    e.algorithm = "guoq";
    e.line = 3;
    e.col = 7;
    e.message = "unknown gate 'frob\"nicate'";
    e.seconds = 0.001;
    const std::string expected =
        "{\"schema\": \"guoq-serve-row-v1\", \"id\": \"sub/broken.qasm\", "
        "\"status\": \"parse_error\", \"code\": 1, \"dialect\": \"qasm2\", "
        "\"algorithm\": \"guoq\", \"line\": 3, \"col\": 7, "
        "\"message\": \"unknown gate 'frob\\\"nicate'\", "
        "\"seconds\": 0.001}";
    EXPECT_EQ(serve::toServeRowJson(e, ""), expected);
}

TEST(ServeRow, VerifyFailedRowKeepsItsVerifyBlock)
{
    serve::BatchFileEntry e = okRow();
    e.status = serve::Status::VerifyFailed;
    e.message = "verification failed";
    e.verify.distanceEstimate = 0.5;
    e.verify.verdict = verify::Verdict::Inequivalent;
    const std::string expected =
        "{\"schema\": \"guoq-serve-row-v1\", \"id\": \"bell.qasm\", "
        "\"status\": \"verify_failed\", \"code\": 2, "
        "\"dialect\": \"qasm2\", \"algorithm\": \"guoq\", \"line\": 0, "
        "\"col\": 0, \"message\": \"verification failed\", "
        "\"verify\": {\"method\": \"dense\", \"distance\": 0.5, "
        "\"bound\": 0, \"confidence\": 1, \"shots\": 0, "
        "\"verdict\": \"inequivalent\"}, \"seconds\": 0.5}";
    EXPECT_EQ(serve::toServeRowJson(e, "ignored"), expected);
}

TEST(ServeRow, FrameErrorRowGolden)
{
    serve::BatchFileEntry e;
    e.file = "req-7";
    e.status = serve::Status::FrameError;
    e.algorithm = "guoq";
    e.line = 12;
    e.message = "expected 'payload <bytes>'\tgot\x01";
    const std::string expected =
        "{\"schema\": \"guoq-serve-row-v1\", \"id\": \"req-7\", "
        "\"status\": \"frame_error\", \"code\": 4, \"dialect\": \"\", "
        "\"algorithm\": \"guoq\", \"line\": 12, \"col\": 0, "
        "\"message\": \"expected 'payload <bytes>'\\tgot\\u0001\", "
        "\"seconds\": 0}";
    EXPECT_EQ(serve::toServeRowJson(e, ""), expected);
}

// --- guoq-batch-v1 ---------------------------------------------------

TEST(BatchEmit, JsonGolden)
{
    serve::BatchRunMeta meta;
    meta.inputDir = "suite";
    meta.outputDir = "suite-opt";
    meta.gateSet = "nam";
    meta.objective = "2q-count";
    meta.algorithm = "guoq";
    meta.epsilon = 0;
    meta.timeBudgetSeconds = 1;
    meta.threads = 1;
    meta.jobs = 2;
    meta.seed = 7;

    serve::BatchFileEntry ok;
    ok.file = "bell.qasm";
    ok.status = serve::Status::Ok;
    ok.dialect = "qasm2";
    ok.algorithm = "guoq";
    ok.output = "suite-opt/bell.qasm";
    ok.qubits = 2;
    ok.gatesBefore = 4;
    ok.gatesAfter = 2;
    ok.twoQubitBefore = 2;
    ok.twoQubitAfter = 1;
    ok.errorBound = 0;
    ok.seconds = 0.5;
    ok.verify.method = "dense";
    ok.verify.distanceEstimate = 1.5e-08;
    ok.verify.bound = 0;
    ok.verify.confidence = 1;
    ok.verify.shots = 0;
    ok.verify.verdict = verify::Verdict::Equivalent;

    serve::BatchFileEntry bad;
    bad.file = "sub/broken.qasm";
    bad.status = serve::Status::ParseError;
    bad.dialect = "qasm3";
    bad.algorithm = "guoq";
    bad.line = 3;
    bad.col = 7;
    bad.message = "unknown gate 'frob\"nicate'";
    bad.seconds = 0;

    serve::BatchFileEntry skip;
    skip.file = "wide.qasm";
    skip.status = serve::Status::VerifySkipped;
    skip.dialect = "qasm2";
    skip.algorithm = "guoq";
    skip.output = "suite-opt/wide.qasm";
    skip.qubits = 30;
    skip.gatesBefore = 60;
    skip.gatesAfter = 60;
    skip.twoQubitBefore = 29;
    skip.twoQubitAfter = 29;
    skip.errorBound = 0;
    skip.message = "verify skipped: 30 qubits exceed the sampling cap";
    skip.seconds = 0.25;

    const std::string expected =
        "{\n"
        "  \"schema\": \"guoq-batch-v1\",\n"
        "  \"run\": {\n"
        "    \"input_dir\": \"suite\",\n"
        "    \"output_dir\": \"suite-opt\",\n"
        "    \"gate_set\": \"nam\",\n"
        "    \"objective\": \"2q-count\",\n"
        "    \"algorithm\": \"guoq\",\n"
        "    \"epsilon\": 0,\n"
        "    \"time\": 1,\n"
        "    \"threads\": 1,\n"
        "    \"jobs\": 2,\n"
        "    \"seed\": 7,\n"
        "    \"synth_workers\": 0,\n"
        "    \"synth_cache\": \"\",\n"
        "    \"files\": 3,\n"
        "    \"ok\": 1,\n"
        "    \"failed\": 1,\n"
        "    \"verify_skipped\": 1\n"
        "  },\n"
        "  \"files\": [\n"
        "    {\n"
        "      \"file\": \"bell.qasm\",\n"
        "      \"status\": \"ok\",\n"
        "      \"dialect\": \"qasm2\",\n"
        "      \"algorithm\": \"guoq\",\n"
        "      \"output\": \"suite-opt/bell.qasm\",\n"
        "      \"qubits\": 2,\n"
        "      \"gates_before\": 4,\n"
        "      \"gates_after\": 2,\n"
        "      \"twoq_before\": 2,\n"
        "      \"twoq_after\": 1,\n"
        "      \"error_bound\": 0,\n"
        "      \"synth_cache_hits\": 0,\n"
        "      \"synth_cache_misses\": 0,\n"
        "      \"synth_cache_stores\": 0,\n"
        "      \"pool_queue_peak\": 0,\n"
        "      \"verify\": {\n"
        "        \"method\": \"dense\",\n"
        "        \"distance\": 1.5e-08,\n"
        "        \"bound\": 0,\n"
        "        \"confidence\": 1,\n"
        "        \"shots\": 0,\n"
        "        \"verdict\": \"equivalent\"\n"
        "      },\n"
        "      \"seconds\": 0.5\n"
        "    },\n"
        "    {\n"
        "      \"file\": \"sub/broken.qasm\",\n"
        "      \"status\": \"parse_error\",\n"
        "      \"dialect\": \"qasm3\",\n"
        "      \"algorithm\": \"guoq\",\n"
        "      \"line\": 3,\n"
        "      \"col\": 7,\n"
        "      \"message\": \"unknown gate 'frob\\\"nicate'\",\n"
        "      \"seconds\": 0\n"
        "    },\n"
        "    {\n"
        "      \"file\": \"wide.qasm\",\n"
        "      \"status\": \"verify_skipped\",\n"
        "      \"dialect\": \"qasm2\",\n"
        "      \"algorithm\": \"guoq\",\n"
        "      \"output\": \"suite-opt/wide.qasm\",\n"
        "      \"qubits\": 30,\n"
        "      \"gates_before\": 60,\n"
        "      \"gates_after\": 60,\n"
        "      \"twoq_before\": 29,\n"
        "      \"twoq_after\": 29,\n"
        "      \"error_bound\": 0,\n"
        "      \"synth_cache_hits\": 0,\n"
        "      \"synth_cache_misses\": 0,\n"
        "      \"synth_cache_stores\": 0,\n"
        "      \"pool_queue_peak\": 0,\n"
        "      \"message\": \"verify skipped: 30 qubits exceed the "
        "sampling cap\",\n"
        "      \"seconds\": 0.25\n"
        "    }\n"
        "  ]\n"
        "}\n";
    EXPECT_EQ(serve::toBatchJson(meta, {ok, bad, skip}), expected);
}

TEST(BatchEmit, EmptyRunStillParses)
{
    serve::BatchRunMeta meta;
    const std::string doc = serve::toBatchJson(meta, {});
    EXPECT_NE(doc.find("\"files\": []"), std::string::npos);
    EXPECT_NE(doc.find("\"ok\": 0"), std::string::npos);
    EXPECT_NE(doc.find("\"failed\": 0"), std::string::npos);
}

} // namespace
} // namespace guoq
