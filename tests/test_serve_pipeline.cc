/**
 * @file
 * The streaming service tier (src/serve/): credit accounting and
 * bounded queues under stress, `guoq-serve-v1` framing robustness,
 * exactly-once row emission, drain-on-shutdown, cooperative
 * cancellation/deadlines through the observer hooks, fixed-seed
 * determinism, and the serve-vs-batch differential over the example
 * corpus.
 *
 * Hang protection: every scenario here must finish in seconds; the
 * suite runs under ctest's fast-label TIMEOUT (CMakeLists.txt), so a
 * wedged queue or a reader that stalls on malformed input fails
 * loudly as a timeout instead of hanging CI forever.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/observer.h"
#include "core/optimizer.h"
#include "serve/framing.h"
#include "serve/pipeline.h"
#include "serve/server.h"

namespace guoq {
namespace {

namespace fs = std::filesystem;

// --- pipeline primitives ---------------------------------------------

TEST(Credits, PeakNeverExceedsCapacityUnderStress)
{
    serve::Credits credits(4);
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t)
        threads.emplace_back([&credits] {
            for (int i = 0; i < 200; ++i) {
                credits.acquire();
                credits.release();
            }
        });
    for (std::thread &t : threads)
        t.join();
    EXPECT_LE(credits.peak(), 4u);
    EXPECT_GE(credits.peak(), 1u);
    EXPECT_EQ(credits.inFlight(), 0u);
}

TEST(BoundedQueue, OccupancyNeverExceedsCapacityAndNothingIsLost)
{
    serve::BoundedQueue<int> q(3);
    constexpr int kProducers = 4;
    constexpr int kPerProducer = 500;
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p)
        producers.emplace_back([&q, p] {
            for (int i = 0; i < kPerProducer; ++i)
                ASSERT_TRUE(q.push(p * kPerProducer + i));
        });

    std::mutex seen_mutex;
    std::vector<int> seen;
    std::vector<std::thread> consumers;
    for (int c = 0; c < 3; ++c)
        consumers.emplace_back([&] {
            int v;
            while (q.pop(v)) {
                std::lock_guard<std::mutex> lock(seen_mutex);
                seen.push_back(v);
            }
        });

    for (std::thread &t : producers)
        t.join();
    q.close();
    for (std::thread &t : consumers)
        t.join();

    EXPECT_LE(q.peak(), 3u);
    ASSERT_EQ(seen.size(),
              static_cast<std::size_t>(kProducers * kPerProducer));
    std::sort(seen.begin(), seen.end());
    for (int i = 0; i < kProducers * kPerProducer; ++i)
        EXPECT_EQ(seen[static_cast<std::size_t>(i)], i); // exactly once
}

TEST(BoundedQueue, CloseDrainsQueuedItemsThenStops)
{
    serve::BoundedQueue<int> q(8);
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(q.push(i));
    q.close();
    EXPECT_FALSE(q.push(99)); // refused after close
    int v;
    for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(q.pop(v)); // queued items survive the close
        EXPECT_EQ(v, i);
    }
    EXPECT_FALSE(q.pop(v));
}

// --- observer hooks: cancellation and deadlines ----------------------

TEST(ObserverHooks, DeadlineExpiryReadsAsCancellation)
{
    core::ObserverHooks hooks;
    EXPECT_FALSE(hooks.cancelled());
    EXPECT_FALSE(hooks.deadlineExpired());

    hooks.setDeadlineIn(-1.0); // already in the past
    EXPECT_TRUE(hooks.deadlineExpired());
    EXPECT_TRUE(hooks.cancelled());

    core::ObserverHooks viaToken;
    viaToken.cancel = core::makeCancelToken();
    EXPECT_FALSE(viaToken.cancelled());
    viaToken.cancel->store(true);
    EXPECT_TRUE(viaToken.cancelled());
    EXPECT_FALSE(viaToken.deadlineExpired()); // unarmed stays unarmed
}

// --- framing ---------------------------------------------------------

std::string
frameText(const std::string &id, const std::string &payload,
          const std::uint64_t *seed = nullptr,
          const double *deadlineMs = nullptr)
{
    serve::Frame f;
    f.id = id;
    f.payload = payload;
    if (seed) {
        f.seed = *seed;
        f.hasSeed = true;
    }
    if (deadlineMs) {
        f.deadlineMs = *deadlineMs;
        f.hasDeadline = true;
    }
    std::ostringstream out;
    serve::writeFrame(out, f);
    return out.str();
}

TEST(Framing, WriteThenReadRoundTrips)
{
    const std::uint64_t seed = 42;
    const double deadline = 1500;
    std::istringstream in(
        frameText("job-1", "OPENQASM 2.0;\nqreg q[1];\n", &seed,
                  &deadline));
    serve::FrameReader reader(in);
    serve::Frame f;
    serve::FrameError err;
    ASSERT_EQ(reader.next(f, err), serve::FrameReader::Status::Frame);
    EXPECT_EQ(f.id, "job-1");
    EXPECT_EQ(f.payload, "OPENQASM 2.0;\nqreg q[1];\n");
    ASSERT_TRUE(f.hasSeed);
    EXPECT_EQ(f.seed, 42u);
    ASSERT_TRUE(f.hasDeadline);
    EXPECT_EQ(f.deadlineMs, 1500);
    ASSERT_EQ(reader.next(f, err), serve::FrameReader::Status::Eof);
}

TEST(Framing, GarbageBytesProduceLocatedErrorThenRecover)
{
    std::istringstream in("complete nonsense\n" +
                          frameText("after-garbage", "qreg q[1];\n"));
    serve::FrameReader reader(in);
    serve::Frame f;
    serve::FrameError err;
    ASSERT_EQ(reader.next(f, err), serve::FrameReader::Status::Error);
    EXPECT_EQ(err.line, 1);
    EXPECT_TRUE(err.id.empty());
    // The very next call serves the following frame: resync worked.
    ASSERT_EQ(reader.next(f, err), serve::FrameReader::Status::Frame);
    EXPECT_EQ(f.id, "after-garbage");
    ASSERT_EQ(reader.next(f, err), serve::FrameReader::Status::Eof);
}

TEST(Framing, MidFrameEofIsALocatedErrorNotAHang)
{
    // Declares 100 payload bytes but the stream ends after 10.
    std::istringstream in("request trunc\npayload 100\nqreg q[1];");
    serve::FrameReader reader(in);
    serve::Frame f;
    serve::FrameError err;
    ASSERT_EQ(reader.next(f, err), serve::FrameReader::Status::Error);
    EXPECT_EQ(err.id, "trunc");
    EXPECT_NE(err.message.find("truncated"), std::string::npos);
    ASSERT_EQ(reader.next(f, err), serve::FrameReader::Status::Eof);
}

TEST(Framing, OversizedPayloadIsRefusedAndSkippedInSync)
{
    const std::string big(64, 'x');
    std::istringstream in(frameText("too-big", big) +
                          frameText("fits", "qreg q[1];\n"));
    serve::FrameReader reader(in, /*maxPayload=*/16);
    serve::Frame f;
    serve::FrameError err;
    ASSERT_EQ(reader.next(f, err), serve::FrameReader::Status::Error);
    EXPECT_EQ(err.id, "too-big");
    // The oversized bytes were skipped, not parsed as headers: the
    // next frame still comes through intact.
    ASSERT_EQ(reader.next(f, err), serve::FrameReader::Status::Frame);
    EXPECT_EQ(f.id, "fits");
    EXPECT_EQ(f.payload, "qreg q[1];\n");
}

TEST(Framing, MissingTrailerResyncsAtNextRequestHeader)
{
    // `payload 4` eats "qreg", then the trailer line is " q[1];" —
    // not `end` — so the frame fails but the next header is found.
    std::istringstream in("request bad\npayload 4\nqreg q[1];\n" +
                          frameText("good", "qreg q[2];\n"));
    serve::FrameReader reader(in);
    serve::Frame f;
    serve::FrameError err;
    ASSERT_EQ(reader.next(f, err), serve::FrameReader::Status::Error);
    EXPECT_EQ(err.id, "bad");
    ASSERT_EQ(reader.next(f, err), serve::FrameReader::Status::Frame);
    EXPECT_EQ(f.id, "good");
}

// --- the serve pipeline end to end -----------------------------------

/** A config that runs the real "guoq" optimizer deterministically:
 *  iteration-capped, single-threaded, exact (epsilon 0 leaves the
 *  synthesis cache untouched, so repeat runs in one process agree). */
serve::Config
testConfig(long iterations = 100)
{
    serve::Config cfg;
    cfg.optimizer = core::OptimizerRegistry::global().find("guoq");
    EXPECT_NE(cfg.optimizer, nullptr);
    cfg.base.timeBudgetSeconds = 1e6;
    cfg.base.maxIterations = iterations;
    cfg.base.seed = 12345;
    cfg.base.threads = 1;
    return cfg;
}

const char kSmallQasm[] = "OPENQASM 2.0;\n"
                          "include \"qelib1.inc\";\n"
                          "qreg q[2];\n"
                          "h q[0];\n"
                          "cx q[0], q[1];\n"
                          "cx q[0], q[1];\n"
                          "h q[0];\n";

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

/** The `"id"` field of a response row (rows always lead with it). */
std::string
rowId(const std::string &row)
{
    const std::string key = "\"id\": \"";
    const std::size_t at = row.find(key);
    EXPECT_NE(at, std::string::npos) << row;
    const std::size_t end = row.find('"', at + key.size());
    return row.substr(at + key.size(), end - (at + key.size()));
}

/** Blank out the wall-time field: the only part of a row that is
 *  legitimately run-dependent at a fixed seed. */
std::string
stripSeconds(const std::string &row)
{
    static const std::string key = "\"seconds\": ";
    std::string result;
    std::size_t from = 0;
    for (std::size_t at; (at = row.find(key, from)) != std::string::npos;) {
        const std::size_t start = at + key.size();
        std::size_t end = start;
        while (end < row.size() && row[end] != ',' && row[end] != '}')
            ++end;
        result.append(row, from, start - from);
        result += 'X';
        from = end;
    }
    result.append(row, from, row.size() - from);
    return result;
}

TEST(Serve, EveryRequestEmitsExactlyOneRow)
{
    std::ostringstream stream;
    for (int i = 0; i < 12; ++i) {
        serve::Frame f;
        f.id = "req-" + std::to_string(i);
        f.payload = kSmallQasm;
        serve::writeFrame(stream, f);
    }
    stream << "garbage between frames\n"; // one frame error on top

    std::istringstream in(stream.str());
    std::ostringstream out;
    serve::Config cfg = testConfig();
    cfg.jobs = 3;
    cfg.capacity = 4;
    const serve::ServeStats stats = serve::runServe(in, out, cfg);

    EXPECT_EQ(stats.frames, 12u);
    EXPECT_EQ(stats.frameErrors, 1u);
    EXPECT_EQ(stats.rows, 13u);
    EXPECT_EQ(stats.okRows, 12u);
    EXPECT_TRUE(stats.outputOk);
    // The credit cap held: never more than `capacity` requests
    // admitted-but-unemitted, even with jobs churning concurrently.
    EXPECT_LE(stats.peakInFlight, 4u);
    EXPECT_GE(stats.peakInFlight, 1u);

    const std::vector<std::string> rows = splitLines(out.str());
    ASSERT_EQ(rows.size(), 13u);
    std::map<std::string, int> perId;
    for (const std::string &row : rows)
        ++perId[rowId(row)];
    for (int i = 0; i < 12; ++i)
        EXPECT_EQ(perId["req-" + std::to_string(i)], 1);
}

TEST(Serve, FixedSeedSingleJobIsBitForBitDeterministic)
{
    std::ostringstream stream;
    for (int i = 0; i < 4; ++i) {
        serve::Frame f;
        f.id = "d-" + std::to_string(i);
        f.payload = kSmallQasm;
        f.seed = 7;
        f.hasSeed = true;
        serve::writeFrame(stream, f);
    }

    auto run = [&stream] {
        std::istringstream in(stream.str());
        std::ostringstream out;
        serve::Config cfg = testConfig();
        cfg.jobs = 1;
        serve::runServe(in, out, cfg);
        // Everything but wall time must be identical — including row
        // order, which --jobs 1 makes the admission order.
        return stripSeconds(out.str());
    };
    EXPECT_EQ(run(), run());
}

TEST(Serve, PresetShutdownAdmitsNothingAndDrainsCleanly)
{
    std::istringstream in(frameText("never-admitted", kSmallQasm));
    std::ostringstream out;
    serve::Config cfg = testConfig();
    cfg.shutdown = core::makeCancelToken();
    cfg.shutdown->store(true); // SIGTERM arrived before any input
    const serve::ServeStats stats = serve::runServe(in, out, cfg);
    EXPECT_EQ(stats.rows, 0u);
    EXPECT_TRUE(out.str().empty());
}

TEST(Serve, ShutdownCancelsInFlightSearchButStillEmitsItsRow)
{
    // Unlimited iterations and a huge budget: only the cancellation
    // path (PR 4 observer hooks) can stop this request. The preset
    // token cancels it at the first poll; the drain contract still
    // owes the request its row.
    std::istringstream in(frameText("cancelled-inflight", kSmallQasm));
    std::ostringstream out;
    serve::Config cfg = testConfig(/*iterations=*/-1);
    cfg.shutdown = core::makeCancelToken();
    cfg.shutdown->store(true);
    // Shutdown set but input already buffered: the reader checks the
    // token before each admission, so nothing is admitted. To drive a
    // *running* search into cancellation instead, call processSource
    // directly with the token preset.
    const serve::Outcome o = serve::processSource(
        "cancelled-inflight", kSmallQasm, cfg);
    EXPECT_EQ(o.entry.status, serve::Status::Ok); // best-so-far, cooperatively
    EXPECT_TRUE(o.haveCircuit());
    EXPECT_LE(o.entry.gatesAfter, o.entry.gatesBefore);
}

TEST(Serve, PerRequestDeadlineStopsTheSearchWithBestSoFar)
{
    serve::Config cfg = testConfig(/*iterations=*/-1); // unlimited
    const double deadlineMs = 30;
    const auto t0 = std::chrono::steady_clock::now();
    const serve::Outcome o = serve::processSource(
        "deadline-req", kSmallQasm, cfg, nullptr, &deadlineMs);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    EXPECT_EQ(o.entry.status, serve::Status::Ok);
    EXPECT_NE(o.entry.message.find("deadline"), std::string::npos);
    EXPECT_LT(elapsed, 10.0); // cooperative stop, not the 1e6s budget
}

// --- differential: --serve matches --batch ---------------------------

TEST(Serve, RowsMatchBatchRunByteForByteAtFixedSeed)
{
    const fs::path corpus =
        fs::path(GUOQ_SOURCE_DIR) / "examples" / "qasm";
    ASSERT_TRUE(fs::is_directory(corpus));

    // Stage the corpus plus one malformed file into a scratch tree.
    const fs::path root =
        fs::temp_directory_path() / "guoq_serve_differential";
    fs::remove_all(root);
    const fs::path in_dir = root / "in";
    const fs::path out_dir = root / "out";
    fs::create_directories(in_dir);
    for (const fs::directory_entry &e : fs::directory_iterator(corpus))
        if (e.path().extension() == ".qasm")
            fs::copy_file(e.path(), in_dir / e.path().filename());
    {
        std::ofstream broken(in_dir / "broken.qasm");
        broken << "OPENQASM 2.0;\nqreg q[1];\nnot_a_gate q[0];\n";
    }

    serve::Config cfg = testConfig();
    cfg.jobs = 2;
    cfg.capacity = 3;

    // Batch leg: streaming walker, mirrored output tree.
    const serve::BatchResult batch = serve::runBatch(
        in_dir.generic_string(), out_dir.generic_string(), cfg);
    ASSERT_TRUE(batch.scanOk) << batch.scanError;
    ASSERT_GE(batch.entries.size(), 4u);
    EXPECT_LE(batch.peakInFlight, 3u);

    // Serve leg: the same bytes framed over a stream.
    std::ostringstream stream;
    for (const serve::BatchFileEntry &e : batch.entries) {
        std::ifstream src(in_dir / e.file);
        ASSERT_TRUE(src.good()) << e.file;
        std::ostringstream bytes;
        bytes << src.rdbuf();
        serve::Frame f;
        f.id = e.file;
        f.payload = bytes.str();
        serve::writeFrame(stream, f);
    }
    std::istringstream in(stream.str());
    std::ostringstream out;
    const serve::ServeStats stats = serve::runServe(in, out, cfg);
    EXPECT_EQ(stats.frames, batch.entries.size());
    EXPECT_EQ(stats.frameErrors, 0u);

    std::map<std::string, std::string> serveRows;
    for (const std::string &row : splitLines(out.str()))
        serveRows[rowId(row)] = row;
    ASSERT_EQ(serveRows.size(), batch.entries.size());

    int broken_rows = 0;
    for (const serve::BatchFileEntry &entry : batch.entries) {
        // The expected serve row is the batch entry itself rendered
        // through the same emitter, with the optimized bytes the batch
        // leg wrote to disk inlined — so agreement here means the two
        // modes produced byte-identical circuits *and* byte-identical
        // row metadata (modulo wall time and row order).
        std::string qasm;
        if (!entry.output.empty()) {
            std::ifstream opt(entry.output);
            ASSERT_TRUE(opt.good()) << entry.output;
            std::ostringstream bytes;
            bytes << opt.rdbuf();
            qasm = bytes.str();
        }
        ASSERT_TRUE(serveRows.count(entry.file)) << entry.file;
        EXPECT_EQ(stripSeconds(serveRows[entry.file]),
                  stripSeconds(serve::toServeRowJson(entry, qasm)))
            << entry.file;
        if (entry.file == "broken.qasm") {
            ++broken_rows;
            EXPECT_EQ(entry.status, serve::Status::ParseError);
            EXPECT_EQ(serve::statusCode(entry.status), 1);
            EXPECT_EQ(entry.line, 3); // located, not just flagged
        }
    }
    EXPECT_EQ(broken_rows, 1); // the malformed file was exercised

    fs::remove_all(root);
}

} // namespace
} // namespace guoq
