/**
 * @file
 * The guoq_cli contract, driven through the built binary: byte-stable
 * single-file output at a fixed seed, exit codes 0/1/2, the fail-fast
 * verification precheck, batch failure accounting, the output
 * dialect switch and --progress on stderr, and the batch contract:
 * mirrored output trees, the guoq-batch-v1 summary, registry
 * stamping, warm starts from the persistent synthesis cache and
 * sampling verification past the dense checker's width. The binary's
 * path comes from CMake (GUOQ_CLI_PATH); the suite depends on the
 * guoq_cli target.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <initializer_list>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace guoq {
namespace {

namespace fs = std::filesystem;

const fs::path kExamples = fs::path(GUOQ_SOURCE_DIR) / "examples" / "qasm";
const fs::path kGoldens = fs::path(GUOQ_SOURCE_DIR) / "tests" / "cli_golden";

std::string
readFile(const fs::path &p)
{
    std::ifstream in(p);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void
writeFile(const fs::path &p, const std::string &text)
{
    std::ofstream out(p);
    out << text;
}

/** Number of non-overlapping occurrences of @p needle in @p hay. */
int
countOf(const std::string &hay, const std::string &needle)
{
    int n = 0;
    for (std::size_t at = hay.find(needle); at != std::string::npos;
         at = hay.find(needle, at + needle.size()))
        ++n;
    return n;
}

/** Sum of the integer values of every `"key": N` in a JSON document. */
long
sumOf(const std::string &json, const std::string &key)
{
    // Appends, not operator+: GCC 12's -Werror=restrict misfires on
    // `const char * + std::string`.
    std::string needle = "\"";
    needle += key;
    needle += "\": ";
    long sum = 0;
    for (std::size_t at = json.find(needle); at != std::string::npos;
         at = json.find(needle, at + needle.size()))
        sum += std::strtol(json.c_str() + at + needle.size(), nullptr, 10);
    return sum;
}

/** A scratch directory private to this process, removed on exit. */
class CliTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = fs::temp_directory_path() /
               ("guoq_test_cli_" + std::to_string(::getpid()));
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    void
    TearDown() override
    {
        fs::remove_all(dir_);
    }

    struct Result
    {
        int status = -1; //!< exit code; -1 when killed by a signal
        std::string out;
        std::string err;
    };

    /** Run guoq_cli with @p args (shell words) and stdin from
     *  @p stdinFrom. stdout goes to @p stdoutTo when given, else it is
     *  captured. */
    Result
    run(const std::string &args, const std::string &stdoutTo = "",
        const std::string &stdinFrom = "/dev/null")
    {
        const fs::path out = dir_ / "stdout.txt";
        const fs::path err = dir_ / "stderr.txt";
        const std::string cmd = std::string("'") + GUOQ_CLI_PATH + "' " +
                                args + " > '" +
                                (stdoutTo.empty() ? out.string()
                                                  : stdoutTo) +
                                "' 2> '" + err.string() + "' < '" +
                                stdinFrom + "'";
        const int rc = std::system(cmd.c_str());
        Result r;
        r.status = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
        r.out = stdoutTo.empty() ? readFile(out) : "";
        r.err = readFile(err);
        return r;
    }

    /** A batch root holding the named example files. */
    fs::path
    exampleRoot(const std::string &name,
                std::initializer_list<const char *> files)
    {
        const fs::path root = dir_ / name;
        fs::create_directories(root);
        for (const char *f : files)
            fs::copy_file(kExamples / f, root / f);
        return root;
    }

    /** A batch root holding bell_pair.qasm, plus a malformed file
     *  when @p withBroken. */
    fs::path
    batchRoot(bool withBroken)
    {
        const fs::path root = dir_ / "suite";
        fs::create_directories(root);
        fs::copy_file(kExamples / "bell_pair.qasm", root / "bell_pair.qasm");
        if (withBroken)
            writeFile(root / "broken.qasm",
                      "OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];\n");
        return root;
    }

    fs::path dir_;
};

TEST_F(CliTest, SingleFileOutputMatchesGoldenAtFixedSeed)
{
    int files = 0;
    for (const fs::directory_entry &e : fs::directory_iterator(kExamples)) {
        if (e.path().extension() != ".qasm")
            continue;
        ++files;
        const Result r = run("--in '" + e.path().string() +
                             "' --seed 1 --iterations 200");
        EXPECT_EQ(r.status, 0) << e.path() << "\n" << r.err;
        EXPECT_EQ(r.out, readFile(kGoldens / e.path().filename()))
            << e.path();
    }
    EXPECT_GE(files, 5);
}

TEST_F(CliTest, UnknownAlgorithmIsAUsageErrorWithSuggestion)
{
    const Result r = run("--algorithm qiskit --in '" +
                         (kExamples / "bell_pair.qasm").string() + "'");
    EXPECT_EQ(r.status, 2);
    EXPECT_NE(r.err.find("did you mean 'qiskit-like'"), std::string::npos)
        << r.err;
}

TEST_F(CliTest, MalformedInputExitsOneWithLocation)
{
    writeFile(dir_ / "broken.qasm",
              "OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];\n");
    const Result r = run("--in '" + (dir_ / "broken.qasm").string() + "'");
    EXPECT_EQ(r.status, 1);
    EXPECT_NE(r.err.find(":3:1"), std::string::npos) << r.err;
    EXPECT_TRUE(r.out.empty());
}

/** A 26-qubit GHZ-style input: past the dense and sampling caps. */
std::string
wideQasm()
{
    std::string qasm = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"
                       "qreg q[26];\nh q[0];\n";
    for (int i = 0; i < 25; ++i)
        qasm += "cx q[" + std::to_string(i) + "], q[" +
                std::to_string(i + 1) + "];\n";
    return qasm;
}

TEST_F(CliTest, VerifyPrecheckFailsBeforeSpendingTheBudget)
{
    // phase-poly records no derivation, and 26 qubits is past the
    // dense and sampling caps; the check must refuse the input up
    // front instead of after --time 600.
    writeFile(dir_ / "wide.qasm", wideQasm());
    const Result r = run("--in '" + (dir_ / "wide.qasm").string() +
                         "' --algorithm phase-poly --verify --time 600");
    EXPECT_EQ(r.status, 1);
    EXPECT_NE(r.err.find("--verify"), std::string::npos) << r.err;
    EXPECT_EQ(r.err.find("iterations total"), std::string::npos) << r.err;
    EXPECT_TRUE(r.out.empty());
}

TEST_F(CliTest, WideSingleFileGuoqRunIsCertified)
{
    // Single-thread guoq records its derivation, so `auto` certifies
    // the output at any width instead of refusing the input.
    writeFile(dir_ / "wide.qasm", wideQasm());
    const Result r = run("--in '" + (dir_ / "wide.qasm").string() +
                         "' --verify --iterations 200 --seed 1");
    EXPECT_EQ(r.status, 0) << r.err;
    EXPECT_NE(r.err.find("verified (certificate)"), std::string::npos)
        << r.err;
    EXPECT_NE(r.err.find(": equivalent"), std::string::npos) << r.err;
    EXPECT_NE(r.out.find("qreg q[26];"), std::string::npos) << r.out;
}

TEST_F(CliTest, BatchFailureExitsOneUnlessKeepGoing)
{
    const fs::path root = batchRoot(/*withBroken=*/true);
    const std::string args = "--batch '" + root.string() + "' --out-dir '" +
                             (dir_ / "out").string() +
                             "' --jobs 2 --iterations 50 --seed 1";
    const Result strict = run(args);
    EXPECT_EQ(strict.status, 1) << strict.err;
    EXPECT_NE(strict.err.find("broken.qasm"), std::string::npos);
    EXPECT_NE(strict.err.find("3:1"), std::string::npos) << strict.err;
    EXPECT_TRUE(fs::exists(dir_ / "out" / "bell_pair.qasm"));

    const Result lenient = run(args + " --keep-going");
    EXPECT_EQ(lenient.status, 0) << lenient.err;
    const std::string summary = readFile(dir_ / "out" / "summary.json");
    EXPECT_NE(summary.find("\"failed\": 1"), std::string::npos) << summary;
}

TEST_F(CliTest, BatchMirrorsTheInputTreeAndWritesTheSummary)
{
    const fs::path root = batchRoot(/*withBroken=*/true);
    fs::create_directories(root / "nested");
    fs::copy_file(kExamples / "qft4.qasm", root / "nested" / "qft4.qasm");
    const fs::path out = dir_ / "out";
    const Result r = run("--batch '" + root.string() + "' --out-dir '" +
                         out.string() +
                         "' --jobs 2 --iterations 50 --seed 1 --keep-going");
    EXPECT_EQ(r.status, 0) << r.err;
    EXPECT_TRUE(fs::exists(out / "bell_pair.qasm"));
    EXPECT_TRUE(fs::exists(out / "nested" / "qft4.qasm"));
    EXPECT_FALSE(fs::exists(out / "broken.qasm"));
    const std::string summary = readFile(out / "summary.json");
    EXPECT_NE(summary.find("\"schema\": \"guoq-batch-v1\""),
              std::string::npos)
        << summary;
    EXPECT_NE(summary.find("\"status\": \"parse_error\""),
              std::string::npos)
        << summary;
}

TEST_F(CliTest, ListAlgorithmsShowsTheWholeRegistry)
{
    const Result r = run("--list-algorithms");
    EXPECT_EQ(r.status, 0) << r.err;
    const std::string listing = "\n" + r.out;
    for (const char *algo :
         {"guoq", "guoq-rewrite", "guoq-resynth", "beam", "qiskit-like",
          "tket-like", "voqc-like", "partition-resynth", "phase-poly",
          "rl-like"}) {
        std::string line = "\n";
        line += algo;
        line += ' ';
        EXPECT_NE(listing.find(line), std::string::npos) << algo;
    }
}

TEST_F(CliTest, BatchStampsTheAlgorithmOnEveryRow)
{
    const fs::path root = batchRoot(/*withBroken=*/true);
    const fs::path out = dir_ / "out";
    const Result r = run("--batch '" + root.string() + "' --out-dir '" +
                         out.string() +
                         "' --algorithm qiskit-like --jobs 2 "
                         "--iterations 50 --seed 1 --keep-going");
    EXPECT_EQ(r.status, 0) << r.err;
    // One stamp in the run meta plus one per discovered file.
    EXPECT_EQ(countOf(readFile(out / "summary.json"),
                      "\"algorithm\": \"qiskit-like\""),
              2 + 1);
}

TEST_F(CliTest, WarmSynthCacheReplaysTheColdRun)
{
    // Iteration-capped, single-threaded, fixed seed: the two passes
    // differ only in cache temperature.
    const fs::path root =
        exampleRoot("wsuite", {"ghz5_qasm3.qasm", "ghz12_redundant.qasm"});
    const std::string args = "--batch '" + root.string() +
                             "' --jobs 1 --threads 1 --iterations 400 "
                             "--epsilon 1e-5 --seed 1 --synth-cache '" +
                             (dir_ / "scache").string() + "' --out-dir '";
    const Result cold = run(args + (dir_ / "cold").string() + "'");
    ASSERT_EQ(cold.status, 0) << cold.err;
    const Result warm = run(args + (dir_ / "warm").string() + "'");
    ASSERT_EQ(warm.status, 0) << warm.err;

    const std::string coldSummary = readFile(dir_ / "cold" / "summary.json");
    const std::string warmSummary = readFile(dir_ / "warm" / "summary.json");
    const long coldMisses = sumOf(coldSummary, "synth_cache_misses");
    const long warmMisses = sumOf(warmSummary, "synth_cache_misses");
    EXPECT_GT(coldMisses, 0) << coldSummary;
    EXPECT_GT(sumOf(warmSummary, "synth_cache_hits"), 0) << warmSummary;
    EXPECT_LE(warmMisses * 2, coldMisses) << warmSummary;
    // The stderr tally is the summary's rows merged.
    std::string tally = "synthesis cache: ";
    tally += std::to_string(sumOf(warmSummary, "synth_cache_hits"));
    tally += " hit(s), ";
    tally += std::to_string(warmMisses);
    tally += " miss(es), ";
    tally += std::to_string(sumOf(warmSummary, "synth_cache_stores"));
    tally += " store(s)";
    EXPECT_NE(warm.err.find(tally), std::string::npos) << warm.err;
    for (const char *f : {"ghz5_qasm3.qasm", "ghz12_redundant.qasm"})
        EXPECT_EQ(readFile(dir_ / "warm" / f), readFile(dir_ / "cold" / f))
            << f;
}

TEST_F(CliTest, SamplingVerifiesATwelveQubitBatch)
{
    // 12 qubits is past the dense checker; the sampling backend must
    // verify the file rather than skip it.
    const fs::path root = exampleRoot("vsuite", {"ghz12_redundant.qasm"});
    const fs::path out = dir_ / "out";
    const Result r = run("--batch '" + root.string() + "' --out-dir '" +
                         out.string() +
                         "' --iterations 200 --seed 1 --verify "
                         "--verify-method sampling --verify-shots 256");
    EXPECT_EQ(r.status, 0) << r.err;
    const std::string summary = readFile(out / "summary.json");
    EXPECT_NE(summary.find("\"method\": \"sampling\""), std::string::npos)
        << summary;
    EXPECT_NE(summary.find("\"verdict\": \"equivalent\""),
              std::string::npos)
        << summary;
    EXPECT_NE(summary.find("\"bound\": "), std::string::npos) << summary;
    EXPECT_EQ(summary.find("\"bound\": null"), std::string::npos)
        << summary;
    EXPECT_NE(summary.find("\"verify_skipped\": 0"), std::string::npos)
        << summary;
}

TEST_F(CliTest, OutDialectQasm3)
{
    const Result r = run("--in '" + (kExamples / "bell_pair.qasm").string() +
                         "' --iterations 50 --out-dialect qasm3");
    EXPECT_EQ(r.status, 0) << r.err;
    EXPECT_EQ(r.out.rfind("OPENQASM 3", 0), 0u) << r.out;
}

TEST_F(CliTest, ProgressStreamsBestCostToStderr)
{
    // --quiet silences the report, so every "best cost" line left is a
    // progress event.
    const Result r = run("--in '" +
                         (kExamples / "ghz12_redundant.qasm").string() +
                         "' --iterations 200 --seed 1 --quiet --progress");
    EXPECT_EQ(r.status, 0) << r.err;
    EXPECT_NE(r.err.find("best cost"), std::string::npos) << r.err;
    EXPECT_EQ(r.out.rfind("OPENQASM 2.0;", 0), 0u);
}

// --- serve mode ------------------------------------------------------

/** The text of `"key": ` 's value in one JSON row, up to the next
 *  comma or brace ("" when the key is absent). */
std::string
rowField(const std::string &row, const std::string &key)
{
    std::string needle = "\"";
    needle += key;
    needle += "\": ";
    const std::size_t at = row.find(needle);
    if (at == std::string::npos)
        return "";
    const std::size_t from = at + needle.size();
    return row.substr(from, row.find_first_of(",}", from) - from);
}

TEST_F(CliTest, ServeStreamsOneVerifiedRowPerFrame)
{
    // The example corpus as guoq-serve-v1 frames, then one framed but
    // unparsable payload and one garbage line that is no frame at all.
    std::string frames;
    std::vector<std::string> ids = {"malformed.qasm"};
    int files = 0;
    for (const fs::directory_entry &e : fs::directory_iterator(kExamples)) {
        if (e.path().extension() != ".qasm")
            continue;
        const std::string text = readFile(e.path());
        frames += "request " + e.path().filename().string() +
                  " seed=1\npayload " + std::to_string(text.size()) +
                  "\n" + text + "end\n";
        ids.push_back(e.path().filename().string());
        ++files;
    }
    const std::string bad = "OPENQASM 2.0;\nqreg q[1];\nfrobnicate q[0];\n";
    frames += "request malformed.qasm\npayload " +
              std::to_string(bad.size()) + "\n" + bad + "end\n";
    frames += "this is not a frame\n";
    writeFile(dir_ / "frames.txt", frames);

    const Result r = run("--serve --jobs 2 --iterations 200 --seed 1 "
                         "--capacity 4 --verify",
                         "", (dir_ / "frames.txt").string());
    EXPECT_EQ(r.status, 0) << r.err;
    EXPECT_NE(r.err.find("served"), std::string::npos) << r.err;

    std::istringstream lines(r.out);
    std::string row;
    std::map<std::string, int> seen;
    int rows = 0, ok = 0, frameErrors = 0;
    while (std::getline(lines, row)) {
        ++rows;
        EXPECT_EQ(rowField(row, "schema"), "\"guoq-serve-row-v1\"") << row;
        ++seen[rowField(row, "id")];
        const std::string code = rowField(row, "code");
        if (code == "4")
            ++frameErrors;
        if (rowField(row, "id") == "\"malformed.qasm\"") {
            EXPECT_EQ(rowField(row, "status"), "\"parse_error\"") << row;
            EXPECT_EQ(code, "1") << row;
            EXPECT_EQ(rowField(row, "line"), "3") << row;
        }
        if (code != "0")
            continue;
        ++ok;
        EXPECT_EQ(rowField(row, "qasm").rfind("\"OPENQASM", 0), 0u) << row;
        EXPECT_EQ(rowField(row, "verify"), "{\"method\": \"certificate\"")
            << row;
        EXPECT_EQ(rowField(row, "verdict"), "\"equivalent\"") << row;
    }
    EXPECT_EQ(rows, files + 2);
    EXPECT_EQ(ok, files);
    EXPECT_EQ(frameErrors, 1);
    for (const std::string &id : ids)
        EXPECT_EQ(seen["\"" + id + "\""], 1) << id;
}

// --- write failures exit 1 in every mode -----------------------------

class CliWriteFailureTest : public CliTest
{
  protected:
    void
    SetUp() override
    {
        if (!fs::exists("/dev/full"))
            GTEST_SKIP() << "no /dev/full on this system";
        CliTest::SetUp();
    }
};

TEST_F(CliWriteFailureTest, OutFileOnFullDevice)
{
    const Result r = run("--in '" + (kExamples / "bell_pair.qasm").string() +
                         "' --iterations 50 --out /dev/full");
    EXPECT_EQ(r.status, 1);
    EXPECT_NE(r.err.find("cannot write"), std::string::npos) << r.err;
}

TEST_F(CliWriteFailureTest, StdoutOnFullDevice)
{
    const Result r = run("--in '" + (kExamples / "bell_pair.qasm").string() +
                             "' --iterations 50 --out -",
                         "/dev/full");
    EXPECT_EQ(r.status, 1);
    EXPECT_NE(r.err.find("cannot write"), std::string::npos) << r.err;
}

TEST_F(CliWriteFailureTest, BatchSummaryToStdoutOnFullDevice)
{
    const fs::path root = batchRoot(/*withBroken=*/false);
    const Result r = run("--batch '" + root.string() + "' --out-dir '" +
                             (dir_ / "out").string() +
                             "' --iterations 50 --keep-going --summary -",
                         "/dev/full");
    EXPECT_EQ(r.status, 1);
    EXPECT_NE(r.err.find("cannot write"), std::string::npos) << r.err;
}

} // namespace
} // namespace guoq
