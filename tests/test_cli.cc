/**
 * @file
 * The guoq_cli contract, driven through the built binary: byte-stable
 * single-file output at a fixed seed, exit codes 0/1/2, the fail-fast
 * verification precheck, batch failure accounting, the output
 * dialect switch and --progress on stderr. The binary's path comes
 * from CMake (GUOQ_CLI_PATH); the suite depends on the guoq_cli target.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

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

    /** Run guoq_cli with @p args (shell words). stdout goes to
     *  @p stdoutTo when given, else it is captured. */
    Result
    run(const std::string &args, const std::string &stdoutTo = "")
    {
        const fs::path out = dir_ / "stdout.txt";
        const fs::path err = dir_ / "stderr.txt";
        const std::string cmd = std::string("'") + GUOQ_CLI_PATH + "' " +
                                args + " > '" +
                                (stdoutTo.empty() ? out.string()
                                                  : stdoutTo) +
                                "' 2> '" + err.string() + "' < /dev/null";
        const int rc = std::system(cmd.c_str());
        Result r;
        r.status = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
        r.out = stdoutTo.empty() ? readFile(out) : "";
        r.err = readFile(err);
        return r;
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

TEST_F(CliTest, VerifyPrecheckFailsBeforeSpendingTheBudget)
{
    // 26 qubits is past every verification backend's cap; the check
    // must refuse the input up front instead of after --time 600.
    std::string qasm = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"
                       "qreg q[26];\nh q[0];\n";
    for (int i = 0; i < 25; ++i)
        qasm += "cx q[" + std::to_string(i) + "], q[" +
                std::to_string(i + 1) + "];\n";
    writeFile(dir_ / "wide.qasm", qasm);
    const Result r = run("--in '" + (dir_ / "wide.qasm").string() +
                         "' --verify --time 600");
    EXPECT_EQ(r.status, 1);
    EXPECT_NE(r.err.find("--verify"), std::string::npos) << r.err;
    EXPECT_EQ(r.err.find("iterations total"), std::string::npos) << r.err;
    EXPECT_TRUE(r.out.empty());
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
