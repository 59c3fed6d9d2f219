/**
 * @file
 * Tests for the benchmark subsystem: the fixed signed reduction()
 * metric, the case registry, and golden-file JSON/CSV emission with a
 * CSV round-trip through a minimal RFC-4180 parser and a JSON shape
 * check through a minimal JSON parser.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/emit.h"
#include "bench/harness.h"
#include "bench/registry.h"
#include "support/json.h"

namespace guoq {
namespace {

using bench::CaseResult;

TEST(BenchReduction, ReportsSignedGrowth)
{
    EXPECT_DOUBLE_EQ(bench::reduction(100, 75), 0.25);
    EXPECT_DOUBLE_EQ(bench::reduction(4, 4), 0.0);
    EXPECT_DOUBLE_EQ(bench::reduction(10, 15), -0.5);
    // The old harness reported 0 for a circuit that grew from an empty
    // baseline; growth must be visible (and negative).
    EXPECT_DOUBLE_EQ(bench::reduction(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(bench::reduction(0, 5), -5.0);
    EXPECT_LT(bench::reduction(0, 1), bench::reduction(0, 0));
}

TEST(BenchRunOptions, BudgetAndTrialSeeds)
{
    bench::RunOptions opts;
    opts.scale = 0.5;
    opts.seed = 100;
    EXPECT_DOUBLE_EQ(opts.budget(8.0), 4.0);
    EXPECT_EQ(opts.trialSeed(0), 100u);
    EXPECT_EQ(opts.trialSeed(3), 103u);
}

TEST(BenchRegistry, MatchesComponentsThenSubstringsInCanonicalOrder)
{
    auto noop = [](bench::CaseContext &) {};
    bench::Registry::instance().add(
        {"zzt/second", "second", 9002, noop});
    bench::Registry::instance().add({"zzt/first", "first", 9001, noop});
    bench::Registry::instance().add({"zzt2", "other", 9003, noop});

    // Component-aware: "zzt" selects zzt/* but NOT zzt2 (the fig1 vs
    // fig10..fig15 precision problem).
    const auto both = bench::Registry::instance().matching({"zzt"});
    ASSERT_EQ(both.size(), 2u);
    EXPECT_EQ(both[0]->id, "zzt/first"); // order key, not insertion
    EXPECT_EQ(both[1]->id, "zzt/second");

    const auto exact = bench::Registry::instance().matching({"zzt2"});
    ASSERT_EQ(exact.size(), 1u);
    EXPECT_EQ(exact[0]->id, "zzt2");

    // A filter with no component-level hit falls back to substring.
    const auto sub = bench::Registry::instance().matching({"t/sec"});
    ASSERT_EQ(sub.size(), 1u);
    EXPECT_EQ(sub[0]->id, "zzt/second");

    EXPECT_TRUE(bench::Registry::instance()
                    .matching({"no-such-case-anywhere"})
                    .empty());
}

TEST(BenchHarness, CaseContextStampsCaseIdAndClearsRunStash)
{
    bench::RunOptions opts;
    std::vector<CaseResult> sink;
    bench::CaseContext ctx(opts, "fig0", sink);

    // Stashes accumulate, so a tool built from several portfolio phases
    // reports every phase's workers and counters.
    auto report = [](double first_worker_seconds, long hits) {
        core::OptimizeReport r;
        r.workers.resize(2);
        r.workers[0].wallSeconds = first_worker_seconds;
        r.workers[1].wallSeconds = first_worker_seconds + 0.5;
        r.stats.iterations = 10;
        r.stats.synthCache.hits = hits;
        return r;
    };
    ctx.stashRun(report(1.0, 3));
    ctx.stashRun(report(2.0, 4));
    // A one-worker run carries no per-worker timings.
    core::OptimizeReport single;
    single.workers.resize(1);
    single.stats.synthCache.misses = 5;
    ctx.stashRun(single);

    CaseResult row = ctx.takeRun();
    row.benchmark = "b";
    row.tool = "t";
    row.metric = "m";
    ctx.record(row);
    // The stash is take-once: a second take must not re-attach the
    // first runs to a later row.
    const CaseResult again = ctx.takeRun();
    EXPECT_TRUE(again.workerSeconds.empty());
    EXPECT_EQ(again.stats.iterations, 0);
    EXPECT_EQ(again.stats.synthCache.hits, 0);

    ASSERT_EQ(sink.size(), 1u);
    EXPECT_EQ(sink[0].caseId, "fig0");
    EXPECT_EQ(sink[0].workerSeconds,
              (std::vector<double>{1.0, 1.5, 2.0, 2.5}));
    EXPECT_EQ(sink[0].stats.iterations, 20);
    EXPECT_EQ(sink[0].stats.synthCache.hits, 7);
    EXPECT_EQ(sink[0].stats.synthCache.misses, 5);
}

std::vector<CaseResult>
goldenResults()
{
    CaseResult a;
    a.caseId = "fig1";
    a.benchmark = "qft_6";
    a.tool = "guoq";
    a.algorithm = "guoq";
    a.metric = "2q_reduction";
    a.value = 0.25;
    a.seconds = 0.5;
    a.trial = 0;
    a.seed = 7;
    a.workerSeconds = {0.25, 0.5};
    CaseResult b;
    b.caseId = "fig1";
    b.benchmark = "a\"b,c\nd";
    b.tool = "t\\v";
    b.metric = "m";
    b.value = -1.5;
    b.seconds = 0;
    b.trial = 1;
    b.seed = 8;
    // Distinct non-zero counters, so a dropped or swapped field shows.
    CaseResult c;
    c.caseId = "synthcache";
    c.benchmark = "ghz5";
    c.tool = "warm";
    c.metric = "warm_identical";
    c.value = 1;
    c.seconds = 0.125;
    c.trial = 0;
    c.seed = 9;
    c.stats.synthCache.hits = 3;
    c.stats.synthCache.misses = 2;
    c.stats.synthCache.stores = 1;
    return {a, b, c};
}

bench::RunMeta
goldenMeta()
{
    bench::RunMeta meta;
    meta.scale = 0.5;
    meta.trials = 2;
    meta.seed = 7;
    meta.threads = 2;
    meta.cases = {"fig1", "table3"};
    meta.machine.cpu = "Test CPU @ 1.00GHz";
    meta.machine.logicalCores = 4;
    meta.machine.simd = "avx2";
    meta.machine.compiler = "GNU 12.2.0";
    meta.machine.buildType = "Release";
    return meta;
}

TEST(BenchEmit, JsonGolden)
{
    const std::string expected = "{\n"
                                 "  \"schema\": \"guoq-bench-v1\",\n"
                                 "  \"run\": {\n"
                                 "    \"scale\": 0.5,\n"
                                 "    \"trials\": 2,\n"
                                 "    \"seed\": 7,\n"
                                 "    \"threads\": 2,\n"
                                 "    \"cases\": [\"fig1\", \"table3\"],\n"
                                 "    \"machine\": {\n"
                                 "      \"cpu\": \"Test CPU @ 1.00GHz\",\n"
                                 "      \"logical_cores\": 4,\n"
                                 "      \"simd\": \"avx2\",\n"
                                 "      \"compiler\": \"GNU 12.2.0\",\n"
                                 "      \"build_type\": \"Release\"\n"
                                 "    }\n"
                                 "  },\n"
                                 "  \"results\": [\n"
                                 "    {\n"
                                 "      \"case\": \"fig1\",\n"
                                 "      \"benchmark\": \"qft_6\",\n"
                                 "      \"tool\": \"guoq\",\n"
                                 "      \"algorithm\": \"guoq\",\n"
                                 "      \"metric\": \"2q_reduction\",\n"
                                 "      \"value\": 0.25,\n"
                                 "      \"seconds\": 0.5,\n"
                                 "      \"trial\": 0,\n"
                                 "      \"seed\": 7,\n"
                                 "      \"workers\": [0.25, 0.5],\n"
                                 "      \"synth_cache_hits\": 0,\n"
                                 "      \"synth_cache_misses\": 0,\n"
                                 "      \"synth_cache_stores\": 0\n"
                                 "    },\n"
                                 "    {\n"
                                 "      \"case\": \"fig1\",\n"
                                 "      \"benchmark\": \"a\\\"b,c\\nd\",\n"
                                 "      \"tool\": \"t\\\\v\",\n"
                                 "      \"algorithm\": \"\",\n"
                                 "      \"metric\": \"m\",\n"
                                 "      \"value\": -1.5,\n"
                                 "      \"seconds\": 0,\n"
                                 "      \"trial\": 1,\n"
                                 "      \"seed\": 8,\n"
                                 "      \"workers\": [],\n"
                                 "      \"synth_cache_hits\": 0,\n"
                                 "      \"synth_cache_misses\": 0,\n"
                                 "      \"synth_cache_stores\": 0\n"
                                 "    },\n"
                                 "    {\n"
                                 "      \"case\": \"synthcache\",\n"
                                 "      \"benchmark\": \"ghz5\",\n"
                                 "      \"tool\": \"warm\",\n"
                                 "      \"algorithm\": \"\",\n"
                                 "      \"metric\": \"warm_identical\",\n"
                                 "      \"value\": 1,\n"
                                 "      \"seconds\": 0.125,\n"
                                 "      \"trial\": 0,\n"
                                 "      \"seed\": 9,\n"
                                 "      \"workers\": [],\n"
                                 "      \"synth_cache_hits\": 3,\n"
                                 "      \"synth_cache_misses\": 2,\n"
                                 "      \"synth_cache_stores\": 1\n"
                                 "    }\n"
                                 "  ]\n"
                                 "}\n";
    EXPECT_EQ(bench::toJson(goldenMeta(), goldenResults()), expected);
}

TEST(BenchEmit, JsonEmptyResultsAndNonFiniteValues)
{
    bench::RunMeta meta;
    meta.cases = {};
    const std::string empty = bench::toJson(meta, {});
    EXPECT_NE(empty.find("\"results\": []"), std::string::npos);

    // JSON has no NaN/Inf literal; they must emit as null so the
    // document always parses.
    CaseResult r;
    r.caseId = "c";
    r.value = std::nan("");
    r.seconds = std::numeric_limits<double>::infinity();
    const std::string doc = bench::toJson(meta, {r});
    EXPECT_NE(doc.find("\"value\": null"), std::string::npos);
    EXPECT_NE(doc.find("\"seconds\": null"), std::string::npos);
    EXPECT_EQ(doc.find("nan"), std::string::npos);
    EXPECT_EQ(doc.find("inf"), std::string::npos);

    // CSV mirrors null as an empty field: no "nan"/"inf" tokens.
    const std::string csv = bench::toCsv({r});
    EXPECT_NE(csv.find("c,,,,,,0,0,,"), std::string::npos);
    EXPECT_EQ(csv.find("nan"), std::string::npos);
    EXPECT_EQ(csv.find("inf"), std::string::npos);
}

TEST(BenchEmit, CsvGolden)
{
    // `algorithm` and the synth-cache counters ride at the end so the
    // original columns keep their positions for pre-existing CSV
    // consumers.
    const std::string expected =
        "case,benchmark,tool,metric,value,seconds,trial,seed,workers,"
        "algorithm,synth_cache_hits,synth_cache_misses,"
        "synth_cache_stores\n"
        "fig1,qft_6,guoq,2q_reduction,0.25,0.5,0,7,0.25;0.5,guoq,0,0,0\n"
        "fig1,\"a\"\"b,c\nd\",t\\v,m,-1.5,0,1,8,,,0,0,0\n"
        "synthcache,ghz5,warm,warm_identical,1,0.125,0,9,,,3,2,1\n";
    EXPECT_EQ(bench::toCsv(goldenResults()), expected);
}

/** Minimal RFC-4180 record parser for the round-trip check. */
std::vector<std::vector<std::string>>
parseCsv(const std::string &text)
{
    std::vector<std::vector<std::string>> records;
    std::vector<std::string> record;
    std::string field;
    bool quoted = false;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (quoted) {
            if (c == '"' && i + 1 < text.size() && text[i + 1] == '"') {
                field += '"';
                ++i;
            } else if (c == '"') {
                quoted = false;
            } else {
                field += c;
            }
        } else if (c == '"') {
            quoted = true;
        } else if (c == ',') {
            record.push_back(field);
            field.clear();
        } else if (c == '\n') {
            record.push_back(field);
            field.clear();
            records.push_back(record);
            record.clear();
        } else {
            field += c;
        }
    }
    return records;
}

TEST(BenchEmit, CsvRoundTripsThroughRfc4180Parser)
{
    const auto records = parseCsv(bench::toCsv(goldenResults()));
    ASSERT_EQ(records.size(), 4u); // header + 3 rows
    for (const auto &record : records)
        EXPECT_EQ(record.size(), 13u);
    EXPECT_EQ(records[0][0], "case");
    EXPECT_EQ(records[1][1], "qft_6");
    EXPECT_EQ(records[1][8], "0.25;0.5");
    EXPECT_EQ(records[1][9], "guoq");
    // The embedded quote, comma, and newline survive the round trip.
    EXPECT_EQ(records[2][1], "a\"b,c\nd");
    EXPECT_EQ(records[2][4], "-1.5");
    EXPECT_EQ(records[3][10], "3");
    EXPECT_EQ(records[3][11], "2");
    EXPECT_EQ(records[3][12], "1");
}

/** A parsed JSON value: just enough structure for the shape check. */
struct JsonValue
{
    enum class Type { Null, Bool, Number, String, Array, Object };
    Type type = Type::Null;
    double number = 0;
    std::string text;
    std::vector<JsonValue> items;
    std::map<std::string, JsonValue> fields;
};

/** Strict recursive-descent JSON (RFC 8259) parser; null on error. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : s_(text) {}

    std::unique_ptr<JsonValue>
    parseDocument()
    {
        auto v = std::make_unique<JsonValue>();
        if (!value(*v))
            return nullptr;
        skipSpace();
        return at_ == s_.size() ? std::move(v) : nullptr;
    }

  private:
    void
    skipSpace()
    {
        while (at_ < s_.size() && std::isspace(
                                      static_cast<unsigned char>(s_[at_])))
            ++at_;
    }

    bool
    literal(const char *word)
    {
        const std::string w(word);
        if (s_.compare(at_, w.size(), w) != 0)
            return false;
        at_ += w.size();
        return true;
    }

    bool
    string(std::string &out)
    {
        if (at_ >= s_.size() || s_[at_] != '"')
            return false;
        for (++at_; at_ < s_.size(); ++at_) {
            const char c = s_[at_];
            if (c == '"') {
                ++at_;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return false;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (++at_ >= s_.size())
                return false;
            const char e = s_[at_];
            const std::string simple = "\"\\/bfnrt";
            if (simple.find(e) != std::string::npos) {
                out += e;
            } else if (e == 'u') {
                for (int k = 0; k < 4; ++k)
                    if (++at_ >= s_.size() ||
                        !std::isxdigit(static_cast<unsigned char>(s_[at_])))
                        return false;
                out += '?';
            } else {
                return false;
            }
        }
        return false;
    }

    bool
    number(double &out)
    {
        const std::size_t start = at_;
        if (at_ < s_.size() && s_[at_] == '-')
            ++at_;
        const std::size_t digits = at_;
        while (at_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[at_])) ||
                std::string(".eE+-").find(s_[at_]) != std::string::npos))
            ++at_;
        if (at_ == digits ||
            !std::isdigit(static_cast<unsigned char>(s_[digits])))
            return false;
        const std::string token = s_.substr(start, at_ - start);
        char *end = nullptr;
        out = std::strtod(token.c_str(), &end);
        return end == token.c_str() + token.size();
    }

    bool
    value(JsonValue &v)
    {
        skipSpace();
        if (at_ >= s_.size())
            return false;
        const char c = s_[at_];
        if (c == '{') {
            v.type = JsonValue::Type::Object;
            ++at_;
            skipSpace();
            if (at_ < s_.size() && s_[at_] == '}') {
                ++at_;
                return true;
            }
            for (;;) {
                skipSpace();
                std::string key;
                if (!string(key))
                    return false;
                skipSpace();
                if (at_ >= s_.size() || s_[at_++] != ':')
                    return false;
                if (v.fields.count(key) != 0 || !value(v.fields[key]))
                    return false;
                skipSpace();
                if (at_ >= s_.size())
                    return false;
                if (s_[at_] == '}') {
                    ++at_;
                    return true;
                }
                if (s_[at_++] != ',')
                    return false;
            }
        }
        if (c == '[') {
            v.type = JsonValue::Type::Array;
            ++at_;
            skipSpace();
            if (at_ < s_.size() && s_[at_] == ']') {
                ++at_;
                return true;
            }
            for (;;) {
                v.items.emplace_back();
                if (!value(v.items.back()))
                    return false;
                skipSpace();
                if (at_ >= s_.size())
                    return false;
                if (s_[at_] == ']') {
                    ++at_;
                    return true;
                }
                if (s_[at_++] != ',')
                    return false;
            }
        }
        if (c == '"') {
            v.type = JsonValue::Type::String;
            return string(v.text);
        }
        if (literal("null"))
            return true;
        if (literal("true") || literal("false")) {
            v.type = JsonValue::Type::Bool;
            return true;
        }
        v.type = JsonValue::Type::Number;
        return number(v.number);
    }

    const std::string &s_;
    std::size_t at_ = 0;
};

/** The guoq-bench-v1 shape: schema, run block and typed result rows. */
::testing::AssertionResult
hasBenchShape(const std::string &doc, std::size_t rows)
{
    using T = JsonValue::Type;
    JsonParser parser(doc);
    const std::unique_ptr<JsonValue> root = parser.parseDocument();
    if (!root)
        return ::testing::AssertionFailure() << "not JSON:\n" << doc;
    auto field = [](const JsonValue &obj, const std::string &key,
                    T type) -> const JsonValue * {
        if (obj.type != T::Object)
            return nullptr;
        const auto it = obj.fields.find(key);
        return it != obj.fields.end() && it->second.type == type
                   ? &it->second
                   : nullptr;
    };
    const JsonValue *schema = field(*root, "schema", T::String);
    if (schema == nullptr || schema->text != "guoq-bench-v1")
        return ::testing::AssertionFailure() << "schema";
    const JsonValue *run = field(*root, "run", T::Object);
    if (run == nullptr)
        return ::testing::AssertionFailure() << "no run block";
    for (const char *key : {"scale", "trials", "seed", "threads"})
        if (field(*run, key, T::Number) == nullptr)
            return ::testing::AssertionFailure() << "run." << key;
    if (field(*run, "cases", T::Array) == nullptr ||
        field(*run, "machine", T::Object) == nullptr)
        return ::testing::AssertionFailure() << "run.cases/machine";
    const JsonValue *results = field(*root, "results", T::Array);
    if (results == nullptr || results->items.size() != rows)
        return ::testing::AssertionFailure() << "results";
    for (const JsonValue &row : results->items) {
        for (const char *key :
             {"case", "benchmark", "tool", "algorithm", "metric"})
            if (field(row, key, T::String) == nullptr)
                return ::testing::AssertionFailure() << "row." << key;
        for (const char *key : {"value", "seconds"})
            if (field(row, key, T::Number) == nullptr &&
                field(row, key, T::Null) == nullptr)
                return ::testing::AssertionFailure() << "row." << key;
        for (const char *key :
             {"trial", "seed", "synth_cache_hits", "synth_cache_misses",
              "synth_cache_stores"})
            if (field(row, key, T::Number) == nullptr)
                return ::testing::AssertionFailure() << "row." << key;
        if (field(row, "workers", T::Array) == nullptr)
            return ::testing::AssertionFailure() << "row.workers";
    }
    return ::testing::AssertionSuccess();
}

TEST(BenchEmit, JsonParsesWithTheBenchShape)
{
    EXPECT_TRUE(hasBenchShape(bench::toJson(goldenMeta(), goldenResults()),
                              3));
    EXPECT_TRUE(hasBenchShape(bench::toJson(bench::RunMeta{}, {}), 0));
    CaseResult odd;
    odd.caseId = "c";
    odd.value = std::nan("");
    odd.seconds = -std::numeric_limits<double>::infinity();
    EXPECT_TRUE(hasBenchShape(bench::toJson(goldenMeta(), {odd}), 1));
    // The checker is not vacuous.
    EXPECT_FALSE(hasBenchShape("{\"schema\": \"guoq-bench-v1\",}", 0));
    EXPECT_FALSE(hasBenchShape(
        bench::toJson(goldenMeta(), goldenResults()) + "x", 3));
    EXPECT_FALSE(hasBenchShape(bench::toJson(goldenMeta(), {}), 1));
}

TEST(BenchEmit, EscapingHelpers)
{
    EXPECT_EQ(support::jsonEscape("a\"b\\c\nd\te"),
              "a\\\"b\\\\c\\nd\\te");
    EXPECT_EQ(support::jsonEscape(std::string(1, '\x01')), "\\u0001");
    EXPECT_EQ(bench::csvField("plain"), "plain");
    EXPECT_EQ(bench::csvField("a,b"), "\"a,b\"");
    EXPECT_EQ(bench::csvField("a\"b"), "\"a\"\"b\"");
}

} // namespace
} // namespace guoq
