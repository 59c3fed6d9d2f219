/**
 * @file
 * Tests of the benchmark's own machinery: percentiles and the
 * sample-count rule, the pacing and row-stamping streams, metric-name
 * validation, span self time, and a tiny smoke run of every workload
 * whose metric names must match BENCHMARK.json.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <istream>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "report.h"
#include "streams.h"
#include "trace.h"
#include "workload.h"

namespace {

using namespace perfbench;
using namespace std::chrono_literals;

TEST(Report, NearestRankPercentile)
{
    std::vector<double> v;
    for (int i = 1; i <= 200; ++i)
        v.push_back(i);
    EXPECT_EQ(percentile(v, 95), 190);
    EXPECT_EQ(percentile(v, 50), 100);
    EXPECT_EQ(percentile(v, 100), 200);
    EXPECT_EQ(percentile({7}, 95), 7);
    EXPECT_EQ(percentile({}, 95), 0);
    EXPECT_EQ(median({3, 1, 2}), 2);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(Report, TenSamplesBeyondRule)
{
    EXPECT_EQ(samplesBeyond(200, 95), 10u);
    EXPECT_EQ(samplesBeyond(199, 95), 9u);
    EXPECT_EQ(minSamplesFor(95), 200u);
    EXPECT_EQ(minSamplesFor(99), 1000u);
    EXPECT_EQ(minSamplesFor(50), 20u);
    // The rule holds against the percentile itself: exactly
    // samplesBeyond values are strictly above it (distinct samples).
    std::vector<double> v;
    for (int i = 0; i < 240; ++i)
        v.push_back(i * 0.5);
    const double p95 = percentile(v, 95);
    std::size_t above = 0;
    for (double x : v)
        above += x > p95 ? 1 : 0;
    EXPECT_EQ(above, samplesBeyond(v.size(), 95));
}

TEST(Report, MetricNameValidation)
{
    EXPECT_TRUE(validMetricName("serve_p95_ms"));
    EXPECT_TRUE(validMetricName("synth.resynth3_ms_p50"));
    EXPECT_TRUE(validMetricName("2q-count"));
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName("_leading"));
    EXPECT_FALSE(validMetricName(".leading"));
    EXPECT_FALSE(validMetricName("has space"));
    EXPECT_FALSE(validMetricName("slash/name"));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
    EXPECT_TRUE(validMetricName(std::string(64, 'a')));
    EXPECT_TRUE(validUnit("req/s"));
    EXPECT_TRUE(validUnit("%"));
    EXPECT_FALSE(validUnit("way too long unit"));
}

TEST(Report, ResultJsonRejectsBadMetrics)
{
    Report r;
    r.add("wall_s", 1.5, "s");
    std::string err;
    EXPECT_EQ(resultJson(r, &err),
              "{\"correct\": true, \"attempted\": 0, \"failed\": 0, "
              "\"metrics\": {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}");
    r.add("wall_s", 2, "s");
    EXPECT_EQ(resultJson(r, &err), "");
    EXPECT_NE(err.find("twice"), std::string::npos);

    Report bad;
    bad.add("bad name", 1, "s");
    EXPECT_EQ(resultJson(bad, &err), "");

    Report c;
    c.check(true);
    c.check(false);
    EXPECT_FALSE(c.correct);
    EXPECT_EQ(c.attempted, 2);
    EXPECT_EQ(c.failed, 1);
}

TEST(Streams, PacingNeverDeliversEarlyAndRecordsLag)
{
    PacedInput paced({"a\n", "b\n", "c\n"}, {0.0, 0.03, 0.06});
    std::istream in(&paced);
    const Clock::time_point t0 = Clock::now();
    paced.start(t0);
    std::string line;
    for (std::size_t i = 0; i < 3; ++i) {
        if (i == 2)
            std::this_thread::sleep_for(80ms); // fall behind frame 2
        ASSERT_TRUE(std::getline(in, line));
        EXPECT_GE(Clock::now(), paced.due(i)) << "frame " << i;
    }
    EXPECT_FALSE(std::getline(in, line));
    ASSERT_EQ(paced.lagSeconds().size(), 3u);
    for (double lag : paced.lagSeconds())
        EXPECT_GE(lag, 0.0);
    // Frame 2 was due at 60 ms but read after at least 30 + 80 ms.
    EXPECT_GE(paced.lagSeconds()[2], 0.04);
}

TEST(Streams, PacedFramesParseAsOneStream)
{
    PacedInput paced({"request x\npayload 3\n", "abc\nend\n"}, {0, 0.01});
    std::istream in(&paced);
    paced.start(Clock::now());
    std::ostringstream all;
    all << in.rdbuf();
    EXPECT_EQ(all.str(), "request x\npayload 3\nabc\nend\n");
}

TEST(Streams, RowStampsHandleRowsSplitAcrossWrites)
{
    RowStamps stamps;
    std::ostream out(&stamps);
    out << "{\"id\": \"r1\",";
    out.flush();
    std::this_thread::sleep_for(20ms);
    const Clock::time_point beforeEnd = Clock::now();
    out << " \"code\": 0}\n{\"id\": \"r2\"}\n{\"id\"";
    out.flush();
    ASSERT_EQ(stamps.rows().size(), 2u);
    EXPECT_EQ(stamps.rows()[0].line, "{\"id\": \"r1\", \"code\": 0}");
    EXPECT_GE(stamps.rows()[0].at, beforeEnd);
    EXPECT_EQ(stamps.rows()[1].line, "{\"id\": \"r2\"}");
    out << ": \"r3\"}" << '\n';
    ASSERT_EQ(stamps.rows().size(), 3u);
    EXPECT_EQ(stamps.rows()[2].line, "{\"id\": \"r3\"}");
}

TEST(Streams, JsonFields)
{
    const std::string row = "{\"id\": \"a\\\"b\", \"code\": 0, \"qasm\": "
                            "\"x;\\ny;\\u0009\", \"seconds\": 1.5e-3}";
    std::string s;
    double d = -1;
    ASSERT_TRUE(jsonStringField(row, "id", &s));
    EXPECT_EQ(s, "a\"b");
    ASSERT_TRUE(jsonStringField(row, "qasm", &s));
    EXPECT_EQ(s, "x;\ny;\t");
    ASSERT_TRUE(jsonNumberField(row, "seconds", &d));
    EXPECT_DOUBLE_EQ(d, 1.5e-3);
    ASSERT_TRUE(jsonNumberField(row, "code", &d));
    EXPECT_EQ(d, 0);
    EXPECT_FALSE(jsonNumberField(row, "missing", &d));
    EXPECT_FALSE(jsonStringField(row, "code", &s));
}

TEST(Trace, SelfTimeSubtractsChildUnion)
{
    std::vector<SpanRecord> spans = {
        {"root", "serve", "", -1, 0.0, 10.0},
        {"a", "core", "r1", 0, 1.0, 4.0},
        {"b", "core", "r2", 0, 3.0, 6.0}, // overlaps a (parallel worker)
        {"c", "verify", "r1", 1, 2.0, 3.0},
    };
    const std::vector<double> self = selfTimes(spans);
    EXPECT_DOUBLE_EQ(self[0], 5.0); // 10 minus the union [1, 6]
    EXPECT_DOUBLE_EQ(self[1], 2.0);
    EXPECT_DOUBLE_EQ(self[2], 3.0);
    EXPECT_DOUBLE_EQ(self[3], 1.0);

    Tracer off(false);
    EXPECT_EQ(off.begin("x", "core"), -1);
    EXPECT_TRUE(off.spans().empty());
}

/** The "name" values of one array section of BENCHMARK.json. */
std::set<std::string>
declaredNames(const std::string &section)
{
    std::ifstream in(PERFBENCH_BENCHMARK_JSON);
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    std::size_t at = text.find("\"" + section + "\"");
    const std::size_t end = text.find(']', at);
    std::set<std::string> names;
    while ((at = text.find("\"name\":", at)) < end) {
        std::string name;
        jsonStringField(text.substr(at), "name", &name);
        names.insert(name);
        ++at;
    }
    return names;
}

std::set<std::string>
reportedNames(const Report &r)
{
    std::set<std::string> names;
    for (const Metric &m : r.metrics)
        names.insert(m.name);
    return names;
}

class Smoke : public ::testing::TestWithParam<std::string>
{
};

TEST_P(Smoke, TinyRunIsCorrectAndReportsTheDeclaredMetrics)
{
    for (const bool trace : {false, true}) {
        Options opt;
        opt.workload = GetParam();
        opt.seed = 3;
        opt.seconds = 0.2;
        opt.trace = trace;
        opt.tiny = true;
        Tracer tracer(trace);
        const RunOutput out = runWorkload(opt, tracer);
        std::string failures;
        for (const auto &[k, v] : out.info)
            if (k == "failure")
                failures += v + "\n";
        EXPECT_TRUE(out.report.correct) << failures;
        EXPECT_EQ(out.report.failed, 0);
        EXPECT_GE(out.report.attempted, 1);
        EXPECT_EQ(reportedNames(out.report),
                  declaredNames(trace ? "per_layer" : "end_to_end"));
        std::string err;
        EXPECT_NE(resultJson(out.report, &err), "") << err;
        EXPECT_EQ(tracer.spans().empty(), !trace);
    }
}

INSTANTIATE_TEST_SUITE_P(Workloads, Smoke,
                         ::testing::ValuesIn(workloadNames()));

TEST(Smoke, SameSeedSameFingerprint)
{
    for (const char *w : {"exact_rewrite", "approx_resynth"}) {
        std::string fp[2];
        for (std::string &f : fp) {
            Options opt;
            opt.workload = w;
            opt.seconds = 0.2;
            opt.tiny = true;
            Tracer tracer(false);
            for (const auto &[k, v] : runWorkload(opt, tracer).info)
                if (k == "fingerprint")
                    f = v;
        }
        EXPECT_FALSE(fp[0].empty()) << w;
        EXPECT_EQ(fp[0], fp[1]) << w;
    }
}

} // namespace
