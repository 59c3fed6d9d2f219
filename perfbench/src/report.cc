#include "report.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <set>

namespace perfbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

/** ceil(pct·n/100) in integers, clamped to [1, n]. */
std::size_t
nearestRank(std::size_t n, int pct)
{
    const std::size_t p = static_cast<std::size_t>(std::clamp(pct, 1, 100));
    const std::size_t rank = (p * n + 99) / 100;
    return std::clamp<std::size_t>(rank, 1, n);
}

} // namespace

double
percentile(std::vector<double> v, int pct)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    return v[nearestRank(v.size(), pct) - 1];
}

std::size_t
samplesBeyond(std::size_t n, int pct)
{
    return n == 0 ? 0 : n - nearestRank(n, pct);
}

std::size_t
minSamplesFor(int pct, std::size_t beyond)
{
    std::size_t n = 1;
    while (samplesBeyond(n, pct) < beyond)
        ++n;
    return n;
}

bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64 ||
        !std::isalnum(static_cast<unsigned char>(name[0])))
        return false;
    for (const char ch : name) {
        const unsigned char c = static_cast<unsigned char>(ch);
        if (!std::isalnum(c) && c != '_' && c != '.' && c != '-')
            return false;
    }
    return true;
}

bool
validUnit(const std::string &unit)
{
    if (unit.empty() || unit.size() > 16)
        return false;
    for (const char ch : unit) {
        const unsigned char c = static_cast<unsigned char>(ch);
        if (!std::isalnum(c) && c != '_' && c != '/' && c != '%' &&
            c != '.' && c != '-')
            return false;
    }
    return true;
}

void
Report::add(const std::string &name, double value, const std::string &unit)
{
    metrics.push_back(Metric{name, value, unit});
}

void
Report::check(bool ok)
{
    ++attempted;
    if (!ok) {
        ++failed;
        correct = false;
    }
}

std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (const char ch : s) {
        const unsigned char c = static_cast<unsigned char>(ch);
        if (c == '"' || c == '\\') {
            out += '\\';
            out += ch;
        } else if (c < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += ch;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
numberList(const std::vector<double> &v)
{
    std::string out;
    for (double x : v) {
        if (!out.empty())
            out += ' ';
        out += jsonNumber(x);
    }
    return out;
}

std::string
resultJson(const Report &r, std::string *err)
{
    std::set<std::string> seen;
    std::string m;
    for (const Metric &x : r.metrics) {
        std::string why;
        if (!validMetricName(x.name))
            why = "invalid metric name '" + x.name + "'";
        else if (!validUnit(x.unit))
            why = "invalid unit '" + x.unit + "' of " + x.name;
        else if (!seen.insert(x.name).second)
            why = "metric " + x.name + " reported twice";
        else if (!std::isfinite(x.value))
            why = "metric " + x.name + " is not finite";
        if (!why.empty()) {
            if (err)
                *err = why;
            return "";
        }
        m += m.empty() ? "" : ", ";
        m += jsonQuote(x.name) + ": {\"value\": " + jsonNumber(x.value) +
             ", \"unit\": " + jsonQuote(x.unit) + "}";
    }
    return std::string("{\"correct\": ") + (r.correct ? "true" : "false") +
           ", \"attempted\": " + std::to_string(r.attempted) +
           ", \"failed\": " + std::to_string(r.failed) +
           ", \"metrics\": {" + m + "}}";
}

} // namespace perfbench
