#include "streams.h"

#include <cstdlib>
#include <thread>
#include <utility>

namespace perfbench {

PacedInput::PacedInput(std::vector<std::string> frames,
                       std::vector<double> dueSeconds)
    : frames_(std::move(frames)), dueSeconds_(std::move(dueSeconds))
{
    dueSeconds_.resize(frames_.size(), dueSeconds_.empty()
                                           ? 0.0
                                           : dueSeconds_.back());
}

Clock::time_point
PacedInput::due(std::size_t i) const
{
    return origin_ + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(dueSeconds_[i]));
}

PacedInput::int_type
PacedInput::underflow()
{
    if (next_ >= frames_.size())
        return traits_type::eof();
    const Clock::time_point due_at = due(next_);
    std::this_thread::sleep_until(due_at);
    lag_.push_back(secondsBetween(due_at, Clock::now()));
    std::string &f = frames_[next_++];
    setg(f.data(), f.data(), f.data() + f.size());
    return traits_type::to_int_type(*gptr());
}

void
RowStamps::put(char c)
{
    if (c != '\n') {
        partial_ += c;
        return;
    }
    rows_.push_back(Row{std::move(partial_), Clock::now()});
    partial_.clear();
}

RowStamps::int_type
RowStamps::overflow(int_type ch)
{
    if (!traits_type::eq_int_type(ch, traits_type::eof()))
        put(traits_type::to_char_type(ch));
    return traits_type::not_eof(ch);
}

std::streamsize
RowStamps::xsputn(const char *s, std::streamsize n)
{
    for (std::streamsize i = 0; i < n; ++i)
        put(s[i]);
    return n;
}

namespace {

/** Index just past `"key": ` in @p json, or npos. */
std::size_t
valueStart(const std::string &json, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = json.find(needle);
    if (at == std::string::npos)
        return at;
    std::size_t i = at + needle.size();
    while (i < json.size() && json[i] == ' ')
        ++i;
    return i;
}

} // namespace

bool
jsonStringField(const std::string &json, const std::string &key,
                std::string *out)
{
    std::size_t i = valueStart(json, key);
    if (i == std::string::npos || i >= json.size() || json[i] != '"')
        return false;
    std::string v;
    for (++i; i < json.size(); ++i) {
        const char c = json[i];
        if (c == '"') {
            *out = std::move(v);
            return true;
        }
        if (c != '\\') {
            v += c;
            continue;
        }
        if (++i >= json.size())
            return false;
        switch (json[i]) {
          case 'n': v += '\n'; break;
          case 't': v += '\t'; break;
          case 'r': v += '\r'; break;
          case 'b': v += '\b'; break;
          case 'f': v += '\f'; break;
          case 'u': {
            if (i + 4 >= json.size())
                return false;
            const long code =
                std::strtol(json.substr(i + 1, 4).c_str(), nullptr, 16);
            v += static_cast<char>(code);
            i += 4;
            break;
          }
          default: v += json[i]; break;
        }
    }
    return false;
}

bool
jsonNumberField(const std::string &json, const std::string &key,
                double *out)
{
    const std::size_t i = valueStart(json, key);
    if (i == std::string::npos || i >= json.size())
        return false;
    const char *begin = json.c_str() + i;
    char *end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end == begin)
        return false;
    *out = v;
    return true;
}

} // namespace perfbench
