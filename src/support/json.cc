#include "support/json.h"

#include <cmath>
#include <cstdio>

namespace guoq {
namespace support {

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
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    out += jsonEscape(s);
    out += '"';
    return out;
}

JsonObject::JsonObject(std::string &out, Layout layout)
    : JsonObject(out, layout, 0)
{
}

JsonObject::JsonObject(std::string &out, Layout layout, int depth)
    : out_(out), layout_(layout), depth_(depth)
{
    out_ += '{';
}

void
JsonObject::indent(int depth)
{
    out_.append(static_cast<std::size_t>(2 * depth), ' ');
}

void
JsonObject::key(const char *k)
{
    if (layout_ == Layout::Pretty) {
        out_ += first_ ? "\n" : ",\n";
        indent(depth_ + 1);
    } else if (!first_) {
        out_ += ", ";
    }
    first_ = false;
    out_ += '"';
    out_ += k;
    out_ += "\": ";
}

void
JsonObject::str(const char *k, const std::string &v)
{
    key(k);
    out_ += jsonString(v);
}

void
JsonObject::num(const char *k, const std::string &token)
{
    key(k);
    out_ += token;
}

void
JsonObject::list(const char *k, const std::vector<std::string> &tokens)
{
    key(k);
    out_ += '[';
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        if (i)
            out_ += ", ";
        out_ += tokens[i];
    }
    out_ += ']';
}

JsonObject
JsonObject::object(const char *k)
{
    key(k);
    return JsonObject(out_, layout_, depth_ + 1);
}

JsonObject
JsonObject::openElement(std::size_t index)
{
    // Pretty elements sit one level inside the array's own indent.
    if (layout_ == Layout::Pretty) {
        out_ += index ? ",\n" : "\n";
        indent(depth_ + 2);
    } else if (index) {
        out_ += ", ";
    }
    return JsonObject(out_, layout_, depth_ + 2);
}

void
JsonObject::closeArray(bool empty)
{
    if (layout_ == Layout::Pretty && !empty) {
        out_ += '\n';
        indent(depth_ + 1);
    }
    out_ += ']';
}

void
JsonObject::close()
{
    if (layout_ == Layout::Pretty && !first_) {
        out_ += '\n';
        indent(depth_);
    }
    out_ += '}';
}

} // namespace support
} // namespace guoq
