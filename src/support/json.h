/**
 * @file
 * The JSON writer every emitter shares (the bench artifact writer and
 * the batch/serve row schemas): string escaping, number formatting,
 * and JsonObject, which lays out one object's fields.
 */

#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace guoq {
namespace support {

/** JSON string escaping (quotes, backslashes, control characters). */
std::string jsonEscape(const std::string &s);

/** A JSON number token (`%.10g`); non-finite becomes null, since JSON
 *  has no NaN or Inf literal. */
std::string jsonNumber(double v);

/** A JSON string token: @p s escaped and quoted. */
std::string jsonString(const std::string &s);

/**
 * One JSON object's fields, appended to a string in either layout:
 * pretty (one field per line, two spaces of indent per depth) or
 * inline (one line, ", " between fields). Values are pre-rendered
 * tokens (jsonNumber, std::to_string, ...) except for str(), which
 * escapes. Each emitter names its own keys, in its own schema order.
 */
class JsonObject
{
  public:
    enum class Layout
    {
        Pretty,
        Inline,
    };

    /** Open a top-level object, appending to @p out. */
    JsonObject(std::string &out, Layout layout);

    /** A string field. */
    void str(const char *k, const std::string &v);

    /** A field whose value is the JSON token @p token. */
    void num(const char *k, const std::string &token);

    /** An inline array of JSON tokens: `"k": [t0, t1, ...]`. */
    void list(const char *k, const std::vector<std::string> &tokens);

    /** A nested object under @p k; close() it before the next field. */
    JsonObject object(const char *k);

    /**
     * An array of objects under @p k, one per element of @p items;
     * @p write(JsonObject &, const T &) fills each one's fields.
     */
    template <typename T, typename Write>
    void
    objects(const char *k, const std::vector<T> &items, Write write)
    {
        key(k);
        out_ += '[';
        for (std::size_t i = 0; i < items.size(); ++i) {
            JsonObject element = openElement(i);
            write(element, items[i]);
            element.close();
        }
        closeArray(items.empty());
    }

    /** Close the object. */
    void close();

  private:
    /** A nested object at @p depth (indents only in pretty layout). */
    JsonObject(std::string &out, Layout layout, int depth);
    /** Write the separator and `"key": `; the value follows. */
    void key(const char *k);
    JsonObject openElement(std::size_t index);
    void closeArray(bool empty);
    void indent(int depth);

    std::string &out_;
    Layout layout_;
    int depth_;
    bool first_ = true;
};

} // namespace support
} // namespace guoq
