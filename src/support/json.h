/**
 * @file
 * The two JSON token helpers every emitter shares (the bench artifact
 * writer and the batch/serve row schemas): string escaping and number
 * formatting.
 */

#pragma once

#include <string>

namespace guoq {
namespace support {

/** JSON string escaping (quotes, backslashes, control characters). */
std::string jsonEscape(const std::string &s);

/** A JSON number token (`%.10g`); non-finite becomes null, since JSON
 *  has no NaN or Inf literal. */
std::string jsonNumber(double v);

} // namespace support
} // namespace guoq
