/**
 * @file
 * Minimal logging and error-reporting helpers (gem5-style fatal/panic).
 */

#pragma once

#include <sstream>
#include <string>

#include "support/mutex.h"

namespace guoq {
namespace support {

/**
 * The process-wide mutex serializing human-readable stderr status
 * output. warn() takes it internally (so it must not be called with
 * it held — the EXCLUDES annotation enforces that); drivers that
 * print their own per-item status lines from concurrent workers (the
 * batch/serve pipelines' progress output) must hold it for each whole
 * line so output can never interleave mid-line.
 */
Mutex &logMutex();

/** Warn about suspicious-but-survivable conditions. */
void warn(const std::string &msg) EXCLUDES(logMutex());

/**
 * Abort due to an internal invariant violation (a bug in this library).
 */
[[noreturn]] void panic(const std::string &msg);

/**
 * Exit due to a user error (bad arguments, malformed input file).
 */
[[noreturn]] void fatal(const std::string &msg);

/** Build a message from streamable parts. */
template <typename... Args>
std::string
strcat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace support
} // namespace guoq
