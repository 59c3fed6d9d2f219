/**
 * @file
 * The two stream adapters the serve workload wraps around
 * serve::runServe: an input buffer that paces request frames on an
 * open-loop schedule, and an output buffer that timestamps each
 * response row as it arrives.
 */

#pragma once

#include <chrono>
#include <cstddef>
#include <streambuf>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds from @p a to @p b. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/**
 * An input buffer over pre-rendered frames: frame i becomes readable no
 * earlier than origin + due[i], whatever the reader's pace (open loop:
 * a reader that falls behind reads late frames back to back, and the
 * lateness is recorded as generator lag).
 */
class PacedInput : public std::streambuf
{
  public:
    /** @p frames must be non-empty strings; @p dueSeconds must be
     *  nondecreasing and match @p frames. */
    PacedInput(std::vector<std::string> frames,
               std::vector<double> dueSeconds);

    /** Fix the schedule's origin; call before the first read. */
    void start(Clock::time_point origin) { origin_ = origin; }

    /** Due time of frame @p i as a clock reading. */
    Clock::time_point due(std::size_t i) const;

    /** Per released frame: seconds between its due time and release. */
    const std::vector<double> &lagSeconds() const { return lag_; }

  protected:
    int_type underflow() override;

  private:
    std::vector<std::string> frames_;
    std::vector<double> dueSeconds_;
    std::vector<double> lag_;
    std::size_t next_ = 0;
    Clock::time_point origin_ = Clock::now();
};

/**
 * An output buffer that splits what is written into lines and stamps
 * each complete line with the time its newline arrived; a line written
 * in several pieces is stamped once, when it completes.
 */
class RowStamps : public std::streambuf
{
  public:
    struct Row
    {
        std::string line; //!< without the newline
        Clock::time_point at;
    };

    const std::vector<Row> &rows() const { return rows_; }

  protected:
    int_type overflow(int_type ch) override;
    std::streamsize xsputn(const char *s, std::streamsize n) override;

  private:
    void put(char c);

    std::string partial_;
    std::vector<Row> rows_;
};

/** The string value of "key" in the flat JSON object @p json (escapes
 *  decoded); false when absent or not a string. */
bool jsonStringField(const std::string &json, const std::string &key,
                     std::string *out);

/** The numeric value of "key" in @p json; false when absent or not a
 *  number. */
bool jsonNumberField(const std::string &json, const std::string &key,
                     double *out);

} // namespace perfbench
