#include "support/logging.h"

#include <cstdio>
#include <cstdlib>

namespace guoq {
namespace support {

Mutex &
logMutex()
{
    static Mutex mutex;
    return mutex;
}

void
warn(const std::string &msg)
{
    MutexLock lock(logMutex());
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
panic(const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

void
fatal(const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::exit(1);
}

} // namespace support
} // namespace guoq
