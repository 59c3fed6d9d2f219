// Violates thread-seam: spawns and detaches a thread, and launches an
// unpooled async task, outside the approved concurrency seams.
#include <future>
#include <thread>

void
fireAndForget()
{
    std::thread worker([] {});
    worker.detach();
    auto done = std::async(std::launch::async, [] {});
}
