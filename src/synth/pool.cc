/** @file Bounded-queue synthesis worker pool. */

#include "synth/pool.h"

#include <algorithm>
#include <utility>

namespace guoq {
namespace synth {

Pool::Pool(int workers, std::size_t queue_capacity)
    : capacity_(std::max<std::size_t>(queue_capacity, 1))
{
    const int n = std::max(workers, 1);
    threads_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

int
Pool::defaultWorkers()
{
    return std::max(static_cast<int>(std::thread::hardware_concurrency()),
                    1);
}

Pool::~Pool()
{
    {
        support::MutexLock lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

bool
Pool::trySubmit(std::function<void()> task)
{
    {
        support::MutexLock lock(mutex_);
        if (stop_ || queue_.size() >= capacity_)
            return false;
        queue_.push_back(std::move(task));
        peak_ = std::max(peak_, queue_.size());
    }
    cv_.notify_one();
    return true;
}

std::size_t
Pool::queuePeak() const
{
    support::MutexLock lock(mutex_);
    return peak_;
}

void
Pool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            support::MutexLock lock(mutex_);
            while (!stop_ && queue_.empty())
                cv_.wait(mutex_);
            if (queue_.empty())
                return; // stop_ and drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

} // namespace synth
} // namespace guoq
