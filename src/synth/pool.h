/**
 * @file
 * A fixed-size synthesis worker pool with a bounded task queue.
 * Submission is non-blocking: trySubmit() refuses when the queue is
 * full so the optimizer loop keeps rewriting instead of stalling
 * behind slow synthesizer searches. The queue's high-water mark is
 * tracked for the stats plumbing.
 */

#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "support/mutex.h"

namespace guoq {
namespace synth {

/** N worker threads draining a bounded FIFO of tasks. */
class Pool
{
  public:
    explicit Pool(int workers, std::size_t queue_capacity = 64);

    /** Drains the queue, then joins all workers. */
    ~Pool();

    Pool(const Pool &) = delete;
    Pool &operator=(const Pool &) = delete;

    int workers() const { return static_cast<int>(threads_.size()); }

    /**
     * One worker per hardware thread (at least one); kept in the
     * thread seam so callers never name std::thread.
     */
    static int defaultWorkers();

    /**
     * Enqueue @p task unless the queue is at capacity; returns false
     * (task dropped, not run) when full.
     */
    bool trySubmit(std::function<void()> task);

    /** Most tasks ever waiting in the queue at once. */
    std::size_t queuePeak() const;

  private:
    void workerLoop();

    // mutex_ guards the queue state below; threads_ and capacity_ are
    // written only in the constructor/destructor (no worker touches
    // them) and need no lock.
    mutable support::Mutex mutex_;
    support::CondVar cv_;
    std::deque<std::function<void()>> queue_ GUARDED_BY(mutex_);
    std::vector<std::thread> threads_;
    std::size_t capacity_;
    std::size_t peak_ GUARDED_BY(mutex_) = 0;
    bool stop_ GUARDED_BY(mutex_) = false;
};

} // namespace synth
} // namespace guoq
