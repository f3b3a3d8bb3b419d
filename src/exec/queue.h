/**
 * @file
 * A bounded MPMC work queue for owl serve's request intake.
 *
 * The serve front door wants a hard capacity, so a flood of requests
 * blocks (batch mode) or is rejected with backpressure (socket mode)
 * instead of accumulating unbounded memory. Plain mutex + two condvars
 * — intake runs at request granularity (milliseconds of synthesis per
 * item), so lock cost is irrelevant and simplicity wins.
 */

#ifndef OWL_EXEC_QUEUE_H
#define OWL_EXEC_QUEUE_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "base/logging.h"

namespace owl::exec
{

/**
 * Bounded blocking queue. push() blocks while full; pop() blocks
 * while empty; close() wakes everyone — pushes start failing
 * immediately, pops drain what is left and then return nullopt.
 */
template <class T> class BoundedQueue
{
  public:
    explicit BoundedQueue(size_t capacity) : cap(capacity)
    {
        owl_assert(capacity > 0, "queue capacity must be positive");
    }
    BoundedQueue(const BoundedQueue &) = delete;
    BoundedQueue &operator=(const BoundedQueue &) = delete;

    /**
     * Block until there is room, then enqueue. False when the queue
     * was (or gets) closed while waiting; the item is dropped.
     */
    bool push(T item)
    {
        std::unique_lock<std::mutex> lock(mu);
        notFull.wait(lock,
                     [&] { return isClosed || items.size() < cap; });
        if (isClosed)
            return false;
        items.push_back(std::move(item));
        lock.unlock();
        notEmpty.notify_one();
        return true;
    }

    /** Enqueue only if there is room right now; never blocks. */
    bool tryPush(T item)
    {
        {
            std::lock_guard<std::mutex> lock(mu);
            if (isClosed || items.size() >= cap)
                return false;
            items.push_back(std::move(item));
        }
        notEmpty.notify_one();
        return true;
    }

    /**
     * Block until an item is available (or the queue is closed and
     * drained — then nullopt). Items queued before close() are still
     * delivered.
     */
    std::optional<T> pop()
    {
        std::unique_lock<std::mutex> lock(mu);
        notEmpty.wait(lock, [&] { return isClosed || !items.empty(); });
        if (items.empty())
            return std::nullopt;
        T item = std::move(items.front());
        items.pop_front();
        lock.unlock();
        notFull.notify_one();
        return item;
    }

    /** Dequeue only if an item is available right now; never blocks. */
    std::optional<T> tryPop()
    {
        std::optional<T> out;
        {
            std::lock_guard<std::mutex> lock(mu);
            if (items.empty())
                return out;
            out.emplace(std::move(items.front()));
            items.pop_front();
        }
        notFull.notify_one();
        return out;
    }

    /** Idempotent. Wakes all blocked pushers (fail) and poppers. */
    void close()
    {
        {
            std::lock_guard<std::mutex> lock(mu);
            isClosed = true;
        }
        notFull.notify_all();
        notEmpty.notify_all();
    }

    bool closed() const
    {
        std::lock_guard<std::mutex> lock(mu);
        return isClosed;
    }

    size_t size() const
    {
        std::lock_guard<std::mutex> lock(mu);
        return items.size();
    }

    size_t capacity() const { return cap; }

  private:
    mutable std::mutex mu;
    std::condition_variable notFull;
    std::condition_variable notEmpty;
    std::deque<T> items;
    const size_t cap;
    bool isClosed = false;
};

} // namespace owl::exec

#endif // OWL_EXEC_QUEUE_H
