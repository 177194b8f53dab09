/**
 * @file
 * Bounded single-producer/single-consumer ring.
 *
 * One thread pushes, one thread pops, and items come out in the order
 * they went in. The ring holds a fixed number of slots, allocated
 * once, so a producer that runs ahead blocks instead of growing
 * memory. Each side keeps a private cursor and shares it in batches:
 * the producer publishes its pushes and the consumer releases its
 * pops every `capacity / 8` items, and before it waits. A producer
 * must call flush() after its last push, or the consumer may never
 * see the tail of the stream. The batches pay for themselves: with
 * each push and pop published at once, a full ring woke its producer
 * once per item, and jbench's box_paper run took 2.1x as long on a
 * 4-CPU host (2.6x with release stores in place of fetch_add).
 *
 * A side that finds the ring full (producer) or empty (consumer)
 * blocks in `std::atomic::wait`, which spins briefly before it
 * sleeps, so an oversubscribed host never spins a core away. abort(),
 * from either side or from a third thread, wakes both sides and makes
 * every later push and pop fail, so a side that stops on an error
 * never leaves the other blocked.
 */

#ifndef JASIM_PAR_SPSC_RING_H
#define JASIM_PAR_SPSC_RING_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>

namespace jasim::par {

template <typename T>
class SpscRing
{
  public:
    /**
     * @param capacity slot count; a power of two, at least 2, or
     * std::invalid_argument is thrown.
     */
    explicit SpscRing(std::size_t capacity)
        : capacity_(checkedCapacity(capacity)),
          batch_(capacity / 8 > 0 ? capacity / 8 : 1),
          slots_(std::make_unique<T[]>(capacity))
    {
    }

    SpscRing(const SpscRing &) = delete;
    SpscRing &operator=(const SpscRing &) = delete;

    /**
     * Empty the ring and clear an abort. Only between two streams,
     * once both sides have stopped and that is synchronized with the
     * caller (for example by joining their threads).
     */
    void reset()
    {
        tail_.store(0, std::memory_order_relaxed);
        head_.store(0, std::memory_order_relaxed);
        producer_ = {};
        consumer_ = {};
    }

    /**
     * Producer: append one item, blocking while the ring is full.
     * @return false, with nothing appended, once the ring is aborted.
     */
    bool push(const T &item)
    {
        Producer &p = producer_;
        if (p.written - p.head_seen == capacity_) {
            // Let the consumer drain what is written before waiting.
            if (!flush())
                return false;
            const std::uint64_t written = p.written;
            if (!waitUntil(head_, p.head_seen, [&](std::uint64_t head) {
                    return written - head < capacity_;
                })) {
                return false;
            }
        }
        slots_[p.written & (capacity_ - 1)] = item;
        ++p.written;
        return p.written - p.published < batch_ || flush();
    }

    /**
     * Producer: make every pushed item visible to the consumer.
     * @return false once the ring is aborted.
     */
    bool flush()
    {
        Producer &p = producer_;
        const std::uint64_t n = p.written - p.published;
        if (n == 0)
            return !aborted(tail_.load(std::memory_order_relaxed));
        p.published = p.written;
        const std::uint64_t before =
            tail_.fetch_add(n, std::memory_order_release);
        tail_.notify_one();
        return !aborted(before);
    }

    /**
     * Consumer: take the oldest item, blocking while the ring is
     * empty.
     * @return false, with `item` untouched, once the ring is aborted.
     */
    bool pop(T &item)
    {
        Consumer &c = consumer_;
        if (c.read == c.tail_seen) {
            // Hand back the space already read before waiting.
            if (!release())
                return false;
            const std::uint64_t read = c.read;
            if (!waitUntil(tail_, c.tail_seen, [&](std::uint64_t tail) {
                    return tail != read;
                })) {
                return false;
            }
        }
        item = slots_[c.read & (capacity_ - 1)];
        ++c.read;
        return c.read - c.released < batch_ || release();
    }

    /**
     * Either side, or any other thread: stop the stream. Both sides
     * wake, and every later push, flush and pop returns false.
     */
    void abort()
    {
        tail_.fetch_or(abortBit, std::memory_order_relaxed);
        head_.fetch_or(abortBit, std::memory_order_relaxed);
        tail_.notify_all();
        head_.notify_all();
    }

  private:
    static std::size_t checkedCapacity(std::size_t capacity)
    {
        if (capacity < 2 || (capacity & (capacity - 1)) != 0) {
            throw std::invalid_argument(
                "SpscRing: capacity must be a power of two, at least 2");
        }
        return capacity;
    }

    /** Set in both cursors by abort(); cursors never reach it. */
    static constexpr std::uint64_t abortBit = std::uint64_t{1} << 63;

    static bool aborted(std::uint64_t cursor)
    {
        return (cursor & abortBit) != 0;
    }

    /**
     * Block until `ready(cursor)` holds for the other side's cursor,
     * storing the value seen in `seen`; false if the ring is aborted.
     */
    template <typename Ready>
    static bool waitUntil(const std::atomic<std::uint64_t> &cursor,
                          std::uint64_t &seen, Ready ready)
    {
        for (;;) {
            const std::uint64_t now =
                cursor.load(std::memory_order_acquire);
            if (aborted(now))
                return false;
            if (ready(now)) {
                seen = now;
                return true;
            }
            cursor.wait(now, std::memory_order_acquire);
        }
    }

    /** Consumer: hand the slots read so far back to the producer. */
    bool release()
    {
        Consumer &c = consumer_;
        const std::uint64_t n = c.read - c.released;
        if (n == 0)
            return !aborted(head_.load(std::memory_order_relaxed));
        c.released = c.read;
        const std::uint64_t before =
            head_.fetch_add(n, std::memory_order_release);
        head_.notify_one();
        return !aborted(before);
    }

    /** Cursors private to the producer thread. */
    struct Producer
    {
        std::uint64_t written = 0;   //!< items pushed
        std::uint64_t published = 0; //!< items made visible
        std::uint64_t head_seen = 0; //!< last consumer cursor read
    };

    /** Cursors private to the consumer thread. */
    struct Consumer
    {
        std::uint64_t read = 0;      //!< items popped
        std::uint64_t released = 0;  //!< slots handed back
        std::uint64_t tail_seen = 0; //!< last producer cursor read
    };

    const std::size_t capacity_;
    const std::size_t batch_;
    std::unique_ptr<T[]> slots_;

    // Each cursor on its own cache line, so the two threads write
    // separate lines.
    alignas(64) std::atomic<std::uint64_t> tail_{0}; //!< published
    alignas(64) std::atomic<std::uint64_t> head_{0}; //!< released
    alignas(64) Producer producer_;
    alignas(64) Consumer consumer_;
};

} // namespace jasim::par

#endif // JASIM_PAR_SPSC_RING_H
