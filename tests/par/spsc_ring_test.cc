/**
 * Pins par::SpscRing's contract: items leave in the order they
 * entered, across many wrap-arounds, whichever side is slower; and an
 * abort from either side wakes the other, so no thread stays blocked.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "par/spsc_ring.h"

namespace jasim::par {
namespace {

using namespace std::chrono_literals;

/** Push [0, count) and flush; pause every `every` pushes if nonzero. */
void
produce(SpscRing<std::uint64_t> &ring, std::uint64_t count,
        std::uint64_t every)
{
    for (std::uint64_t i = 0; i < count; ++i) {
        ASSERT_TRUE(ring.push(i));
        if (every != 0 && i % every == 0)
            std::this_thread::sleep_for(50us);
    }
    ASSERT_TRUE(ring.flush());
}

/** Pop `count` items, pausing every `every` pops if nonzero. */
std::vector<std::uint64_t>
consume(SpscRing<std::uint64_t> &ring, std::uint64_t count,
        std::uint64_t every)
{
    std::vector<std::uint64_t> out;
    out.reserve(count);
    std::uint64_t item = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        EXPECT_TRUE(ring.pop(item));
        out.push_back(item);
        if (every != 0 && i % every == 0)
            std::this_thread::sleep_for(50us);
    }
    return out;
}

void
expectInOrder(const std::vector<std::uint64_t> &out)
{
    for (std::uint64_t i = 0; i < out.size(); ++i)
        ASSERT_EQ(out[i], i) << "at " << i;
}

TEST(SpscRingTest, OrderHoldsAcrossWrapWithSlowConsumer)
{
    // 16 slots, 5000 items: the producer fills the ring and blocks on
    // it again and again.
    SpscRing<std::uint64_t> ring(16);
    constexpr std::uint64_t count = 5000;
    std::thread producer([&] { produce(ring, count, 0); });
    const auto out = consume(ring, count, 7);
    producer.join();
    expectInOrder(out);
}

TEST(SpscRingTest, OrderHoldsAcrossWrapWithSlowProducer)
{
    // The consumer drains the ring and blocks on it again and again.
    SpscRing<std::uint64_t> ring(16);
    constexpr std::uint64_t count = 5000;
    std::thread producer([&] { produce(ring, count, 7); });
    const auto out = consume(ring, count, 0);
    producer.join();
    expectInOrder(out);
}

TEST(SpscRingTest, ResetStartsAFreshStream)
{
    SpscRing<std::uint64_t> ring(8);
    for (int round = 0; round < 3; ++round) {
        ring.reset();
        std::thread producer([&] { produce(ring, 100, 0); });
        const auto out = consume(ring, 100, 0);
        producer.join();
        expectInOrder(out);
    }
}

TEST(SpscRingTest, ConsumerAbortWakesBlockedProducer)
{
    SpscRing<std::uint64_t> ring(8);
    std::atomic<std::uint64_t> pushed{0};
    std::thread producer([&] {
        while (ring.push(pushed.load()))
            ++pushed;
    });
    // The producer fills the 8 slots, then blocks on the full ring.
    while (pushed.load() < 8)
        std::this_thread::sleep_for(1ms);
    std::this_thread::sleep_for(20ms);
    ring.abort();
    producer.join();
    EXPECT_EQ(pushed, 8u);

    std::uint64_t item = 0;
    EXPECT_FALSE(ring.pop(item));
    EXPECT_FALSE(ring.push(0));
    EXPECT_FALSE(ring.flush());
}

TEST(SpscRingTest, ProducerAbortWakesBlockedConsumer)
{
    SpscRing<std::uint64_t> ring(8);
    std::atomic<std::uint64_t> popped{0};
    std::thread consumer([&] {
        std::uint64_t item = 0;
        while (ring.pop(item))
            ++popped;
    });
    for (std::uint64_t i = 0; i < 3; ++i)
        EXPECT_TRUE(ring.push(i));
    EXPECT_TRUE(ring.flush());
    // The consumer takes the 3 items, then blocks on the empty ring.
    while (popped.load() < 3)
        std::this_thread::sleep_for(1ms);
    std::this_thread::sleep_for(20ms);
    ring.abort();
    consumer.join();
    EXPECT_EQ(popped, 3u);
}

TEST(SpscRingTest, ResetClearsAnAbort)
{
    SpscRing<std::uint64_t> ring(4);
    ring.abort();
    EXPECT_FALSE(ring.push(1));
    ring.reset();
    EXPECT_TRUE(ring.push(1));
    EXPECT_TRUE(ring.flush());
    std::uint64_t item = 0;
    EXPECT_TRUE(ring.pop(item));
    EXPECT_EQ(item, 1u);
}

TEST(SpscRingTest, RejectsCapacityThatIsNotAPowerOfTwo)
{
    EXPECT_THROW(SpscRing<int>(0), std::invalid_argument);
    EXPECT_THROW(SpscRing<int>(1), std::invalid_argument);
    EXPECT_THROW(SpscRing<int>(12), std::invalid_argument);
    EXPECT_NO_THROW(SpscRing<int>(2));
}

} // namespace
} // namespace jasim::par
