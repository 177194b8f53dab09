#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "adm/admission.h"
#include "sim/event_queue.h"

namespace jasim::adm {
namespace {

// ---- grammar ---------------------------------------------------------

TEST(AdmissionConfigTest, EmptyAndNoneStayDisabled)
{
    EXPECT_EQ(AdmissionConfig::parse("").policy, ShedPolicy::None);
    EXPECT_FALSE(AdmissionConfig::parse("").enabled());
    EXPECT_EQ(AdmissionConfig::parse("none").policy, ShedPolicy::None);
    EXPECT_FALSE(AdmissionConfig::parse("none").webEnabled());
}

TEST(AdmissionConfigTest, NoneWithLbCapArmsBalancerOnly)
{
    const AdmissionConfig config =
        AdmissionConfig::parse("none:lb_cap=32");
    EXPECT_FALSE(config.webEnabled());
    EXPECT_TRUE(config.enabled());
    EXPECT_EQ(config.lb_inflight_cap, 32u);
}

TEST(AdmissionConfigTest, StaticParsesKeys)
{
    const AdmissionConfig config =
        AdmissionConfig::parse("static:cap=12,queue=9,deadline=0.25");
    EXPECT_EQ(config.policy, ShedPolicy::Static);
    EXPECT_EQ(config.max_concurrent, 12u);
    EXPECT_EQ(config.queue_capacity, 9u);
    EXPECT_DOUBLE_EQ(config.queue_deadline_s, 0.25);
}

TEST(AdmissionConfigTest, AdaptiveParsesControllerKeys)
{
    const AdmissionConfig config = AdmissionConfig::parse(
        "adaptive:cap=64,min=2,target=0.05,interval=0.2,lb_cap=99");
    EXPECT_EQ(config.policy, ShedPolicy::Adaptive);
    EXPECT_EQ(config.max_concurrent, 64u);
    EXPECT_EQ(config.min_concurrent, 2u);
    EXPECT_DOUBLE_EQ(config.target_delay_s, 0.05);
    EXPECT_DOUBLE_EQ(config.adjust_interval_s, 0.2);
    EXPECT_EQ(config.lb_inflight_cap, 99u);
}

TEST(AdmissionConfigTest, MalformedSpecsThrow)
{
    EXPECT_THROW(AdmissionConfig::parse("bogus"),
                 std::invalid_argument);
    EXPECT_THROW(AdmissionConfig::parse("static:cap=x"),
                 std::invalid_argument);
    EXPECT_THROW(AdmissionConfig::parse("static:target=0.1"),
                 std::invalid_argument); // adaptive-only key
    EXPECT_THROW(AdmissionConfig::parse("adaptive:interval=0"),
                 std::invalid_argument);
    EXPECT_THROW(AdmissionConfig::parse("adaptive:min=0"),
                 std::invalid_argument);
    EXPECT_THROW(AdmissionConfig::parse("none:cap=4"),
                 std::invalid_argument); // web key without a policy
}

TEST(AdmissionConfigTest, CountsReadLikeEveryOtherInteger)
{
    // One integer rule for every input: base 0, whole text, no sign
    // below the range.
    EXPECT_EQ(AdmissionConfig::parse("static:cap=0x10").max_concurrent,
              16u);
    EXPECT_THROW(AdmissionConfig::parse("static:cap=1.5"),
                 std::invalid_argument);
    EXPECT_THROW(AdmissionConfig::parse("static:queue=-1"),
                 std::invalid_argument);
    EXPECT_THROW(AdmissionConfig::parse("adaptive:target=nan"),
                 std::invalid_argument);
}

// ---- controller fixture ---------------------------------------------

/** Records every callback so tests can assert exactly-once firing. */
struct Probe
{
    std::vector<SimTime> admits;
    std::vector<ShedReason> sheds;

    AdmissionController::Admit admit()
    {
        return [this](SimTime at) { admits.push_back(at); };
    }
    AdmissionController::Shed shed()
    {
        return [this](SimTime, ShedReason reason) {
            sheds.push_back(reason);
        };
    }
};

AdmissionConfig
staticConfig(std::size_t cap, std::size_t queue, double deadline_s)
{
    AdmissionConfig config;
    config.policy = ShedPolicy::Static;
    config.max_concurrent = cap;
    config.queue_capacity = queue;
    config.queue_deadline_s = deadline_s;
    return config;
}

TEST(AdmissionControllerTest, AdmitsUpToCapThenQueuesThenSheds)
{
    EventQueue queue;
    AdmissionController adm(staticConfig(2, 1, 0.0), queue);
    Probe probe;
    for (int i = 0; i < 4; ++i)
        adm.offer(probe.admit(), probe.shed());

    // 2 in service, 1 queued, 1 shed QueueFull.
    EXPECT_EQ(probe.admits.size(), 2u);
    EXPECT_EQ(adm.inService(), 2u);
    EXPECT_EQ(adm.queueDepth(), 1u);
    ASSERT_EQ(probe.sheds.size(), 1u);
    EXPECT_EQ(probe.sheds[0], ShedReason::QueueFull);
    EXPECT_EQ(adm.stats().offered, 4u);
    EXPECT_EQ(adm.stats().admitted, 2u);
    EXPECT_EQ(adm.stats().shed_queue_full, 1u);
    EXPECT_EQ(adm.stats().peak_in_service, 2u);
    EXPECT_EQ(adm.stats().peak_queue, 1u);
}

TEST(AdmissionControllerTest, ReleaseAdmitsWaitersInFifoOrder)
{
    EventQueue queue;
    AdmissionController adm(staticConfig(1, 4, 0.0), queue);
    Probe probe;
    std::vector<int> order;
    adm.offer(probe.admit(), probe.shed());
    for (int i = 0; i < 3; ++i)
        adm.offer([&order, i](SimTime) { order.push_back(i); },
                  probe.shed());
    EXPECT_EQ(adm.queueDepth(), 3u);

    adm.release();
    adm.release();
    adm.release();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(adm.queueDepth(), 0u);
    EXPECT_EQ(adm.inService(), 1u); // third waiter still running
    EXPECT_TRUE(probe.sheds.empty());
    EXPECT_EQ(adm.stats().queued, 3u);
}

TEST(AdmissionControllerTest, DeadlineShedsExactlyOnce)
{
    EventQueue queue;
    AdmissionController adm(staticConfig(1, 4, 0.1), queue);
    Probe probe;
    adm.offer(probe.admit(), probe.shed()); // occupies the slot
    adm.offer(probe.admit(), probe.shed()); // waits past the deadline
    queue.runUntil(secs(1));

    EXPECT_EQ(probe.admits.size(), 1u);
    ASSERT_EQ(probe.sheds.size(), 1u);
    EXPECT_EQ(probe.sheds[0], ShedReason::QueueDeadline);
    EXPECT_EQ(adm.queueDepth(), 0u);
    EXPECT_EQ(adm.stats().shed_deadline, 1u);

    // Releasing later must not resurrect the shed waiter.
    adm.release();
    queue.runUntil(secs(2));
    EXPECT_EQ(probe.admits.size(), 1u);
    EXPECT_EQ(probe.sheds.size(), 1u);
}

TEST(AdmissionControllerTest, DeadlineEventIsNoOpOnceAdmitted)
{
    EventQueue queue;
    AdmissionController adm(staticConfig(1, 4, 0.5), queue);
    Probe probe;
    adm.offer(probe.admit(), probe.shed());
    adm.offer(probe.admit(), probe.shed());
    // Free the slot well before the waiter's deadline...
    queue.scheduleAt(secs(1) / 10, [&] { adm.release(); });
    // ...then run past the (now stale) deadline event.
    queue.runUntil(secs(2));
    EXPECT_EQ(probe.admits.size(), 2u);
    EXPECT_TRUE(probe.sheds.empty());
    EXPECT_GT(adm.stats().queue_wait_us, 0u);
}

AdmissionConfig
adaptiveConfig()
{
    AdmissionConfig config;
    config.policy = ShedPolicy::Adaptive;
    config.max_concurrent = 8;
    config.min_concurrent = 2;
    config.queue_capacity = 64;
    config.queue_deadline_s = 0.0;
    config.target_delay_s = 0.05;
    config.adjust_interval_s = 0.1;
    return config;
}

TEST(AdmissionControllerTest, AdaptiveCutsCapUnderStandingQueue)
{
    EventQueue queue;
    AdmissionController adm(adaptiveConfig(), queue);
    Probe probe;
    // Saturate the cap and build a standing queue no one drains.
    for (int i = 0; i < 20; ++i)
        adm.offer(probe.admit(), probe.shed());
    EXPECT_EQ(adm.cap(), 8u);
    queue.runUntil(secs(2));
    EXPECT_EQ(adm.cap(), adm.config().min_concurrent);
    EXPECT_GT(adm.stats().cap_cuts, 0u);
}

TEST(AdmissionControllerTest, AdaptiveRecoversCapWhenIdle)
{
    EventQueue queue;
    AdmissionController adm(adaptiveConfig(), queue);
    Probe probe;
    for (int i = 0; i < 20; ++i)
        adm.offer(probe.admit(), probe.shed());
    queue.runUntil(secs(2));
    ASSERT_EQ(adm.cap(), adm.config().min_concurrent);

    // Drain everything (each release may admit the next waiter);
    // with an empty queue the observed delay is zero, so the
    // controller must walk the cap back up additively.
    while (adm.inService() > 0)
        adm.release();
    EXPECT_EQ(adm.queueDepth(), 0u);
    queue.runUntil(secs(6));
    EXPECT_EQ(adm.cap(), 8u);
    EXPECT_GT(adm.stats().cap_raises, 0u);
}

} // namespace
} // namespace jasim::adm
