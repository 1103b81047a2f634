/** @file Unit tests for the discrete-event kernel. */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_queue.hh"

namespace {

TEST(EventQueue, StartsAtZeroAndEmpty)
{
    sim::EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.nextEventTick(), sim::maxTick);
}

TEST(EventQueue, RunsEventsInTimeOrder)
{
    sim::EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    sim::EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    sim::EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.schedule(2, [&] {
            ++fired;
            eq.scheduleIn(3, [&] { ++fired; });
        });
    });
    eq.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eq.now(), 5u);
}

TEST(EventQueue, RunWithLimitStopsAndResumes)
{
    sim::EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(100, [&] { ++fired; });
    EXPECT_FALSE(eq.run(50));
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 50u);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    sim::EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    EXPECT_THROW(eq.schedule(5, [] {}), std::logic_error);
}

TEST(EventQueue, ScheduleInIsRelative)
{
    sim::EventQueue eq;
    sim::Tick seen = 0;
    eq.schedule(7, [&] {
        eq.scheduleIn(5, [&] { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 12u);
}

TEST(EventQueue, AdvanceToMovesTimeWithoutEvents)
{
    sim::EventQueue eq;
    eq.advanceTo(42);
    EXPECT_EQ(eq.now(), 42u);
    EXPECT_THROW(eq.advanceTo(41), std::logic_error);
}

TEST(EventQueue, CountsEventsRun)
{
    sim::EventQueue eq;
    for (int i = 0; i < 5; ++i)
        eq.schedule(i, [] {});
    eq.run();
    EXPECT_EQ(eq.eventsRun(), 5u);
}

// The queue is a calendar wheel covering a bounded window of upcoming
// ticks; events beyond it sit in a sorted overflow heap and migrate
// into the wheel as time advances. These tests pin the boundary
// behavior the fast path depends on. The window is 4096 ticks wide;
// the tests only rely on "well beyond the window" staying beyond it.

TEST(EventQueue, FarFutureEventsRunInTimeOrder)
{
    sim::EventQueue eq;
    std::vector<int> order;
    eq.schedule(100000, [&] { order.push_back(3); }); // overflow
    eq.schedule(50000, [&] { order.push_back(1); });  // overflow
    eq.schedule(3, [&] { order.push_back(0); });      // in-window
    eq.schedule(50001, [&] { order.push_back(2); });  // overflow
    EXPECT_EQ(eq.nextEventTick(), 3u);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(eq.now(), 100000u);
}

TEST(EventQueue, SameTickFifoSurvivesOverflowMigration)
{
    sim::EventQueue eq;
    std::vector<int> order;
    const sim::Tick when = 9000; // beyond the window at schedule time
    for (int i = 0; i < 6; ++i)
        eq.schedule(when, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 6; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, FifoAcrossFarNearBoundary)
{
    sim::EventQueue eq;
    std::vector<int> order;
    const sim::Tick when = 6000;
    eq.schedule(when, [&] { order.push_back(0); }); // overflow now
    eq.schedule(when - 1, [&] {
        // By this tick `when` is inside the window, so this lands
        // directly in the wheel — after the migrated overflow event.
        eq.schedule(when, [&] { order.push_back(1); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventQueue, WheelWrapsAcrossManyWindows)
{
    sim::EventQueue eq;
    // A chain of hops ~1.5 windows apart: every hop forces a rebase
    // and wraps the wheel's circular index.
    const sim::Tick step = 6000;
    int fired = 0;
    std::function<void()> hop = [&] {
        if (++fired < 20)
            eq.scheduleIn(step, hop);
    };
    eq.schedule(1, hop);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 20);
    EXPECT_EQ(eq.now(), 1u + 19u * step);
    EXPECT_EQ(eq.eventsRun(), 20u);
}

TEST(EventQueue, RunOneExecutesExactlyOne)
{
    sim::EventQueue eq;
    int fired = 0;
    eq.schedule(3, [&] { ++fired; });
    eq.schedule(4, [&] { ++fired; });
    eq.runOne();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 3u);
    EXPECT_EQ(eq.pending(), 1u);
}

/** Captures past the inline buffer take the pooled path: nodes freed
 *  by one round of events are recycled by the next, and a recycled
 *  node must never hand a live capture's bytes to another event. */
TEST(EventQueue, PooledCapturesSurviveRecycling)
{
    struct Fat
    {
        std::array<std::uint64_t, 16> words;
    };
    static_assert(sizeof(Fat) > sim::Event::inlineCapacity);

    sim::EventQueue eq;
    std::uint64_t fired = 0, bad = 0;
    for (std::uint64_t round = 0; round < 8; ++round) {
        for (std::uint64_t i = 0; i < 200; ++i) {
            Fat f;
            f.words.fill(round * 1000 + i);
            eq.scheduleIn(i % 7, [f, round, i, &fired, &bad] {
                for (std::uint64_t w : f.words)
                    bad += w != round * 1000 + i;
                ++fired;
            });
        }
        eq.run();
    }
    EXPECT_EQ(fired, 8u * 200u);
    EXPECT_EQ(bad, 0u);
}

} // namespace
