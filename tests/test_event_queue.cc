/**
 * @file
 * Unit tests for the event queue and the simulator driver.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/system.hh"

namespace mdw {
namespace {

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue q;
    std::vector<int> fired;
    q.schedule(30, [&] { fired.push_back(3); });
    q.schedule(10, [&] { fired.push_back(1); });
    q.schedule(20, [&] { fired.push_back(2); });
    q.runDue(25);
    EXPECT_EQ(fired, (std::vector<int>{1, 2}));
    q.runDue(30);
    EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameCycleFifoTieBreak)
{
    EventQueue q;
    std::vector<int> fired;
    for (int i = 0; i < 5; ++i)
        q.schedule(7, [&fired, i] { fired.push_back(i); });
    q.runDue(7);
    EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, ActionMayScheduleMore)
{
    EventQueue q;
    int count = 0;
    q.schedule(1, [&] {
        ++count;
        q.schedule(1, [&] { ++count; }); // due immediately
        q.schedule(5, [&] { ++count; }); // later
    });
    q.runDue(2);
    EXPECT_EQ(count, 2);
    EXPECT_EQ(q.nextEventCycle(), 5u);
    q.runDue(5);
    EXPECT_EQ(count, 3);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextEventCycleEmpty)
{
    EventQueue q;
    EXPECT_EQ(q.nextEventCycle(), kNoCycle);
}

TEST(EventQueue, EqualCycleFifoStress)
{
    // Many events crammed into few cycles: the global firing order
    // must be the schedule order stable-sorted by cycle, i.e. FIFO
    // within every cycle, no matter how the heap rebalances.
    EventQueue q;
    Rng rng(12345);
    std::vector<std::pair<Cycle, int>> scheduled;
    std::vector<int> fired;
    constexpr int kEvents = 2000;
    for (int i = 0; i < kEvents; ++i) {
        const Cycle when = rng.below(40);
        scheduled.emplace_back(when, i);
        q.schedule(when, [&fired, i] { fired.push_back(i); });
    }
    q.runDue(40);

    std::stable_sort(scheduled.begin(), scheduled.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    ASSERT_EQ(fired.size(), scheduled.size());
    for (std::size_t i = 0; i < fired.size(); ++i)
        EXPECT_EQ(fired[i], scheduled[i].second) << "position " << i;
}

TEST(EventQueue, FifoSurvivesInterleavedDraining)
{
    // Draining part of the queue must not disturb the FIFO order of
    // ties between events scheduled before and after the drain.
    EventQueue q;
    std::vector<int> fired;
    q.schedule(10, [&] { fired.push_back(0); });
    q.schedule(20, [&] { fired.push_back(1); });
    q.schedule(5, [&] { fired.push_back(2); });
    q.runDue(10); // fires 2, then 0
    q.schedule(20, [&] { fired.push_back(3); });
    q.schedule(15, [&] { fired.push_back(4); });
    q.runDue(25);
    EXPECT_EQ(fired, (std::vector<int>{2, 0, 4, 1, 3}));
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ReschedulingActionsKeepFifoWithinCycle)
{
    // An action that schedules another event for the *same* cycle:
    // the new event must fire after everything already queued for
    // that cycle (it has a later sequence number).
    EventQueue q;
    std::vector<int> fired;
    q.schedule(7, [&] {
        fired.push_back(0);
        q.schedule(7, [&] { fired.push_back(10); });
    });
    q.schedule(7, [&] { fired.push_back(1); });
    q.schedule(7, [&] { fired.push_back(2); });
    q.runDue(7);
    EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 10}));
}

namespace {

class TickCounter : public Component
{
  public:
    TickCounter() : Component("ticker") {}

    void
    step(Cycle now) override
    {
        ++ticks;
        last = now;
        if (report_progress && sim_)
            sim_->noteProgress();
    }

    int ticks = 0;
    Cycle last = 0;
    bool report_progress = true;
};

} // namespace

namespace {

/** Counts step() and nextWork() calls; never reports any work. */
struct Probe : Component
{
    Probe() : Component("probe") {}

    void step(Cycle) override { ++steps; }

    Cycle
    nextWork(Cycle) override
    {
        ++probes;
        return kNoCycle;
    }

    std::uint64_t steps = 0;
    std::uint64_t probes = 0;
};

} // namespace

TEST(Simulator, AlwaysTickStepsEveryCycleAndNeverProbes)
{
    for (const std::size_t shards : {0u, 2u}) {
        for (const bool fast : {false, true}) {
            SCOPED_TRACE("shards=" + std::to_string(shards) +
                         " fast=" + std::to_string(fast));
            Simulator sim;
            Probe a, b, c;
            sim.add(&a);
            sim.add(&b);
            sim.add(&c);
            // a and b in the parallel shards (if any), c serial; the
            // partition must survive the mode switch that follows.
            sim.setSharding(shards == 0
                                ? std::vector<std::uint32_t>{0, 0, 0}
                                : std::vector<std::uint32_t>{0, 1, 2},
                            shards, 2);
            sim.setFastPath(fast);
            EXPECT_EQ(sim.shards(), shards);
            sim.run(100);
            for (const Probe *p : {&a, &b, &c}) {
                // Always-tick: every cycle, no nextWork() probe. With
                // idle-skipping the one probe after the first step
                // retires the component for good.
                EXPECT_EQ(p->steps, fast ? 1u : 100u);
                EXPECT_EQ(p->probes, fast ? 1u : 0u);
            }
            EXPECT_EQ(sim.now(), 100u);
        }
    }
}

TEST(Simulator, StepsComponentsOncePerCycle)
{
    Simulator sim;
    TickCounter a, b;
    sim.add(&a);
    sim.add(&b);
    sim.run(10);
    EXPECT_EQ(a.ticks, 10);
    EXPECT_EQ(b.ticks, 10);
    EXPECT_EQ(a.last, 9u);
    EXPECT_EQ(sim.now(), 10u);
}

TEST(Simulator, RunUntilStopsEarly)
{
    Simulator sim;
    TickCounter a;
    sim.add(&a);
    const bool done =
        sim.runUntil([&] { return a.ticks >= 5; }, 100);
    EXPECT_TRUE(done);
    EXPECT_EQ(a.ticks, 5);
}

TEST(Simulator, RunUntilHonorsLimit)
{
    Simulator sim;
    TickCounter a;
    sim.add(&a);
    const bool done = sim.runUntil([] { return false; }, 20);
    EXPECT_FALSE(done);
    EXPECT_EQ(sim.now(), 20u);
}

TEST(Simulator, EventsFireDuringRun)
{
    Simulator sim;
    int fired_at = -1;
    sim.events().schedule(5, [&] {
        fired_at = static_cast<int>(sim.now());
    });
    sim.run(10);
    EXPECT_EQ(fired_at, 5);
}

TEST(Simulator, WatchdogTripsOnStall)
{
    Simulator sim;
    TickCounter a;
    a.report_progress = false;
    sim.add(&a);
    bool tripped = false;
    sim.setWatchdog(10, [] { return true; }, [&] { tripped = true; });
    sim.run(50);
    EXPECT_TRUE(tripped);
    EXPECT_TRUE(sim.deadlockDetected());
    // run() stops once deadlocked.
    EXPECT_LE(sim.now(), 12u);
}

TEST(Simulator, WatchdogQuietWhileProgressing)
{
    Simulator sim;
    TickCounter a; // reports progress every cycle
    sim.add(&a);
    sim.setWatchdog(10, [] { return true; });
    sim.run(100);
    EXPECT_FALSE(sim.deadlockDetected());
}

TEST(Simulator, WatchdogIgnoresIdleSystem)
{
    Simulator sim;
    TickCounter a;
    a.report_progress = false;
    sim.add(&a);
    sim.setWatchdog(10, [] { return false; }); // no work pending
    sim.run(100);
    EXPECT_FALSE(sim.deadlockDetected());
}

} // namespace
} // namespace mdw
