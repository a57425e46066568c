/**
 * @file
 * Unit tests for the delivery tracker and its latency metrics.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "host/mcast_tracker.hh"

namespace mdw {
namespace {

TEST(Tracker, UnicastLatency)
{
    McastTracker t;
    t.expectMessage(1, 0, 1, 100, false);
    EXPECT_EQ(t.inFlight(), 1u);
    EXPECT_FALSE(t.isComplete(1));
    t.onDelivered(1, 5, 150, 64);
    EXPECT_TRUE(t.isComplete(1));
    EXPECT_EQ(t.inFlight(), 0u);
    EXPECT_EQ(t.unicastLatency().count(), 1u);
    EXPECT_DOUBLE_EQ(t.unicastLatency().mean(), 50.0);
}

TEST(Tracker, MulticastLastAndAverage)
{
    McastTracker t;
    t.expectMessage(7, 0, 3, 1000, true);
    t.onDelivered(7, 1, 1100, 10);
    t.onDelivered(7, 2, 1150, 10);
    EXPECT_FALSE(t.isComplete(7));
    t.onDelivered(7, 3, 1400, 10);
    EXPECT_TRUE(t.isComplete(7));
    EXPECT_DOUBLE_EQ(t.mcastLastLatency().mean(), 400.0);
    EXPECT_DOUBLE_EQ(t.mcastAvgLatency().mean(),
                     (100.0 + 150.0 + 400.0) / 3.0);
    EXPECT_EQ(t.totalDeliveries(), 3u);
    EXPECT_EQ(t.totalCompleted(), 1u);
}

TEST(Tracker, WindowFiltersByCreationTime)
{
    McastTracker t;
    t.setWindow(100, 200);
    t.expectMessage(1, 0, 1, 50, false);  // before window
    t.expectMessage(2, 0, 1, 150, false); // inside
    t.expectMessage(3, 0, 1, 250, false); // after
    EXPECT_EQ(t.measuredInFlight(), 1u);
    t.onDelivered(1, 1, 60, 8);
    t.onDelivered(2, 1, 160, 8);
    t.onDelivered(3, 1, 260, 8);
    EXPECT_EQ(t.unicastLatency().count(), 1u);
    EXPECT_DOUBLE_EQ(t.unicastLatency().mean(), 10.0);
    EXPECT_EQ(t.measuredInFlight(), 0u);
}

TEST(Tracker, WindowThroughputCountsDeliveryTime)
{
    McastTracker t;
    t.setWindow(100, 200);
    t.expectMessage(1, 0, 2, 50, true);
    t.onDelivered(1, 1, 99, 32);  // before window: not counted
    t.onDelivered(1, 2, 100, 32); // inside: counted
    EXPECT_EQ(t.windowDeliveredFlits(), 32u);
}

TEST(Tracker, ResetStatsKeepsLiveMessages)
{
    McastTracker t;
    t.expectMessage(1, 0, 1, 0, false);
    t.onDelivered(1, 1, 10, 8);
    t.expectMessage(2, 0, 1, 0, false);
    t.resetStats();
    EXPECT_EQ(t.unicastLatency().count(), 0u);
    EXPECT_EQ(t.totalDeliveries(), 0u);
    EXPECT_EQ(t.inFlight(), 1u);
    t.onDelivered(2, 1, 20, 8); // still tracked
    EXPECT_EQ(t.inFlight(), 0u);
}

TEST(Tracker, RetirementWaitRunsBeforeCompletionHook)
{
    McastTracker t;
    std::vector<std::string> calls;
    t.setCompletionHook([&](MsgId msg, NodeId, Cycle now) {
        calls.push_back("hook " + std::to_string(msg) + "@" +
                        std::to_string(now));
    });
    t.expectMessage(4, 0, 2, 0, true);
    t.onRetired(4, 0, [&](Cycle now) {
        calls.push_back("wait@" + std::to_string(now));
    });
    t.onDelivered(4, 1, 30, 8);
    EXPECT_TRUE(calls.empty());
    t.onDelivered(4, 2, 40, 8);
    EXPECT_EQ(calls, (std::vector<std::string>{"wait@40", "hook 4@40"}));

    // A message that already retired runs the wait at once.
    calls.clear();
    t.onRetired(4, 55, [&](Cycle now) {
        calls.push_back("wait@" + std::to_string(now));
    });
    EXPECT_EQ(calls, (std::vector<std::string>{"wait@55"}));
}

TEST(TrackerResilient, DuplicateDeliveriesAreSwallowed)
{
    McastTracker t;
    t.enableResilience();
    t.expectMessage(1, 0, 2, 0, true);
    t.onDelivered(1, 4, 10, 8);
    t.onDelivered(1, 4, 12, 8); // redundant copy at the same dest
    EXPECT_FALSE(t.isComplete(1));
    EXPECT_EQ(t.duplicateDeliveries(), 1u);
    EXPECT_TRUE(t.isDelivered(1, 4));
    EXPECT_FALSE(t.isDelivered(1, 5));
    t.onDelivered(1, 5, 20, 8);
    EXPECT_TRUE(t.isComplete(1));
    // Post-completion stragglers (a retransmission raced the
    // original) are also swallowed, not a panic.
    t.onDelivered(1, 5, 25, 8);
    EXPECT_EQ(t.duplicateDeliveries(), 2u);
    EXPECT_EQ(t.totalDeliveries(), 2u);
    EXPECT_EQ(t.totalCompleted(), 1u);
}

TEST(TrackerResilient, PartialCompletionUnderUnreachableDests)
{
    McastTracker t;
    t.enableResilience();
    t.expectMessage(3, 0, 3, 100, true);
    Cycle retired = 0;
    t.onRetired(3, 100, [&](Cycle now) { retired = now; });
    t.onDelivered(3, 1, 200, 8);
    EXPECT_TRUE(t.markUnreachable(3, 2, 250));
    EXPECT_FALSE(t.markUnreachable(3, 2, 250)) << "already written off";
    EXPECT_FALSE(t.markUnreachable(3, 1, 250)) << "already delivered";
    EXPECT_FALSE(t.isComplete(3));
    EXPECT_EQ(retired, 0u);
    t.onDelivered(3, 4, 300, 8);
    EXPECT_TRUE(t.isComplete(3));
    EXPECT_EQ(retired, 300u) << "a partial retirement ends the wait";
    EXPECT_EQ(t.partialCompleted(), 1u);
    EXPECT_EQ(t.totalCompleted(), 0u);
    EXPECT_EQ(t.unreachableDests(), 1u);
    // Partial completions never feed the latency samplers.
    EXPECT_EQ(t.mcastLastLatency().count(), 0u);
    // markUnreachable after completion reports "no record".
    EXPECT_FALSE(t.markUnreachable(3, 5, 350));
}

TEST(TrackerResilient, FullyUnreachableMessageCompletesPartially)
{
    McastTracker t;
    t.enableResilience();
    t.expectMessage(9, 2, 2, 0, true);
    EXPECT_TRUE(t.markUnreachable(9, 5, 10));
    EXPECT_TRUE(t.markUnreachable(9, 6, 11));
    EXPECT_TRUE(t.isComplete(9));
    EXPECT_EQ(t.inFlight(), 0u);
    EXPECT_EQ(t.partialCompleted(), 1u);
    EXPECT_EQ(t.unreachableDests(), 2u);
}

TEST(TrackerResilient, ResetStatsClearsRecoveryCounters)
{
    McastTracker t;
    t.enableResilience();
    t.expectMessage(1, 0, 2, 0, true);
    t.onDelivered(1, 1, 5, 8);
    t.onDelivered(1, 1, 6, 8);
    t.markUnreachable(1, 2, 7);
    EXPECT_EQ(t.duplicateDeliveries(), 1u);
    t.resetStats();
    EXPECT_EQ(t.duplicateDeliveries(), 0u);
    EXPECT_EQ(t.partialCompleted(), 0u);
    EXPECT_EQ(t.unreachableDests(), 0u);
}

TEST(TrackerDeath, DoubleRegisterPanics)
{
    McastTracker t;
    t.expectMessage(1, 0, 1, 0, false);
    EXPECT_DEATH(t.expectMessage(1, 0, 1, 0, false), "twice");
}

TEST(TrackerDeath, UnknownDeliveryPanics)
{
    McastTracker t;
    EXPECT_DEATH(t.onDelivered(9, 1, 10, 8), "unknown message");
}

TEST(TrackerDeath, OverDeliveryPanics)
{
    McastTracker t;
    t.expectMessage(1, 0, 1, 0, false);
    t.onDelivered(1, 1, 10, 8);
    // Message completed and was erased; another delivery is unknown.
    EXPECT_DEATH(t.onDelivered(1, 2, 11, 8), "unknown message");
}

} // namespace
} // namespace mdw
