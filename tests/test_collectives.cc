/**
 * @file
 * Tests for the collective-operations engine (broadcast, barrier,
 * reduce, allreduce) over both multicast schemes.
 */

#include <gtest/gtest.h>

#include "core/collectives.hh"
#include "core/presets.hh"
#include "core/resilience.hh"
#include "topology/fat_tree.hh"

namespace mdw {
namespace {

NetworkConfig
smallNet(McastScheme scheme = McastScheme::Hardware)
{
    NetworkConfig config = defaultNetwork();
    config.fatTreeK = 4;
    config.fatTreeN = 2; // 16 hosts
    config.nic.scheme = scheme;
    config.nic.sendOverhead = 20;
    config.nic.recvOverhead = 20;
    return config;
}

DestSet
someMembers(std::size_t hosts)
{
    DestSet members(hosts);
    for (NodeId m : {1, 3, 6, 9, 12, 15})
        members.set(m);
    return members;
}

TEST(Collectives, BroadcastCompletesOnce)
{
    Network net(smallNet());
    CollectiveEngine coll(net);
    int completions = 0;
    Cycle done_at = 0;
    coll.broadcast(0, someMembers(net.numHosts()), 64,
                   [&](Cycle now) {
                       ++completions;
                       done_at = now;
                   });
    EXPECT_EQ(coll.pendingOps(), 1u);
    net.armWatchdog(10000);
    ASSERT_TRUE(
        net.sim().runUntil([&net] { return net.idle(); }, 100000));
    EXPECT_EQ(completions, 1);
    EXPECT_GT(done_at, 0u);
    EXPECT_EQ(coll.pendingOps(), 0u);
    EXPECT_EQ(net.tracker().totalDeliveries(), 6u);
}

TEST(Collectives, BarrierReleasesOnlyAfterAllArrive)
{
    Network net(smallNet());
    CollectiveEngine coll(net);
    Cycle done_at = 0;
    const DestSet members = someMembers(net.numHosts());
    coll.barrier(0, members, [&](Cycle now) { done_at = now; });
    net.armWatchdog(10000);
    ASSERT_TRUE(
        net.sim().runUntil([&net] { return net.idle(); }, 100000));
    ASSERT_GT(done_at, 0u);
    // Two network traversals (arrive + release) plus overheads.
    EXPECT_GT(done_at, 80u);
    // Arrivals (6 unicasts) + releases (6 copies) all delivered.
    EXPECT_EQ(net.tracker().totalDeliveries(), 12u);
}

TEST(Collectives, ReduceFinishesWhenRootHasAll)
{
    Network net(smallNet());
    CollectiveEngine coll(net);
    Cycle done_at = 0;
    coll.reduce(5, someMembers(net.numHosts()) - DestSet::of(16, {}),
                32, [&](Cycle now) { done_at = now; });
    net.armWatchdog(10000);
    ASSERT_TRUE(
        net.sim().runUntil([&net] { return net.idle(); }, 100000));
    EXPECT_GT(done_at, 0u);
    // Every contribution landed at the root.
    EXPECT_EQ(net.nic(5).stats().packetsDelivered.value(), 6u);
}

TEST(Collectives, AllreduceIsReduceThenBroadcast)
{
    Network net(smallNet());
    CollectiveEngine coll(net);
    Cycle reduce_done = 0, allreduce_done = 0;

    Network net2(smallNet());
    CollectiveEngine coll2(net2);
    coll2.reduce(0, someMembers(net2.numHosts()), 32,
                 [&](Cycle now) { reduce_done = now; });
    net2.sim().runUntil([&net2] { return net2.idle(); }, 100000);

    coll.allreduce(0, someMembers(net.numHosts()), 32,
                   [&](Cycle now) { allreduce_done = now; });
    net.armWatchdog(10000);
    ASSERT_TRUE(
        net.sim().runUntil([&net] { return net.idle(); }, 100000));
    ASSERT_GT(reduce_done, 0u);
    ASSERT_GT(allreduce_done, 0u);
    EXPECT_GT(allreduce_done, reduce_done);
}

class CollectivesBothSchemes
    : public ::testing::TestWithParam<McastScheme>
{
};

TEST_P(CollectivesBothSchemes, BarrierWorksUnderEitherScheme)
{
    Network net(smallNet(GetParam()));
    CollectiveEngine coll(net);
    Cycle done_at = 0;
    coll.barrier(2, someMembers(net.numHosts()) - DestSet::of(16, {}),
                 [&](Cycle now) { done_at = now; });
    net.armWatchdog(20000);
    ASSERT_TRUE(
        net.sim().runUntil([&net] { return net.idle(); }, 200000));
    EXPECT_GT(done_at, 0u);
    EXPECT_EQ(coll.pendingOps(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Schemes, CollectivesBothSchemes,
                         ::testing::Values(McastScheme::Hardware,
                                           McastScheme::Software));

TEST(Collectives, HardwareBarrierBeatsSoftware)
{
    auto barrierTime = [](McastScheme scheme) {
        Network net(smallNet(scheme));
        CollectiveEngine coll(net);
        Cycle done_at = 0;
        DestSet everyone(net.numHosts());
        for (NodeId m = 1; m < static_cast<NodeId>(net.numHosts());
             ++m)
            everyone.set(m);
        coll.barrier(0, everyone, [&](Cycle now) { done_at = now; });
        net.sim().runUntil([&net] { return net.idle(); }, 200000);
        return done_at;
    };
    const Cycle hw = barrierTime(McastScheme::Hardware);
    const Cycle sw = barrierTime(McastScheme::Software);
    ASSERT_GT(hw, 0u);
    ASSERT_GT(sw, 0u);
    // The release broadcast dominates; single-phase worms shrink it.
    EXPECT_LT(hw, sw);
}

TEST(Collectives, SequentialBarriersReuseEngine)
{
    Network net(smallNet());
    CollectiveEngine coll(net);
    const DestSet members = someMembers(net.numHosts());
    int completions = 0;
    for (int round = 0; round < 3; ++round) {
        coll.barrier(0, members, [&](Cycle) { ++completions; });
        net.sim().runUntil([&net] { return net.idle(); }, 100000);
    }
    EXPECT_EQ(completions, 3);
    EXPECT_EQ(coll.pendingOps(), 0u);
}

TEST(Collectives, ConcurrentBroadcastsFromDifferentRoots)
{
    Network net(smallNet());
    CollectiveEngine coll(net);
    int completions = 0;
    coll.broadcast(0, DestSet::of(16, {4, 5, 6}), 32,
                   [&](Cycle) { ++completions; });
    coll.broadcast(9, DestSet::of(16, {10, 11}), 32,
                   [&](Cycle) { ++completions; });
    EXPECT_EQ(coll.pendingOps(), 2u);
    net.armWatchdog(10000);
    ASSERT_TRUE(
        net.sim().runUntil([&net] { return net.idle(); }, 100000));
    EXPECT_EQ(completions, 2);
}

// A member written off as unreachable still lets the operation
// finish: the tracker retires the message partially delivered, and
// that retirement is what the engine waits on.
TEST(Collectives, CompleteWhenMembersAreWrittenOff)
{
    NetworkConfig config = smallNet();
    config.nic.retransmitTimeout = 2000;
    // Host 15's leaf switch (hosts 12..15) dies at cycle 5.
    FaultEvent fault;
    fault.kind = FaultKind::SwitchDown;
    fault.when = 5;
    fault.sw = FatTree(4, 2).graph().attach(15).sw;
    config.faultPlan.add(fault);
    Network net(config);
    CollectiveEngine coll(net);

    const DestSet members = someMembers(net.numHosts());
    Cycle broadcast_done = 0, barrier_done = 0;
    coll.broadcast(0, members, 64,
                   [&](Cycle now) { broadcast_done = now; });
    coll.barrier(0, members, [&](Cycle now) { barrier_done = now; });
    net.armWatchdog(40000);
    ASSERT_TRUE(
        net.sim().runUntil([&net] { return net.idle(); }, 200000));
    EXPECT_GT(broadcast_done, 5u);
    EXPECT_GT(barrier_done, 5u);
    EXPECT_EQ(coll.pendingOps(), 0u);
    EXPECT_GE(net.tracker().partialCompleted(), 2u);

    // After the fault, the dead members' arrivals retire inside the
    // post, before the engine starts waiting on them.
    barrier_done = 0;
    coll.barrier(0, members, [&](Cycle now) { barrier_done = now; });
    ASSERT_TRUE(
        net.sim().runUntil([&net] { return net.idle(); }, 200000));
    EXPECT_GT(barrier_done, 0u);
    EXPECT_EQ(coll.pendingOps(), 0u);
}

} // namespace
} // namespace mdw
