/**
 * @file
 * Unit tests for the switch ready sets: the ReadySet bitset (any
 * width, ascending iteration across word boundaries) and the channel
 * ready flags that set and clear a receiver's bit.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "sim/channel.hh"
#include "sim/ready_set.hh"

namespace mdw {
namespace {

std::vector<std::size_t>
members(const ReadySet &set)
{
    std::vector<std::size_t> out;
    set.forEach([&](std::size_t i) { out.push_back(i); });
    return out;
}

TEST(ReadySet, OneWordSetClearAndIterate)
{
    ReadySet set(40);
    EXPECT_FALSE(set.any());
    set.set(39);
    set.set(0);
    set.set(7);
    EXPECT_TRUE(set.any());
    EXPECT_TRUE(set.test(7));
    EXPECT_FALSE(set.test(8));
    EXPECT_EQ(members(set), (std::vector<std::size_t>{0, 7, 39}));
    set.reset(0);
    set.reset(39);
    set.reset(7);
    EXPECT_FALSE(set.any());
    EXPECT_TRUE(members(set).empty());
}

TEST(ReadySet, IteratesAscendingAcrossWordBoundaries)
{
    // 24 ports x 4 lanes: three words, the case a single-word mask
    // would truncate.
    ReadySet set(96);
    for (std::size_t i : {95u, 64u, 63u, 1u, 62u, 65u})
        set.set(i);
    EXPECT_EQ(members(set),
              (std::vector<std::size_t>{1, 62, 63, 64, 65, 95}));
    set.reset(63);
    set.reset(64);
    EXPECT_EQ(members(set), (std::vector<std::size_t>{1, 62, 65, 95}));
    set.reset(1);
    set.reset(62);
    set.reset(65);
    EXPECT_TRUE(set.any());
    set.reset(95);
    EXPECT_FALSE(set.any());
}

TEST(ReadySet, MaskedIteration)
{
    ReadySet a(130);
    ReadySet mask(130);
    for (std::size_t i : {3u, 64u, 70u, 129u})
        a.set(i);
    for (std::size_t i : {64u, 129u, 5u})
        mask.set(i);
    std::vector<std::size_t> both;
    a.forEachAnd(mask, [&](std::size_t i) { both.push_back(i); });
    EXPECT_EQ(both, (std::vector<std::size_t>{64, 129}));
    std::vector<std::size_t> only;
    a.forEachAndNot(mask, [&](std::size_t i) { only.push_back(i); });
    EXPECT_EQ(only, (std::vector<std::size_t>{3, 70}));
}

TEST(ReadySet, CallbackMayClearOrSetTheVisitedIndex)
{
    // A stage clears the bit it serves (or keeps it set) while the
    // walk goes on, on both sides of a word boundary: every entry is
    // visited exactly once either way.
    ReadySet set(128);
    for (std::size_t i : {2u, 10u, 63u, 64u, 70u, 100u})
        set.set(i);
    std::vector<std::size_t> seen;
    set.forEach([&](std::size_t i) {
        seen.push_back(i);
        if (i % 2 == 0)
            set.reset(i);
        else
            set.set(i);
    });
    EXPECT_EQ(seen,
              (std::vector<std::size_t>{2, 10, 63, 64, 70, 100}));
    std::vector<std::size_t> left;
    set.forEach([&](std::size_t i) { left.push_back(i); });
    EXPECT_EQ(left, (std::vector<std::size_t>{63}));
}

TEST(ReadySet, FlagPointsAtTheIndexBit)
{
    ReadySet set(100);
    const ReadyFlag flag = set.flag(77);
    flag.raise();
    EXPECT_EQ(members(set), (std::vector<std::size_t>{77}));
    flag.lower();
    EXPECT_FALSE(set.any());
    // An unattached flag is inert.
    ReadyFlag none;
    none.raise();
    none.lower();
}

TEST(ChannelReadyFlag, SendSetsAndDrainClears)
{
    ReadySet ready(80);
    Channel<int> ch("c", 2);
    ch.setReadyFlag(ready.flag(70));
    EXPECT_FALSE(ready.test(70));
    ch.send(1, 0);
    EXPECT_TRUE(ready.test(70)); // queued, not yet arrived
    ch.send(2, 1);
    EXPECT_EQ(ch.receive(2), 1);
    EXPECT_TRUE(ready.test(70)); // one still queued
    EXPECT_EQ(ch.receive(3), 2);
    EXPECT_FALSE(ready.test(70));
    EXPECT_FALSE(ready.any());
}

TEST(ChannelReadyFlag, AttachWithQueuedItemSetsBit)
{
    ReadySet ready(4);
    Channel<int> ch("c", 1);
    ch.send(5, 0);
    ch.setReadyFlag(ready.flag(2));
    EXPECT_TRUE(ready.test(2));
}

/** Ignores dirty reports: each test drives the flush itself. */
struct NullRegistrar : BoundaryRegistrar
{
    void
    boundaryDirty(std::uint32_t, std::uint32_t,
                  BoundaryChannel *) override
    {
    }
};

TEST(ChannelReadyFlag, BoundarySendSetsBitOnlyAtFlush)
{
    NullRegistrar registrar;
    ReadySet ready(70);
    Channel<int> ch("c", 1);
    ch.setBoundary(&registrar, 0, 0);
    ch.setReadyFlag(ready.flag(65));
    ch.send(9, 0);
    EXPECT_FALSE(ready.test(65)); // still in the sender's mailbox
    EXPECT_EQ(ch.flushBoundary(), 1u);
    EXPECT_TRUE(ready.test(65));
    EXPECT_EQ(ch.receive(1), 9);
    EXPECT_FALSE(ready.test(65));
}

/** Drops every item, as a dead link does. */
struct DropHook : ChannelHook<int>
{
    Cycle onSend(int &, Cycle) override { return kNoCycle; }
    void onReceive(const int &) override {}
};

TEST(ChannelReadyFlag, DroppedSendLeavesBitClear)
{
    DropHook hook;
    ReadySet ready(8);
    Channel<int> ch("c", 1);
    ch.setHook(&hook);
    ch.setReadyFlag(ready.flag(3));
    ch.send(1, 0);
    EXPECT_FALSE(ready.test(3));
    EXPECT_EQ(ch.nextArrival(), kNoCycle);
}

TEST(CreditChannelReadyFlag, SendSetsAndDrainClears)
{
    ReadySet ready(66);
    CreditChannel ch("cr", 2);
    ch.setReadyFlag(ready.flag(64));
    ch.send(3, 0, 1);
    EXPECT_TRUE(ready.test(64));
    std::vector<int> lanes(2, 0);
    EXPECT_EQ(ch.receiveByLane(1, lanes), 0); // not yet arrived
    EXPECT_TRUE(ready.test(64));
    EXPECT_EQ(ch.receiveByLane(2, lanes), 3);
    EXPECT_EQ(lanes[1], 3);
    EXPECT_FALSE(ready.test(64));
    ch.send(1, 5);
    EXPECT_TRUE(ready.test(64));
    EXPECT_EQ(ch.receive(7), 1);
    EXPECT_FALSE(ready.test(64));
}

TEST(CreditChannelReadyFlag, BoundaryGrantSetsBitOnlyAtFlush)
{
    NullRegistrar registrar;
    ReadySet ready(3);
    CreditChannel ch("cr", 1);
    ch.setBoundary(&registrar, 1, 0);
    ch.setReadyFlag(ready.flag(1));
    ch.send(2, 0);
    EXPECT_FALSE(ready.test(1));
    EXPECT_EQ(ch.flushBoundary(), 1u);
    EXPECT_TRUE(ready.test(1));
    EXPECT_EQ(ch.receive(1), 2);
    EXPECT_FALSE(ready.test(1));
}

} // namespace
} // namespace mdw
