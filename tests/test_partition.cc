/**
 * @file
 * Unit tests for the deterministic switch partitioner: full coverage,
 * exact boundary cut, balance, degenerate shapes, and determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "topology/fat_tree.hh"
#include "topology/irregular.hh"
#include "topology/partition.hh"

namespace mdw {
namespace {

using Cut = std::set<std::tuple<SwitchId, PortId, SwitchId, PortId>>;

/** Independently enumerate every cut switch-switch link, once, from
 *  its lower (switch, port) endpoint. */
Cut
expectedCut(const PortGraph &graph, const ShardPlan &plan)
{
    Cut cut;
    for (SwitchId a = 0;
         a < static_cast<SwitchId>(graph.numSwitches()); ++a) {
        for (PortId pa = 0; pa < static_cast<PortId>(graph.radix(a));
             ++pa) {
            const PortPeer &peer = graph.peer(a, pa);
            if (!peer.isSwitch())
                continue;
            if (std::make_pair(a, pa) >
                std::make_pair(peer.sw, peer.port))
                continue;
            if (plan.switchShard[static_cast<std::size_t>(a)] !=
                plan.switchShard[static_cast<std::size_t>(peer.sw)])
                cut.emplace(a, pa, peer.sw, peer.port);
        }
    }
    return cut;
}

void
checkPlan(const PortGraph &graph, std::size_t shards)
{
    const ShardPlan plan = makeShardPlan(graph, shards);
    ASSERT_EQ(plan.shards, shards);
    ASSERT_EQ(plan.switchShard.size(), graph.numSwitches());

    // Total coverage: every switch lands in a valid shard.
    for (std::uint32_t s : plan.switchShard)
        EXPECT_LT(s, shards);

    // The recorded boundary is exactly the set of cross-shard links:
    // each cut link appears exactly once and no intra-shard link
    // appears at all.
    const Cut expected = expectedCut(graph, plan);
    Cut recorded;
    for (const BoundaryLink &link : plan.boundaryLinks) {
        const auto [it, inserted] =
            recorded.emplace(link.a, link.pa, link.b, link.pb);
        (void)it;
        EXPECT_TRUE(inserted)
            << "link (" << link.a << "," << link.pa
            << ") recorded twice";
        EXPECT_NE(plan.switchShard[static_cast<std::size_t>(link.a)],
                  plan.switchShard[static_cast<std::size_t>(link.b)]);
    }
    EXPECT_EQ(recorded, expected);

    // countIn agrees with the assignment vector.
    std::size_t total = 0;
    for (std::uint32_t s = 0; s < shards; ++s)
        total += plan.countIn(s);
    EXPECT_EQ(total, graph.numSwitches());
}

TEST(Partition, FatTreeCutIsExact)
{
    for (std::size_t shards : {2u, 3u, 4u, 8u}) {
        FatTree t(4, 3); // 64 hosts, 48 switches
        checkPlan(t.graph(), shards);
    }
}

TEST(Partition, IrregularCutIsExact)
{
    for (std::uint64_t seed : {1u, 7u, 42u}) {
        IrregularTopology t(IrregularParams{}, Rng(seed));
        for (std::size_t shards : {2u, 4u})
            checkPlan(t.graph(), shards);
    }
}

TEST(Partition, EdgeSwitchHostLoadIsBalanced)
{
    FatTree t(4, 3); // 16 leaf switches x 4 hosts
    const ShardPlan plan = makeShardPlan(t.graph(), 4);
    // Each shard should serve ~16 of the 64 hosts; the cumulative-cut
    // rule makes the split exact for uniform leaves.
    std::vector<std::size_t> hosts(4, 0);
    for (std::size_t h = 0; h < t.numHosts(); ++h) {
        const HostAttach &at =
            t.graph().attach(static_cast<NodeId>(h));
        hosts[plan.switchShard[static_cast<std::size_t>(at.sw)]] += 1;
    }
    for (std::size_t s = 0; s < 4; ++s)
        EXPECT_EQ(hosts[s], 16u) << "shard " << s;
    // And no shard is starved of switches.
    for (std::uint32_t s = 0; s < 4; ++s)
        EXPECT_GT(plan.countIn(s), 0u) << "shard " << s;
}

TEST(Partition, TiedInteriorSwitchesSpreadEvenly)
{
    // Every top-stage switch of a 4-ary 3-tree has one neighbor in
    // each shard's subtree; the tie goes to the least-loaded shard,
    // so the top stage spreads evenly instead of landing on shard 0.
    FatTree t(4, 3); // 48 switches, 16 per stage
    const ShardPlan plan = makeShardPlan(t.graph(), 4);
    for (std::uint32_t s = 0; s < 4; ++s)
        EXPECT_EQ(plan.countIn(s), 12u) << "shard " << s;
}

TEST(Partition, OneShardDegeneratesToFlat)
{
    FatTree t(4, 2);
    const ShardPlan plan = makeShardPlan(t.graph(), 1);
    EXPECT_TRUE(plan.boundaryLinks.empty());
    for (std::uint32_t s : plan.switchShard)
        EXPECT_EQ(s, 0u);
}

TEST(Partition, MoreShardsThanSwitchesIsValid)
{
    FatTree t(2, 2); // 4 hosts, 4 switches
    const std::size_t shards = 16;
    checkPlan(t.graph(), shards);
    const ShardPlan plan = makeShardPlan(t.graph(), shards);
    // Surplus shards stay empty; every switch still has a home.
    std::size_t populated = 0;
    for (std::uint32_t s = 0; s < shards; ++s)
        populated += plan.countIn(s) > 0 ? 1 : 0;
    EXPECT_LE(populated, t.numSwitches());
    EXPECT_GE(populated, 1u);
}

TEST(Partition, PlanIsDeterministic)
{
    IrregularTopology t(IrregularParams{}, Rng(99));
    const ShardPlan a = makeShardPlan(t.graph(), 4);
    const ShardPlan b = makeShardPlan(t.graph(), 4);
    EXPECT_EQ(a.switchShard, b.switchShard);
    ASSERT_EQ(a.boundaryLinks.size(), b.boundaryLinks.size());
    for (std::size_t i = 0; i < a.boundaryLinks.size(); ++i) {
        EXPECT_EQ(a.boundaryLinks[i].a, b.boundaryLinks[i].a);
        EXPECT_EQ(a.boundaryLinks[i].pa, b.boundaryLinks[i].pa);
        EXPECT_EQ(a.boundaryLinks[i].b, b.boundaryLinks[i].b);
        EXPECT_EQ(a.boundaryLinks[i].pb, b.boundaryLinks[i].pb);
    }
}

} // namespace
} // namespace mdw
