/**
 * @file
 * Unit tests for the paper's contribution: region partitioning, parent
 * maps, restricted routing, and the bank-aware policy mechanics.
 */

#include <gtest/gtest.h>

#include <set>

#include "sttnoc/bank_aware_policy.hh"
#include "sttnoc/estimator.hh"
#include "sttnoc/parent_map.hh"
#include "sttnoc/region_map.hh"
#include "sttnoc/region_routing.hh"

namespace stacknoc {
namespace {

using sttnoc::EstimatorKind;
using sttnoc::ParentMap;
using sttnoc::RegionConfig;
using sttnoc::RegionMap;
using sttnoc::TsbPlacement;

const MeshShape kShape(8, 8, 2);

TEST(RegionMap, FourQuadrantsMatchFigure4)
{
    RegionMap rm(kShape, RegionConfig{4, TsbPlacement::Corner});
    EXPECT_EQ(rm.numRegions(), 4);
    // Region 0 is the top-left 4x4 quadrant; its corner TSB is cache
    // node 91 under core node 27, exactly as in Figures 4 and 5.
    EXPECT_EQ(rm.tsbCacheNode(0), 91);
    EXPECT_EQ(rm.tsbCoreNode(0), 27);
    EXPECT_EQ(rm.regionOf(rm.bankOfNode(64)), 0);
    EXPECT_EQ(rm.regionOf(rm.bankOfNode(91)), 0);
    EXPECT_EQ(rm.regionOf(rm.bankOfNode(68)), 1);  // (4,0) top-right
    EXPECT_EQ(rm.regionOf(rm.bankOfNode(96)), 2);  // (0,4) bottom-left
    EXPECT_EQ(rm.regionOf(rm.bankOfNode(127)), 3); // (7,7) bottom-right
    // All four TSBs hug the mesh centre.
    EXPECT_EQ(rm.tsbCacheNode(1), kShape.node(4, 3, 1));
    EXPECT_EQ(rm.tsbCacheNode(2), kShape.node(3, 4, 1));
    EXPECT_EQ(rm.tsbCacheNode(3), kShape.node(4, 4, 1));
}

TEST(RegionMap, EveryBankHasExactlyOneRegion)
{
    for (int regions : {4, 8, 16}) {
        RegionMap rm(kShape, RegionConfig{regions, TsbPlacement::Corner});
        std::vector<int> count(static_cast<std::size_t>(regions), 0);
        for (BankId b = 0; b < rm.numBanks(); ++b) {
            const int r = rm.regionOf(b);
            ASSERT_GE(r, 0);
            ASSERT_LT(r, regions);
            ++count[static_cast<std::size_t>(r)];
        }
        for (int r = 0; r < regions; ++r)
            EXPECT_EQ(count[static_cast<std::size_t>(r)], 64 / regions);
    }
}

TEST(RegionMap, TsbLiesInItsOwnRegion)
{
    for (int regions : {4, 8, 16}) {
        for (auto placement :
             {TsbPlacement::Corner, TsbPlacement::Stagger}) {
            RegionMap rm(kShape, RegionConfig{regions, placement});
            for (int r = 0; r < regions; ++r) {
                EXPECT_EQ(rm.regionOf(rm.bankOfNode(rm.tsbCacheNode(r))),
                          r);
            }
        }
    }
}

TEST(RegionMap, StaggeredTsbColumnsAreDistinct)
{
    for (int regions : {4, 8}) {
        RegionMap rm(kShape, RegionConfig{regions, TsbPlacement::Stagger});
        std::set<int> columns;
        for (int r = 0; r < regions; ++r)
            columns.insert(kShape.coord(rm.tsbCacheNode(r)).x);
        EXPECT_EQ(static_cast<int>(columns.size()), regions);
    }
}

TEST(RegionMap, EightRegionsAreFourByTwoTiles)
{
    RegionMap rm(kShape, RegionConfig{8, TsbPlacement::Corner});
    // Banks (0,0) and (3,1) share a region; (0,2) starts a new one.
    EXPECT_EQ(rm.regionOf(rm.bankOfNode(kShape.node(0, 0, 1))),
              rm.regionOf(rm.bankOfNode(kShape.node(3, 1, 1))));
    EXPECT_NE(rm.regionOf(rm.bankOfNode(kShape.node(0, 0, 1))),
              rm.regionOf(rm.bankOfNode(kShape.node(0, 2, 1))));
    EXPECT_NE(rm.regionOf(rm.bankOfNode(kShape.node(0, 0, 1))),
              rm.regionOf(rm.bankOfNode(kShape.node(4, 0, 1))));
}

TEST(ParentMap, PaperExampleChildren)
{
    // "router 91 manages traffic to cache bank 75, 82 and 89 and router
    //  90 manages traffic to cache banks 74, 81 and 88" (Section 3.4).
    RegionMap rm(kShape, RegionConfig{4, TsbPlacement::Corner});
    ParentMap pm(rm, 2);
    EXPECT_EQ(pm.parentOf(rm.bankOfNode(75)), 91);
    EXPECT_EQ(pm.parentOf(rm.bankOfNode(82)), 91);
    EXPECT_EQ(pm.parentOf(rm.bankOfNode(89)), 91);
    EXPECT_EQ(pm.parentOf(rm.bankOfNode(74)), 90);
    EXPECT_EQ(pm.parentOf(rm.bankOfNode(81)), 90);
    EXPECT_EQ(pm.parentOf(rm.bankOfNode(88)), 90);
    // "The innermost corner three nodes in each region ... are managed by
    //  the region-TSB node vertically above in the core layer (node 27)."
    EXPECT_EQ(pm.parentOf(rm.bankOfNode(91)), 27);
    EXPECT_EQ(pm.parentOf(rm.bankOfNode(90)), 27);
    EXPECT_EQ(pm.parentOf(rm.bankOfNode(83)), 27);
}

TEST(ParentMap, EveryBankHasAParentOnItsTsbPath)
{
    for (int regions : {4, 8, 16}) {
        for (int hops : {1, 2, 3}) {
            RegionMap rm(kShape,
                         RegionConfig{regions, TsbPlacement::Corner});
            ParentMap pm(rm, hops);
            for (BankId b = 0; b < rm.numBanks(); ++b) {
                const NodeId parent = pm.parentOf(b);
                ASSERT_NE(parent, kInvalidNode);
                const auto path = pm.tsbPathTo(b);
                const int len = static_cast<int>(path.size()) - 1;
                if (len >= hops) {
                    // Parent sits exactly `hops` before the bank.
                    EXPECT_EQ(path[static_cast<std::size_t>(len - hops)],
                              parent);
                    EXPECT_EQ(kShape.hopDistance(
                                  parent, rm.nodeOfBank(b)), hops);
                } else {
                    EXPECT_EQ(parent,
                              rm.tsbCoreNode(rm.regionOf(b)));
                }
            }
        }
    }
}

TEST(ParentMap, ChildListsAreConsistent)
{
    RegionMap rm(kShape, RegionConfig{4, TsbPlacement::Corner});
    ParentMap pm(rm, 2);
    int total_children = 0;
    for (NodeId n = 0; n < kShape.totalNodes(); ++n) {
        for (const BankId b : pm.childrenOf(n)) {
            EXPECT_EQ(pm.parentOf(b), n);
            ++total_children;
        }
    }
    EXPECT_EQ(total_children, rm.numBanks());
}

TEST(RegionRouting, RestrictedRequestsDescendOnlyAtTsbs)
{
    RegionMap rm(kShape, RegionConfig{4, TsbPlacement::Corner});
    sttnoc::RegionRouting routing(rm);
    noc::Topology topo(kShape, 1, 1, 30);

    std::set<NodeId> tsb_cores;
    for (int r = 0; r < rm.numRegions(); ++r)
        tsb_cores.insert(rm.tsbCoreNode(r));

    for (NodeId core = 0; core < 64; ++core) {
        for (NodeId cache = 64; cache < 128; ++cache) {
            auto pkt = noc::makePacket(noc::PacketClass::WritebackReq,
                                       core, cache);
            pkt->destBank = rm.bankOfNode(cache);
            NodeId here = core;
            int hops = 0;
            while (here != cache) {
                const noc::Dir d = routing.route(here, *pkt);
                if (d == noc::Dir::Down) {
                    EXPECT_TRUE(tsb_cores.count(here))
                        << "descended at non-TSB node " << here;
                }
                here = topo.neighbor(here, d);
                ASSERT_NE(here, kInvalidNode);
                ASSERT_LT(++hops, 64);
            }
        }
    }
}

TEST(RegionRouting, RestrictedPathPassesThroughParent)
{
    RegionMap rm(kShape, RegionConfig{4, TsbPlacement::Corner});
    ParentMap pm(rm, 2);
    sttnoc::RegionRouting routing(rm);
    noc::Topology topo(kShape, 1, 1, 30);

    for (NodeId core : {0, 7, 27, 46, 48, 63}) {
        for (NodeId cache = 64; cache < 128; ++cache) {
            auto pkt = noc::makePacket(noc::PacketClass::ReadReq, core,
                                       cache);
            pkt->destBank = rm.bankOfNode(cache);
            const NodeId parent = pm.parentOf(pkt->destBank);
            bool passed = core == parent;
            NodeId here = core;
            while (here != cache) {
                here = topo.neighbor(here, routing.route(here, *pkt));
                passed |= here == parent;
            }
            EXPECT_TRUE(passed)
                << core << "->" << cache << " missed parent " << parent;
        }
    }
}

TEST(RegionRouting, UnrestrictedTrafficUsesAllTsvs)
{
    RegionMap rm(kShape, RegionConfig{4, TsbPlacement::Corner});
    sttnoc::RegionRouting routing(rm);
    // A response from cache node 100 to core 3 ascends immediately at its
    // own column (Z first), not at a TSB.
    auto pkt = noc::makePacket(noc::PacketClass::DataResp, 100, 3);
    EXPECT_EQ(routing.route(100, *pkt), noc::Dir::Up);
    // Coherence from core 0 to cache 127 descends immediately too.
    auto coh = noc::makePacket(noc::PacketClass::CohCtrl, 0, 127);
    EXPECT_EQ(routing.route(0, *coh), noc::Dir::Down);
}

TEST(WindowEstimator, BaseRttMatchesTopologyDistance)
{
    RegionMap rm(kShape, RegionConfig{4, TsbPlacement::Corner});
    ParentMap pm(rm, 2);
    sttnoc::SttAwareParams params;
    sttnoc::WindowEstimator est(rm, pm, params);
    // Two-hop child: 6*2+5 = 17 contention-free round-trip cycles.
    EXPECT_EQ(est.baseRtt(rm.bankOfNode(75)), 17u);
    // Bank 91 is parented by core node 27, one vertical hop away.
    EXPECT_EQ(est.baseRtt(rm.bankOfNode(91)), 11u);
}

TEST(WindowEstimator, ProbeTagAndAck)
{
    RegionMap rm(kShape, RegionConfig{4, TsbPlacement::Corner});
    ParentMap pm(rm, 2);
    sttnoc::SttAwareParams params;
    params.windowN = 4;
    sttnoc::WindowEstimator est(rm, pm, params);

    const BankId child = rm.bankOfNode(75);
    const NodeId parent = pm.parentOf(child);

    auto mk = [&](Cycle) {
        auto p = noc::makePacket(noc::PacketClass::WriteReq, 7, 75);
        p->destBank = child;
        return p;
    };

    // First forward is tagged; next three are not (window of 1, N=4).
    auto p0 = mk(0);
    est.onForward(child, *p0, parent, 100);
    EXPECT_EQ(p0->probeStamp, 100 & 0xff);
    EXPECT_EQ(p0->probeParent, parent);
    auto p1 = mk(1);
    est.onForward(child, *p1, parent, 101);
    EXPECT_EQ(p1->probeStamp, -1);

    // Echo arrives: RTT 37 vs base 17 -> congestion (37-17)/2 = 10.
    auto ack = noc::makePacket(noc::PacketClass::ProbeAck, 75, parent);
    ack->info.origin = static_cast<std::uint32_t>(child);
    ack->info.aux = static_cast<std::uint16_t>(p0->probeStamp);
    est.onProbeAck(*ack, 137);
    EXPECT_EQ(est.estimate(child, 140), 10u);

    // Uncongested echo resets the estimate to zero.
    auto p4 = mk(4);
    est.onForward(child, *p4, parent, 200); // count=2
    auto p5 = mk(5);
    est.onForward(child, *p5, parent, 201); // count=3
    auto p6 = mk(6);
    est.onForward(child, *p6, parent, 202); // count=4 -> tagged
    EXPECT_GE(p6->probeStamp, 0);
    auto ack2 = noc::makePacket(noc::PacketClass::ProbeAck, 75, parent);
    ack2->info.origin = static_cast<std::uint32_t>(child);
    ack2->info.aux = static_cast<std::uint16_t>(p6->probeStamp);
    est.onProbeAck(*ack2, 202 + 17);
    EXPECT_EQ(est.estimate(child, 220), 0u);
}

TEST(WindowEstimator, StaleAckIgnored)
{
    RegionMap rm(kShape, RegionConfig{4, TsbPlacement::Corner});
    ParentMap pm(rm, 2);
    sttnoc::SttAwareParams params;
    sttnoc::WindowEstimator est(rm, pm, params);
    const BankId child = rm.bankOfNode(75);
    auto ack = noc::makePacket(noc::PacketClass::ProbeAck, 75, 91);
    ack->info.origin = static_cast<std::uint32_t>(child);
    ack->info.aux = 99;
    est.onProbeAck(*ack, 500); // nothing outstanding: must be a no-op
    EXPECT_EQ(est.estimate(child, 501), 0u);
}

TEST(BankAwarePolicy, WriteForwardOpensBusyWindow)
{
    RegionMap rm(kShape, RegionConfig{4, TsbPlacement::Corner});
    ParentMap pm(rm, 2);
    sttnoc::SttAwareParams params;
    params.estimator = EstimatorKind::Simple;
    sttnoc::BankAwarePolicy policy(
        rm, pm, params,
        sttnoc::makeEstimator(EstimatorKind::Simple, rm, pm, params,
                              nullptr));

    const BankId bank = rm.bankOfNode(75);
    const NodeId parent = pm.parentOf(bank); // 91

    // A store write forwarded at the parent marks the bank busy for
    // pathDelay (2 hops: 3*2+2 = 8) + 0 + 33 = 41 cycles.
    auto st = noc::makePacket(noc::PacketClass::StoreWrite, 7, 75);
    st->destBank = bank;
    EXPECT_TRUE(policy.eligible(parent, *st, 100));
    policy.onForward(parent, *st, 100);
    EXPECT_EQ(policy.busyUntil(bank), 141u);

    // In the default Priority mode a second store to the same bank is
    // still eligible but drops to the lowest arbitration class...
    auto st2 = noc::makePacket(noc::PacketClass::StoreWrite, 7, 75);
    st2->destBank = bank;
    EXPECT_TRUE(policy.eligible(parent, *st2, 110));
    EXPECT_EQ(policy.priorityClass(parent, *st2, 110), 2);
    // ...but only at its parent router...
    EXPECT_EQ(policy.priorityClass(90, *st2, 110), 1);
    // ...and only while the window (minus the path delay) runs.
    EXPECT_EQ(policy.priorityClass(parent, *st2, 133), 1);

    // Loads are never de-prioritised, even toward the busy bank.
    auto rd = noc::makePacket(noc::PacketClass::ReadReq, 7, 75);
    rd->destBank = bank;
    EXPECT_TRUE(policy.eligible(parent, *rd, 110));
    EXPECT_EQ(policy.priorityClass(parent, *rd, 110), 1);

    // A store to a different (idle) child keeps normal priority.
    auto other = noc::makePacket(noc::PacketClass::StoreWrite, 7, 82);
    other->destBank = rm.bankOfNode(82);
    EXPECT_EQ(policy.priorityClass(parent, *other, 110), 1);
}

TEST(BankAwarePolicy, CoherenceAndResponsesOutrankRequests)
{
    RegionMap rm(kShape, RegionConfig{4, TsbPlacement::Corner});
    ParentMap pm(rm, 2);
    sttnoc::SttAwareParams params;
    sttnoc::BankAwarePolicy policy(
        rm, pm, params,
        sttnoc::makeEstimator(EstimatorKind::Simple, rm, pm, params,
                              nullptr));
    auto coh = noc::makePacket(noc::PacketClass::CohCtrl, 64, 0);
    auto resp = noc::makePacket(noc::PacketClass::DataResp, 64, 0);
    auto rd = noc::makePacket(noc::PacketClass::ReadReq, 0, 75);
    EXPECT_EQ(policy.priorityClass(91, *coh, 0), 0);
    EXPECT_EQ(policy.priorityClass(91, *resp, 0), 0);
    EXPECT_EQ(policy.priorityClass(91, *rd, 0), 1);
}

TEST(BankAwarePolicy, HoldModeBlocksWritesInWindow)
{
    RegionMap rm(kShape, RegionConfig{4, TsbPlacement::Corner});
    ParentMap pm(rm, 2);
    sttnoc::SttAwareParams params;
    params.estimator = EstimatorKind::Simple;
    params.delayMode = sttnoc::DelayMode::Hold;
    params.holdCap = 20;
    sttnoc::BankAwarePolicy policy(
        rm, pm, params,
        sttnoc::makeEstimator(EstimatorKind::Simple, rm, pm, params,
                              nullptr));
    const BankId bank = rm.bankOfNode(75);
    const NodeId parent = pm.parentOf(bank);

    auto st = noc::makePacket(noc::PacketClass::StoreWrite, 7, 75);
    st->destBank = bank;
    policy.onForward(parent, *st, 0); // busy until 41

    auto st2 = noc::makePacket(noc::PacketClass::StoreWrite, 7, 75);
    st2->destBank = bank;
    // Held while arrival (now + 8) < 41; the starvation cap releases
    // after 20 cycles of holding.
    EXPECT_FALSE(policy.eligible(parent, *st2, 5));
    EXPECT_FALSE(policy.eligible(parent, *st2, 24));
    EXPECT_TRUE(policy.eligible(parent, *st2, 25)); // 5 + holdCap
    EXPECT_EQ(policy.stats().counter("hold_cap_releases").value(), 1u);

    // A fresh store after the window flows immediately.
    auto st3 = noc::makePacket(noc::PacketClass::StoreWrite, 7, 75);
    st3->destBank = bank;
    EXPECT_TRUE(policy.eligible(parent, *st3, 50));

    // Loads are never blocked, even in Hold mode.
    auto rd = noc::makePacket(noc::PacketClass::ReadReq, 7, 75);
    rd->destBank = bank;
    EXPECT_TRUE(policy.eligible(parent, *rd, 5));
}

TEST(BankAwarePolicy, ReadsDoNotMarkBusy)
{
    RegionMap rm(kShape, RegionConfig{4, TsbPlacement::Corner});
    ParentMap pm(rm, 2);
    sttnoc::SttAwareParams params;
    sttnoc::BankAwarePolicy policy(
        rm, pm, params,
        sttnoc::makeEstimator(EstimatorKind::Simple, rm, pm, params,
                              nullptr));
    const BankId bank = rm.bankOfNode(75);
    auto rd = noc::makePacket(noc::PacketClass::ReadReq, 7, 75);
    rd->destBank = bank;
    policy.onForward(pm.parentOf(bank), *rd, 50);
    EXPECT_EQ(policy.busyUntil(bank), 0u);
}

} // namespace
} // namespace stacknoc
