/**
 * @file
 * Unit tests for the system layer: scenario factories, the energy
 * model, the evaluation metrics, and the router occupancy probe.
 */

#include <gtest/gtest.h>

#include "system/cmp_system.hh"
#include "system/energy.hh"
#include "system/heatmap.hh"
#include "system/metrics.hh"
#include "system/scenario.hh"

namespace stacknoc {
namespace {

using system::Scenario;

TEST(Scenarios, FactoriesMatchThePaper)
{
    const auto sram = system::scenarios::sram64Tsb();
    EXPECT_EQ(sram.tech, mem::CacheTech::Sram);
    EXPECT_EQ(sram.tsbRegions, 0);
    EXPECT_FALSE(sram.scheme.has_value());

    const auto wb = system::scenarios::sttram4TsbWb();
    EXPECT_EQ(wb.tech, mem::CacheTech::SttRam);
    EXPECT_EQ(wb.tsbRegions, 4);
    ASSERT_TRUE(wb.scheme.has_value());
    EXPECT_EQ(*wb.scheme, sttnoc::EstimatorKind::Window);
    EXPECT_EQ(wb.parentHops, 2);

    const auto buff = system::scenarios::sttramBuff20();
    EXPECT_TRUE(buff.writeBuffer);
    EXPECT_FALSE(buff.scheme.has_value());

    const auto plus1 = system::scenarios::sttram4TsbWbPlus1Vc();
    EXPECT_EQ(plus1.vcsPerVnet[1], 3); // extra write-class lane

    const auto six = system::scenarios::figureSix();
    EXPECT_EQ(six[0].name, "SRAM-64TSB");
    EXPECT_EQ(six[5].name, "MRAM-4TSB-WB");
}

TEST(Energy, LeakageDominatesAndSttRamWins)
{
    // With zero traffic, energy is pure leakage: STT-RAM banks leak
    // 190.5 mW vs SRAM's 444.6 mW, the source of the paper's ~54%
    // uncore energy saving.
    stats::Group cache("cache"), net("net");
    const Cycle cycles = 3000000000; // one second at 3 GHz
    const auto sram = system::computeEnergy(cache, net,
                                            mem::CacheTech::Sram, 64,
                                            128, cycles);
    const auto stt = system::computeEnergy(cache, net,
                                           mem::CacheTech::SttRam, 64,
                                           128, cycles);
    EXPECT_NEAR(sram.cacheLeakageUJ, 444.6e-3 * 64 * 1e6, 1e3);
    EXPECT_NEAR(stt.cacheLeakageUJ, 190.5e-3 * 64 * 1e6, 1e3);
    EXPECT_DOUBLE_EQ(sram.netLeakageUJ, stt.netLeakageUJ);
    EXPECT_LT(stt.totalUJ(), 0.55 * sram.totalUJ());
}

TEST(Energy, DynamicTermsCountAccessesAndFlits)
{
    stats::Group cache("cache"), net("net");
    cache.counter("bank_reads").inc(1000);
    cache.counter("bank_writes").inc(500);
    net.counter("flits_buffered").inc(2000);
    net.counter("flits_switched").inc(2000);
    const auto e = system::computeEnergy(cache, net,
                                         mem::CacheTech::SttRam, 64, 128,
                                         1);
    EXPECT_NEAR(e.cacheDynamicUJ,
                (1000 * 0.278 + 500 * 0.765) * 1e-3, 1e-9);
    EXPECT_GT(e.netDynamicUJ, 0.0);
    // STT-RAM writes cost ~2.75x reads (Table 2).
    EXPECT_NEAR(0.765 / 0.278, 2.75, 0.01);
}

TEST(Metrics, ThroughputAndExtremes)
{
    system::Metrics m;
    m.ipc = {1.0, 0.5, 1.5};
    EXPECT_DOUBLE_EQ(m.instructionThroughput(), 3.0);
    EXPECT_DOUBLE_EQ(m.minIpc(), 0.5);
    EXPECT_DOUBLE_EQ(m.meanIpc(), 1.0);
}

TEST(Metrics, WeightedSpeedupAndMaxSlowdown)
{
    const std::vector<double> shared{0.5, 1.0};
    const std::vector<double> alone{1.0, 1.0};
    EXPECT_DOUBLE_EQ(system::weightedSpeedup(shared, alone), 1.5);
    EXPECT_DOUBLE_EQ(system::maxSlowdown(shared, alone), 2.0);
}

TEST(Metrics, MismatchedSizesPanic)
{
    EXPECT_DEATH(system::weightedSpeedup({1.0}, {1.0, 2.0}),
                 "size mismatch");
}

TEST(Probe, SeesBufferedRequests)
{
    system::SystemConfig cfg;
    cfg.meshWidth = 4;
    cfg.meshHeight = 4;
    cfg.scenario = system::scenarios::sttram4TsbWb();
    cfg.apps = {"tpcc"};
    cfg.probePeriod = 16;
    system::CmpSystem sys(cfg);
    sys.run(8000);
    ASSERT_NE(sys.probe(), nullptr);
    // Somewhere in a hot run there are buffered two-hop requests.
    double total = 0;
    for (int h = 1; h <= 3; ++h)
        total += sys.probe()->avgRequestsAtHops(h);
    EXPECT_GT(total, 0.0);
}

TEST(SystemConfigValidation, BadAppCountIsFatal)
{
    system::SystemConfig cfg;
    cfg.meshWidth = 4;
    cfg.meshHeight = 4;
    cfg.apps = {"tpcc", "lbm"}; // neither 1 nor 16
    EXPECT_DEATH(system::CmpSystem sys(cfg), "apps must have");
}

TEST(SystemConfigValidation, SchemeWithoutTsbsIsFatal)
{
    system::SystemConfig cfg;
    cfg.meshWidth = 4;
    cfg.meshHeight = 4;
    cfg.scenario = system::scenarios::sttram4TsbWb();
    cfg.scenario.tsbRegions = 0;
    EXPECT_DEATH(system::CmpSystem sys(cfg), "requires region TSBs");
}

TEST(System, WarmupResetsMeasurement)
{
    system::SystemConfig cfg;
    cfg.meshWidth = 4;
    cfg.meshHeight = 4;
    cfg.scenario = system::scenarios::sttram64Tsb();
    cfg.apps = {"x264"};
    system::CmpSystem sys(cfg);
    sys.warmup(3000);
    EXPECT_EQ(sys.metrics().cycles, 0u);
    EXPECT_EQ(sys.core(0).committed(), 0u);
    sys.run(2000);
    const auto m = sys.metrics();
    EXPECT_EQ(m.cycles, 2000u);
    EXPECT_GT(m.meanIpc(), 0.0);
}

TEST(Heatmap, FramesSumToTheMeasuredWindow)
{
    // 5000 measured cycles are 26 periods of 192 plus an 8-cycle tail;
    // finalizeTelemetry() must close the tail so --sum is the whole run.
    system::SystemConfig cfg;
    cfg.meshWidth = 4;
    cfg.meshHeight = 4;
    cfg.scenario = system::scenarios::sttram4TsbWb();
    cfg.apps = {"tpcc"};
    cfg.heatmapPeriod = 192;
    system::CmpSystem sys(cfg);
    sys.warmup(1000);
    sys.run(5000);
    sys.finalizeTelemetry();
    sys.finalizeTelemetry(); // idempotent

    const auto &frames = sys.heatmap()->frames();
    ASSERT_EQ(frames.size(), 27u);
    EXPECT_EQ(frames.front().start, Cycle{1000});
    EXPECT_EQ(frames.back().end, Cycle{5999});
    std::uint64_t flits = 0;
    for (const auto &f : frames)
        for (const auto &grid : f.flits)
            for (const std::uint64_t v : grid)
                flits += v;
    EXPECT_EQ(flits,
              sys.network().stats().counter("flits_switched").value());
    EXPECT_GT(flits, 0u);
}

} // namespace
} // namespace stacknoc
