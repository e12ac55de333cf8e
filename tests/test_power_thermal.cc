/**
 * @file
 * Power & thermal observability: the streaming EnergyProbe must
 * reconcile with the end-of-run computeEnergy (the two paths can never
 * drift), fault-path work must cost energy, and the thermal RC solver
 * must hit its analytic steady state, respond monotonically to power,
 * and be bit-identical at any engine thread count.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault_spec.hh"
#include "noc/packet.hh"
#include "system/cmp_system.hh"
#include "system/energy.hh"
#include "system/scenario.hh"
#include "telemetry/power.hh"
#include "telemetry/thermal.hh"

namespace stacknoc {
namespace {

// ------------------------------------------------- thermal solver

telemetry::ThermalParams
solverParams()
{
    telemetry::ThermalParams p;
    // Defaults, stated explicitly so the analytic expectations below
    // stay valid if the shipped defaults are ever retuned.
    p.ambientC = 45.0;
    p.cellCapacityJPerK = 5e-8;
    p.lateralWPerK = 0.010;
    p.verticalWPerK = 0.020;
    p.sinkWPerK = 0.002;
    return p;
}

std::vector<std::vector<double>>
uniformPower(int width, int height, int layers, double watts)
{
    return std::vector<std::vector<double>>(
        static_cast<std::size_t>(layers),
        std::vector<double>(static_cast<std::size_t>(width * height),
                            watts));
}

TEST(ThermalSolver, UniformPowerReachesAnalyticSteadyState)
{
    const telemetry::ThermalParams p = solverParams();
    telemetry::ThermalGrid grid(4, 4, 2, p);
    const double watts = 0.05;
    const auto power = uniformPower(4, 4, 2, watts);

    // tau = C / Gsink = 25 us; integrate for 3 ms >> tau.
    for (int i = 0; i < 3000; ++i)
        grid.step(power, 1e-6);

    // Uniform power: lateral and vertical flows cancel by symmetry,
    // every cell settles at ambient + P / Gsink.
    const double expected = p.ambientC + watts / p.sinkWPerK;
    for (int layer = 0; layer < 2; ++layer) {
        for (int y = 0; y < 4; ++y) {
            for (int x = 0; x < 4; ++x) {
                EXPECT_NEAR(grid.cellC(x, y, layer), expected, 1e-6)
                    << "cell (" << x << "," << y << "," << layer << ")";
            }
        }
    }
    EXPECT_NEAR(grid.layerMaxC(0), expected, 1e-6);
    EXPECT_NEAR(grid.layerMeanC(1), expected, 1e-6);
}

TEST(ThermalSolver, ZeroPowerStaysAtAmbient)
{
    const telemetry::ThermalParams p = solverParams();
    telemetry::ThermalGrid grid(4, 4, 2, p);
    const auto power = uniformPower(4, 4, 2, 0.0);
    for (int i = 0; i < 100; ++i)
        grid.step(power, 1e-6);
    for (int layer = 0; layer < 2; ++layer)
        EXPECT_DOUBLE_EQ(grid.layerMaxC(layer), p.ambientC);
}

TEST(ThermalSolver, MorePowerInACellMeansHigherTemperature)
{
    const telemetry::ThermalParams p = solverParams();
    telemetry::ThermalGrid base(4, 4, 2, p);
    telemetry::ThermalGrid hot(4, 4, 2, p);

    auto base_power = uniformPower(4, 4, 2, 0.02);
    auto hot_power = base_power;
    hot_power[1][2 * 4 + 1] += 0.05; // cell (1, 2) on the cache layer

    for (int i = 0; i < 500; ++i) {
        base.step(base_power, 1e-6);
        hot.step(hot_power, 1e-6);
    }

    EXPECT_GT(hot.cellC(1, 2, 1), base.cellC(1, 2, 1));
    // Every temperature sits at or above ambient under non-negative
    // power, and the heated cell is the hottest cell of the grid.
    EXPECT_GE(base.layerMaxC(0), p.ambientC);
    const auto hottest = hot.hottest();
    EXPECT_EQ(hottest.layer, 1);
    EXPECT_EQ(hottest.x, 1);
    EXPECT_EQ(hottest.y, 2);
    EXPECT_GT(hottest.tempC, hot.layerMeanC(1));
}

TEST(ThermalSolver, LargeStepsAreSubsteppedStably)
{
    const telemetry::ThermalParams p = solverParams();
    telemetry::ThermalGrid grid(4, 4, 2, p);
    const double watts = 0.05;
    const auto power = uniformPower(4, 4, 2, watts);

    // One giant step; explicit Euler would explode without the
    // internal substepping (dt >> C / Gmax).
    grid.step(power, 0.01);
    EXPECT_GT(grid.substepsTaken(), 100u);

    const double expected = p.ambientC + watts / p.sinkWPerK;
    for (int layer = 0; layer < 2; ++layer) {
        EXPECT_GE(grid.layerMaxC(layer), p.ambientC);
        EXPECT_LE(grid.layerMaxC(layer), expected * 1.001);
    }
}

// ------------------------------------------- probe in isolation

void
expectSameEnergy(const telemetry::EnergyBreakdown &a,
                 const telemetry::EnergyBreakdown &b)
{
    EXPECT_EQ(a.cacheDynamicUJ, b.cacheDynamicUJ);
    EXPECT_EQ(a.cacheLeakageUJ, b.cacheLeakageUJ);
    EXPECT_EQ(a.netDynamicUJ, b.netDynamicUJ);
    EXPECT_EQ(a.netLeakageUJ, b.netLeakageUJ);
    EXPECT_EQ(a.retryWriteUJ, b.retryWriteUJ);
    EXPECT_EQ(a.retransmitFlitUJ, b.retransmitFlitUJ);
}

TEST(EnergyProbe, PricesScriptedSamplersThroughTheModel)
{
    const telemetry::EnergyModel model =
        system::energyModel(mem::CacheTech::SttRam);
    // One router on layer 0 and one bank on layer 1 of a 2x1 grid;
    // the samplers return these scripted cumulative counters.
    telemetry::EnergyEvents router, bank;
    telemetry::EnergyProbe probe(2, 1, 2, model, 100);
    probe.addRouter(0, 0, 0, [&] { return router; });
    probe.addBank(1, 0, 1, [&] { return bank; });

    // Warm-up activity, sampled in warm-up frames and after the last
    // of them, must not be charged once onReset rebases the counters.
    probe.onWarmupBegin(0);
    router.flitsSwitched = 1000;
    bank.bankWrites = 50;
    for (Cycle c = 0; c < 250; ++c)
        probe.onCycle(c);
    router.flitsBuffered = 7;
    bank.retryRounds = 3;
    probe.onReset(250);
    EXPECT_TRUE(probe.frames().empty());
    EXPECT_EQ(probe.totals().totalUJ(), 0.0);

    // Measured window [250, 410): a full frame [250, 349] and a
    // 60-cycle tail [350, 409] that finalize() closes.
    const telemetry::EnergyEvents r0 = router, b0 = bank;
    router.flitsBuffered += 40;
    router.flitsSwitched += 30;
    router.flitsRetransmitted += 2;
    bank.bankReads += 10;
    bank.bankWrites += 4;
    bank.retryRounds += 1;
    for (Cycle c = 250; c < 350; ++c)
        probe.onCycle(c);
    const telemetry::EnergyEvents r1 = router, b1 = bank;
    router.flitsSwitched += 5;
    bank.bankReads += 3;
    for (Cycle c = 350; c < 410; ++c)
        probe.onCycle(c);
    probe.finalize(410);
    ASSERT_EQ(probe.frames().size(), 2u);

    // Hand-priced first frame from the shipped constants: 100 cycles
    // at 3 GHz; Orion-style router energies, Table 2 STT-RAM bank.
    const double span = 100 / 3e9;
    const telemetry::PowerFrame &f0 = probe.frames()[0];
    EXPECT_EQ(f0.start, Cycle{250});
    EXPECT_EQ(f0.end, Cycle{349});
    EXPECT_DOUBLE_EQ(f0.spanSeconds, span);
    EXPECT_NEAR(f0.energy.netDynamicUJ,
                (40 * 0.012 + 30 * (0.010 + 0.015 + 0.001 + 0.017)) *
                    1e-3,
                1e-15);
    EXPECT_NEAR(f0.energy.netLeakageUJ, 5.0e-3 * span * 1e6, 1e-15);
    EXPECT_NEAR(f0.energy.retransmitFlitUJ, 2 * 0.055 * 1e-3, 1e-15);
    EXPECT_NEAR(f0.energy.cacheDynamicUJ,
                (10 * 0.278 + 4 * 0.765) * 1e-3, 1e-15);
    EXPECT_NEAR(f0.energy.cacheLeakageUJ, 190.5e-3 * span * 1e6, 1e-15);
    EXPECT_NEAR(f0.energy.retryWriteUJ, 1 * 0.4 * 1e-3, 1e-15);

    // Every frame's split is exactly charge() of its deltas, and its
    // cells hold each site's energy over the frame's span.
    const telemetry::EnergyEvents ends[][2] = {{r1, b1}, {router, bank}};
    telemetry::EnergyEvents rb = r0, bb = b0;
    telemetry::EnergyBreakdown sum;
    for (std::size_t i = 0; i < 2; ++i) {
        const telemetry::PowerFrame &f = probe.frames()[i];
        const Cycle cycles = f.end - f.start + 1;
        const telemetry::EnergyBreakdown re =
            model.charge(ends[i][0] - rb, 0, 1, cycles);
        const telemetry::EnergyBreakdown be =
            model.charge(ends[i][1] - bb, 1, 0, cycles);
        telemetry::EnergyBreakdown expect = re;
        expect += be;
        expectSameEnergy(f.energy, expect);
        sum += f.energy;
        rb = ends[i][0];
        bb = ends[i][1];

        EXPECT_NEAR(f.powerW[0][0], re.totalUJ() * 1e-6 / f.spanSeconds,
                    1e-12);
        EXPECT_NEAR(f.powerW[1][1], be.totalUJ() * 1e-6 / f.spanSeconds,
                    1e-12);
        EXPECT_EQ(f.powerW[0][1], 0.0);
        EXPECT_EQ(f.powerW[1][0], 0.0);
        EXPECT_NEAR((f.powerW[0][0] + f.powerW[1][1]) * f.spanSeconds,
                    f.energy.totalUJ() * 1e-6, 1e-18);
    }
    EXPECT_EQ(probe.frames()[1].start, Cycle{350});
    EXPECT_EQ(probe.frames()[1].end, Cycle{409});
    expectSameEnergy(probe.totals(), sum);

    // finalize() is idempotent, and no frame follows it.
    probe.finalize(410);
    router.flitsSwitched += 100;
    for (Cycle c = 410; c < 700; ++c)
        probe.onCycle(c);
    probe.finalize(700);
    EXPECT_EQ(probe.frames().size(), 2u);
    expectSameEnergy(probe.totals(), sum);
}

// --------------------------------------------- streaming energy

system::SystemConfig
powerConfig(int threads = 1, const std::string &fault_spec = "")
{
    system::SystemConfig cfg;
    cfg.meshWidth = 4;
    cfg.meshHeight = 4;
    cfg.scenario = system::scenarios::sttram4TsbWb();
    cfg.apps = {"tpcc"};
    cfg.seed = 7;
    cfg.threads = threads;
    cfg.power = true;
    cfg.thermal = true;
    // A period that does not divide the run length, so the final
    // partial interval path is exercised on every run.
    cfg.powerPeriod = 192;
    if (!fault_spec.empty()) {
        std::string err;
        EXPECT_TRUE(fault::parseFaultSpec(fault_spec, cfg.faults, err))
            << err;
        cfg.faultsEnabled = cfg.faults.any();
    }
    return cfg;
}

TEST(EnergyProbe, StreamingSumReconcilesWithComputeEnergy)
{
    noc::resetPacketIds();
    system::CmpSystem sys(powerConfig());
    sys.warmup(1000);
    sys.run(5000);
    sys.finalizeTelemetry();

    const telemetry::EnergyProbe &p = *sys.power();
    const system::EnergyBreakdown e = sys.metrics().energy;

    auto rel = [](double a, double b) {
        const double base = std::max(std::abs(a), std::abs(b));
        return base > 0.0 ? std::abs(a - b) / base : 0.0;
    };
    EXPECT_LT(rel(p.totals().cacheDynamicUJ, e.cacheDynamicUJ), 1e-6);
    EXPECT_LT(rel(p.totals().cacheLeakageUJ, e.cacheLeakageUJ), 1e-6);
    EXPECT_LT(rel(p.totals().netDynamicUJ, e.netDynamicUJ), 1e-6);
    EXPECT_LT(rel(p.totals().netLeakageUJ, e.netLeakageUJ), 1e-6);
    EXPECT_LT(rel(p.totals().totalUJ(), e.totalUJ()), 1e-6);
    EXPECT_GT(p.totals().totalUJ(), 0.0);

    // The retained frames tile the measured window: first frame
    // starts at warm-up end, spans are contiguous, and the per-frame
    // splits sum back to the streaming totals.
    ASSERT_FALSE(p.frames().empty());
    EXPECT_EQ(p.frames().front().start, Cycle{1000});
    double frame_sum = 0.0;
    Cycle expect_start = 1000;
    for (const telemetry::PowerFrame &f : p.frames()) {
        EXPECT_EQ(f.start, expect_start);
        expect_start = f.end + 1;
        frame_sum += f.energy.totalUJ();
        ASSERT_EQ(f.powerW.size(), 2u);
        ASSERT_EQ(f.powerW[0].size(), 16u);
    }
    EXPECT_EQ(expect_start, Cycle{6000});
    EXPECT_LT(rel(frame_sum, p.totals().totalUJ()), 1e-9);

    // finalize() is idempotent.
    sys.finalizeTelemetry();
    EXPECT_LT(rel(p.totals().totalUJ(), e.totalUJ()), 1e-6);
}

TEST(EnergyProbe, FaultyRunReportsStrictlyMoreEnergy)
{
    const char *spec =
        "stt_write_ber=0.3,stt_write_retries=4,link_flit_ber=2e-4";

    // A low-MPKI workload keeps the banks far from saturation, so the
    // retry rounds and retransmissions run in otherwise-idle slots and
    // the fault-free twin serves essentially the same demand. (Under a
    // bank-saturating workload the closed-loop throughput loss can
    // shed more dynamic energy than the recovery work adds — deferred
    // work, not an accounting gap.)
    auto twin = [](const std::string &fault_spec) {
        noc::resetPacketIds();
        system::SystemConfig cfg = powerConfig(1, fault_spec);
        cfg.apps = {"swaptions"};
        return cfg;
    };
    system::CmpSystem clean(twin(""));
    clean.warmup(1000);
    clean.run(6000);
    clean.finalizeTelemetry();

    system::CmpSystem faulty(twin(spec));
    faulty.warmup(1000);
    faulty.run(6000);
    faulty.finalizeTelemetry();

    // The fault campaign actually produced recovery work...
    ASSERT_GT(faulty.power()->totals().retryWriteUJ, 0.0);
    ASSERT_GT(faulty.power()->totals().retransmitFlitUJ, 0.0);
    EXPECT_EQ(clean.power()->totals().retryWriteUJ, 0.0);
    EXPECT_EQ(clean.power()->totals().retransmitFlitUJ, 0.0);

    // ...and both accounting paths price it in.
    EXPECT_GT(faulty.power()->totals().totalUJ(),
              clean.power()->totals().totalUJ());
    const system::EnergyBreakdown ef = faulty.metrics().energy;
    const system::EnergyBreakdown ec = clean.metrics().energy;
    EXPECT_GT(ef.retryWriteUJ, 0.0);
    EXPECT_GT(ef.retransmitFlitUJ, 0.0);
    EXPECT_EQ(ec.retryWriteUJ, 0.0);
    EXPECT_GT(ef.totalUJ(), ec.totalUJ());

    // The faulty run's streaming sum reconciles too (retry rounds and
    // retransmitted flits flow through per-site deltas on one side and
    // the fault-injector counters on the other).
    const double base = std::max(ef.totalUJ(),
                                 faulty.power()->totals().totalUJ());
    EXPECT_LT(
        std::abs(faulty.power()->totals().totalUJ() - ef.totalUJ()) / base,
        1e-6);
}

// One canonical dump of everything downstream consumers read, at full
// precision, so thread counts can be compared for bit-identity.
std::string
telemetryDigest(const system::CmpSystem &sys)
{
    std::ostringstream os;
    os << std::hexfloat;
    const telemetry::EnergyProbe &p = *sys.power();
    const telemetry::EnergyBreakdown &e = p.totals();
    os << "totals " << e.cacheDynamicUJ << ' ' << e.cacheLeakageUJ << ' '
       << e.netDynamicUJ << ' ' << e.netLeakageUJ << ' ' << e.retryWriteUJ
       << ' ' << e.retransmitFlitUJ << '\n';
    for (const telemetry::PowerFrame &f : p.frames()) {
        os << "P " << f.start << ' ' << f.end;
        for (const auto &grid : f.powerW)
            for (const double v : grid)
                os << ' ' << v;
        os << '\n';
    }
    const telemetry::ThermalProbe &t = *sys.thermal();
    os << "peak " << t.peakC() << '\n';
    for (const telemetry::ThermalFrame &f : t.frames()) {
        os << "T " << f.start << ' ' << f.end << ' '
           << f.hottest.layer << ' ' << f.hottest.x << ' '
           << f.hottest.y << ' ' << f.hottest.tempC;
        for (const auto &grid : f.tempC)
            for (const double v : grid)
                os << ' ' << v;
        os << '\n';
    }
    for (const auto &hb : t.hotBanks(8))
        os << "H " << hb.bank << ' ' << hb.tempC << '\n';
    return os.str();
}

TEST(EnergyProbe, BitIdenticalAcrossEngineThreadCounts)
{
    auto digest = [](int threads) {
        noc::resetPacketIds();
        system::CmpSystem sys(powerConfig(threads));
        sys.warmup(500);
        sys.run(4000);
        sys.finalizeTelemetry();
        return telemetryDigest(sys);
    };
    const std::string t1 = digest(1);
    EXPECT_EQ(t1, digest(2)) << "threads=2";
    EXPECT_EQ(t1, digest(4)) << "threads=4";
}

TEST(EnergyProbe, ObserverOnlyDigestIdentity)
{
    // Simulation results must be bit-identical with the probes on or
    // off: same committed instructions, same network counters.
    auto run = [](bool power_on) {
        noc::resetPacketIds();
        system::SystemConfig cfg = powerConfig(2);
        cfg.power = power_on;
        cfg.thermal = power_on;
        system::CmpSystem sys(cfg);
        sys.warmup(500);
        sys.run(4000);
        std::ostringstream os;
        sys.dumpStats(os);
        return os.str();
    };
    EXPECT_EQ(run(false), run(true));
}

TEST(ThermalProbe, RecordsFramesAndRanksHotBanks)
{
    noc::resetPacketIds();
    system::CmpSystem sys(powerConfig(1));
    sys.warmup(1000);
    sys.run(5000);
    sys.finalizeTelemetry();

    const telemetry::ThermalProbe &t = *sys.thermal();
    ASSERT_FALSE(t.frames().empty());
    EXPECT_EQ(t.frames().size(), sys.power()->frames().size());

    const double ambient = t.grid().params().ambientC;
    EXPECT_GT(t.peakC(), ambient);
    for (const telemetry::ThermalFrame &f : t.frames()) {
        ASSERT_EQ(f.tempC.size(), 2u);
        ASSERT_EQ(f.layerMaxC.size(), 2u);
        for (int layer = 0; layer < 2; ++layer) {
            EXPECT_GE(f.layerMaxC[static_cast<std::size_t>(layer)],
                      ambient);
            EXPECT_GE(f.layerMaxC[static_cast<std::size_t>(layer)],
                      f.layerMeanC[static_cast<std::size_t>(layer)]);
        }
    }

    const auto ranked = t.hotBanks(8);
    ASSERT_EQ(ranked.size(), 8u);
    for (std::size_t i = 1; i < ranked.size(); ++i)
        EXPECT_GE(ranked[i - 1].tempC, ranked[i].tempC);
    // Banks live on the cache layer.
    for (const auto &hb : ranked)
        EXPECT_EQ(hb.layer, 1);
}

} // namespace
} // namespace stacknoc
