/**
 * @file
 * Unit tests for the simulation kernel: channels, simulator, statistics.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <thread>
#include <vector>

#include "sim/channel.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"

namespace stacknoc {
namespace {

TEST(Channel, LatencyOne)
{
    Channel<int> ch(1, 8);
    ch.push(10, 7);
    EXPECT_FALSE(ch.receive(10).has_value());
    auto v = ch.receive(11);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 7);
    EXPECT_FALSE(ch.receive(12).has_value());
}

TEST(Channel, LatencyThree)
{
    Channel<int> ch(3, 8);
    ch.push(0, 1);
    EXPECT_FALSE(ch.ready(2));
    EXPECT_TRUE(ch.ready(3));
    EXPECT_EQ(*ch.receive(3), 1);
}

TEST(Channel, FifoOrder)
{
    Channel<int> ch(1, 8);
    ch.push(0, 1);
    ch.push(0, 2);
    ch.push(1, 3);
    EXPECT_EQ(*ch.receive(1), 1);
    EXPECT_EQ(*ch.receive(1), 2);
    EXPECT_FALSE(ch.receive(1).has_value());
    EXPECT_EQ(*ch.receive(2), 3);
}

TEST(Channel, LateReceiveStillDelivers)
{
    Channel<int> ch(1, 8);
    ch.push(0, 9);
    EXPECT_EQ(*ch.receive(100), 9);
}

class CountingComponent : public Ticking
{
  public:
    CountingComponent() : Ticking("counter") {}
    void tick(Cycle now) override
    {
        ++ticks;
        lastCycle = now;
    }
    int ticks = 0;
    Cycle lastCycle = 0;
};

TEST(Simulator, TicksComponents)
{
    Simulator sim;
    CountingComponent a, b;
    sim.add(&a);
    sim.add(&b);
    sim.run(10);
    EXPECT_EQ(a.ticks, 10);
    EXPECT_EQ(b.ticks, 10);
    EXPECT_EQ(a.lastCycle, 9u);
    EXPECT_EQ(sim.now(), 10u);
}

TEST(Simulator, CycleEndCallback)
{
    Simulator sim;
    CountingComponent a;
    sim.add(&a);
    int calls = 0;
    sim.onCycleEnd([&](Cycle) { ++calls; });
    sim.run(5);
    EXPECT_EQ(calls, 5);
}

TEST(Stats, Counter)
{
    stats::Group g("g");
    auto &c = g.counter("x");
    c.inc();
    c.inc(4);
    EXPECT_EQ(g.counter("x").value(), 5u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, CounterIdentityByName)
{
    stats::Group g("g");
    g.counter("x").inc(3);
    EXPECT_EQ(g.counter("x").value(), 3u);
    EXPECT_EQ(g.counter("y").value(), 0u);
}

TEST(Stats, Average)
{
    stats::Group g("g");
    auto &a = g.average("lat");
    a.sample(10);
    a.sample(20);
    EXPECT_DOUBLE_EQ(a.mean(), 15.0);
    EXPECT_EQ(a.count(), 2u);
}

TEST(Stats, DistributionPaperBins)
{
    // The Figure-3 binning: [0,16) [16,33) [33,66) [66,99) [99,132)
    // [132,165) and 165+.
    stats::Distribution d({16, 33, 66, 99, 132, 165});
    EXPECT_EQ(d.numBins(), 7u);
    d.sample(0);
    d.sample(15);
    d.sample(16);
    d.sample(32);
    d.sample(33);
    d.sample(164);
    d.sample(165);
    d.sample(1000);
    EXPECT_EQ(d.binCount(0), 2u);
    EXPECT_EQ(d.binCount(1), 2u);
    EXPECT_EQ(d.binCount(2), 1u);
    EXPECT_EQ(d.binCount(5), 1u);
    EXPECT_EQ(d.binCount(6), 2u);
    EXPECT_EQ(d.total(), 8u);
    EXPECT_DOUBLE_EQ(d.binFraction(0), 0.25);
    EXPECT_EQ(d.binLabel(0), "[0,16)");
    EXPECT_EQ(d.binLabel(6), "165+");
}

TEST(Stats, GroupDumpContainsNames)
{
    stats::Group g("net");
    g.counter("flits").inc(2);
    g.average("lat").sample(3);
    std::ostringstream os;
    g.dump(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("net.flits 2"), std::string::npos);
    EXPECT_NE(s.find("net.lat"), std::string::npos);
}

TEST(Stats, GroupReset)
{
    stats::Group g("g");
    g.counter("c").inc(5);
    g.average("a").sample(1);
    auto &d = g.distribution("d", {10});
    d.sample(3);
    g.reset();
    EXPECT_EQ(g.counter("c").value(), 0u);
    EXPECT_EQ(g.average("a").count(), 0u);
    EXPECT_EQ(d.total(), 0u);
}

TEST(Stats, DistributionWeightedSamples)
{
    stats::Distribution d({10, 20});
    d.sample(5, 3);
    d.sample(15, 2);
    EXPECT_EQ(d.total(), 5u);
    EXPECT_EQ(d.binCount(0), 3u);
    EXPECT_EQ(d.binCount(1), 2u);
    EXPECT_DOUBLE_EQ(d.binFraction(0), 0.6);
}

TEST(Stats, ConcurrentUpdatesAreExact)
{
    // Four threads with concurrent updates on hammer one shared stat of
    // each kind, as the sharded engine's workers do; every count, sum,
    // bin and extreme must come out exact.
    constexpr int kThreads = 4;
    constexpr std::uint64_t kIters = 20000;
    stats::Counter c;
    stats::Average a;
    stats::Distribution d({10, 100});
    stats::Histogram h;

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            stats::setConcurrentUpdates(true);
            for (std::uint64_t i = 0; i < kIters; ++i) {
                const std::uint64_t v = t * kIters + i;
                c.inc(2);
                a.sample(v);
                d.sample(v % 200);
                h.sample(v, 1 + i % 2);
            }
            stats::setConcurrentUpdates(false);
        });
    }
    for (auto &th : threads)
        th.join();

    constexpr std::uint64_t n = kThreads * kIters;
    const std::uint64_t sum = n * (n - 1) / 2; // 0 + 1 + ... + n-1
    EXPECT_EQ(c.value(), 2 * n);
    EXPECT_EQ(a.count(), n);
    EXPECT_EQ(a.sum(), static_cast<double>(sum));
    EXPECT_EQ(d.total(), n);
    EXPECT_EQ(d.binCount(0), n / 200 * 10);
    EXPECT_EQ(d.binCount(1), n / 200 * 90);
    EXPECT_EQ(d.binCount(2), n / 200 * 100);

    // Odd i carries weight 2, so the odd values count twice.
    std::uint64_t odd_sum = 0;
    for (std::uint64_t v = 1; v < n; v += 2)
        odd_sum += v;
    EXPECT_EQ(h.count(), n + n / 2);
    EXPECT_EQ(h.sum(), sum + odd_sum);
    EXPECT_EQ(h.minValue(), 0u);
    EXPECT_EQ(h.maxValue(), n - 1);
    std::uint64_t buckets = 0;
    for (std::size_t i = 0; i < stats::Histogram::kNumBuckets; ++i)
        buckets += h.bucketCount(i);
    EXPECT_EQ(buckets, h.count());
    EXPECT_EQ(h.bucketCount(1), 2u); // the value 1, weight 2
}

TEST(Stats, DistributionBadEdgesPanic)
{
    EXPECT_DEATH(stats::Distribution({10, 10}),
                 "strictly increasing");
}

TEST(Channel, ZeroLatencyPanics)
{
    EXPECT_DEATH(Channel<int>(0, 8), "latency must be");
}

TEST(Channel, StressInterleavedPushReceive)
{
    Channel<int> ch(2, 8);
    int received = 0, sent = 0;
    for (Cycle t = 0; t < 1000; ++t) {
        if (t % 3 == 0) {
            ch.push(t, static_cast<int>(t));
            ++sent;
        }
        while (auto v = ch.receive(t)) {
            // FIFO and latency: value pushed at *v arrives at *v + 2.
            EXPECT_EQ(static_cast<Cycle>(*v) + 2, t);
            ++received;
        }
    }
    EXPECT_GT(received, 300);
    EXPECT_EQ(ch.inFlight(), static_cast<std::size_t>(sent - received));
}

TEST(Channel, InFlightExcludesSameCyclePushes)
{
    Channel<int> ch(2, 8);
    ch.push(4, 1);
    ch.push(5, 2);
    ch.push(5, 3);
    // During cycle 5 the receiver may count only the cycle-4 push: the
    // cycle-5 ones could be racing in from another thread.
    EXPECT_EQ(ch.inFlight(5), 1u);
    EXPECT_EQ(ch.inFlight(6), 3u);
    EXPECT_EQ(ch.inFlight(), 3u);
    EXPECT_EQ(*ch.receive(6), 1);
    EXPECT_EQ(ch.inFlight(6), 2u);
    EXPECT_EQ(ch.inFlight(5), 0u);
}

TEST(Channel, PushPastCapacityPanics)
{
    // The capacity is the proven bound, not the power-of-two ring size.
    Channel<int> ch(1, 3);
    EXPECT_EQ(ch.capacity(), 3u);
    for (int i = 0; i < 3; ++i)
        ch.push(0, i);
    EXPECT_DEATH(ch.push(0, 3), "Channel overflow");
    // Receiving frees room again.
    EXPECT_EQ(*ch.receive(1), 0);
    ch.push(1, 3);
    EXPECT_EQ(ch.inFlight(), 3u);
}

/**
 * The SPSC contract across threads: a sender and a receiver thread step
 * cycles in lockstep over a spin barrier, the sender pushing a varying
 * number of values each cycle. Every value must arrive exactly at push
 * + latency, in push order, however the two threads interleave within
 * a cycle. Under ThreadSanitizer this also checks that the tail's
 * release/acquire pair publishes each slot.
 */
TEST(Channel, TwoThreadLockstepDeliversAtPushPlusLatency)
{
    constexpr Cycle kCycles = 20000;
    for (const Cycle latency : {Cycle{1}, Cycle{2}}) {
        Channel<std::uint64_t> ch(latency, 8);
        std::atomic<std::uint64_t> arrived{0};
        // Cycle t ends when both threads have arrived 2(t + 1) times.
        const auto barrier = [&](Cycle t) {
            arrived.fetch_add(1, std::memory_order_acq_rel);
            while (arrived.load(std::memory_order_acquire) < 2 * (t + 1))
                std::this_thread::yield();
        };

        std::thread sender([&] {
            std::uint64_t seq = 0;
            for (Cycle t = 0; t < kCycles; ++t) {
                for (Cycle k = 0; k < t % 3; ++k)
                    ch.push(t, (t << 8) | (seq++ & 0xff));
                barrier(t);
            }
        });

        std::uint64_t expect = 0;
        std::uint64_t received = 0;
        bool ok = true;
        for (Cycle t = 0; t < kCycles; ++t) {
            while (auto v = ch.receive(t)) {
                ok = ok && (*v >> 8) + latency == t &&
                     (*v & 0xff) == (expect++ & 0xff);
                ++received;
            }
            barrier(t);
        }
        sender.join();
        EXPECT_TRUE(ok) << "latency " << latency;
        // Everything pushed more than `latency` cycles before the end.
        std::uint64_t pushed = 0;
        for (Cycle t = 0; t + latency < kCycles; ++t)
            pushed += t % 3;
        EXPECT_EQ(received, pushed) << "latency " << latency;
    }
}

} // namespace
} // namespace stacknoc
