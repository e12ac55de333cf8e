/**
 * @file
 * Idle-elision throughput micro-benchmark and CI perf smoke: runs the
 * same tpcc system twice — elision on and off (--no-elide semantics) —
 * and reports ticks/sec for both plus the active-set occupancy. With
 * --check, exits nonzero when the elision build is slower than the
 * full walk beyond a tolerance, so a regression that makes the skip
 * machinery cost more than the skipped ticks fails CI.
 *
 * Usage: bench_ticks [--cycles N] [--warmup N] [--scenario NAME]
 *                    [--threads N] [--check] [--tolerance F]
 */

#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "common/cli.hh"
#include "common/logging.hh"
#include "noc/packet.hh"
#include "system/cmp_system.hh"

using namespace stacknoc;

namespace {

struct Result
{
    double ticksPerSec = 0.0;
    double activeFraction = 1.0;
    double wallSeconds = 0.0;
};

Result
measure(const system::Scenario &scenario, Cycle warmup, Cycle cycles,
        int threads, bool elide)
{
    noc::resetPacketIds();
    system::SystemConfig cfg;
    cfg.meshWidth = 4;
    cfg.meshHeight = 4;
    cfg.scenario = scenario;
    cfg.apps = {"tpcc"};
    cfg.seed = 1;
    cfg.threads = threads;
    cfg.elide = elide;
    system::CmpSystem sys(cfg);
    sys.warmup(warmup);
    sys.run(cycles);
    Result r;
    r.ticksPerSec = sys.ticksPerSecond();
    r.activeFraction = sys.engineActiveFraction();
    r.wallSeconds = sys.wallSeconds();
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    Cycle cycles = 20000, warmup = 2000;
    system::Scenario scenario = system::scenarios::sttram4TsbWb();
    int threads = 1;
    bool check = false;
    double tolerance = 0.05;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto need = [&](int at) {
            fatal_if(at + 1 >= argc, "%s needs a value", argv[at]);
            return argv[at + 1];
        };
        // An integer flag's value, in [lo, max], or exit 2.
        const auto num = [&](const char *flag, auto lo) {
            return cli::parseInt("bench_ticks", flag, need(i++), lo,
                                 std::numeric_limits<decltype(lo)>::max());
        };
        if (arg == "--cycles") {
            cycles = num("--cycles", Cycle{1});
        } else if (arg == "--warmup") {
            warmup = num("--warmup", Cycle{0});
        } else if (arg == "--scenario") {
            if (!system::scenarios::byName(need(i), scenario)) {
                std::fprintf(stderr,
                             "bench_ticks: unknown scenario '%s' "
                             "(known: %s)\n",
                             need(i), system::scenarios::knownNames());
                return 2;
            }
            ++i;
        } else if (arg == "--threads") {
            threads = num("--threads", 1);
        } else if (arg == "--check") {
            check = true;
        } else if (arg == "--tolerance") {
            tolerance = cli::parseNumber("bench_ticks", "--tolerance",
                                         need(i), 0.0);
            ++i;
        } else {
            std::fprintf(stderr, "bench_ticks: unknown option '%s'\n",
                         arg.c_str());
            return 2;
        }
    }

    // Full walk first so caches are equally warm for the elision leg.
    const Result off =
        measure(scenario, warmup, cycles, threads, false);
    const Result on = measure(scenario, warmup, cycles, threads, true);

    const double speedup =
        off.ticksPerSec > 0.0 ? on.ticksPerSec / off.ticksPerSec : 0.0;
    std::printf("bench_ticks scenario=%s threads=%d cycles=%llu\n",
                scenario.name.c_str(), threads,
                static_cast<unsigned long long>(cycles));
    std::printf("  no-elide: %.0f ticks/s (wall %.3fs)\n",
                off.ticksPerSec, off.wallSeconds);
    std::printf("  elide:    %.0f ticks/s (wall %.3fs, "
                "active_fraction %.3f)\n",
                on.ticksPerSec, on.wallSeconds, on.activeFraction);
    std::printf("  speedup:  %.2fx\n", speedup);

    if (check && speedup < 1.0 - tolerance) {
        std::fprintf(stderr,
                     "bench_ticks: FAIL — elision build is %.1f%% "
                     "slower than --no-elide (tolerance %.1f%%)\n",
                     (1.0 - speedup) * 100.0, tolerance * 100.0);
        return 1;
    }
    return 0;
}
