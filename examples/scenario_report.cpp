/**
 * @file
 * Example: run one application on one design scenario and print a full
 * diagnostic report — per-core IPC, latency breakdown, bank utilisation,
 * coherence traffic, energy, and the STT-RAM-aware policy counters.
 *
 * Usage: scenario_report [scenario] [app] [cycles]
 *   scenario: any system::scenarios::byName name (default MRAM-4TSB-WB)
 *   app:      any Table 3 application name (default tpcc)
 *   cycles:   measured cycles (default 20000)
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "system/cmp_system.hh"
#include "workload/app_profiles.hh"

using namespace stacknoc;

namespace {

double
counterOf(const stats::Group &g, const char *name)
{
    const auto *c = g.findCounter(name);
    return c ? static_cast<double>(c->value()) : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    const std::string scenario_name = argc > 1 ? argv[1] : "MRAM-4TSB-WB";
    const std::string app = argc > 2 ? argv[2] : "tpcc";
    const Cycle cycles = argc > 3
        ? static_cast<Cycle>(std::strtoull(argv[3], nullptr, 10))
        : 20000;

    system::SystemConfig cfg;
    fatal_if(!system::scenarios::byName(scenario_name, cfg.scenario),
             "unknown scenario '%s' (known: %s)", scenario_name.c_str(),
             system::scenarios::knownNames());
    cfg.apps = {app};

    std::printf("scenario=%s app=%s (64 copies/threads), %llu cycles\n",
                cfg.scenario.name.c_str(), app.c_str(),
                static_cast<unsigned long long>(cycles));

    system::CmpSystem sys(cfg);
    sys.warmup(3000);
    sys.run(cycles);
    const auto m = sys.metrics();

    std::printf("\n-- performance --\n");
    std::printf("mean IPC            %8.3f\n", m.meanIpc());
    std::printf("slowest-core IPC    %8.3f\n", m.minIpc());
    std::printf("instr throughput    %8.2f\n", m.instructionThroughput());

    std::printf("\n-- latency (cycles) --\n");
    std::printf("packet network lat  %8.2f\n", m.avgNetworkLatency);
    std::printf("bank queue lat      %8.2f\n", m.avgBankQueueLatency);
    std::printf("L1 miss round trip  %8.2f\n", m.avgUncoreLatency);

    const auto &cache = sys.cacheStats();
    const double instrs = counterOf(sys.coreStats(),
                                    "instructions_committed");
    std::printf("\n-- L2 traffic (per kilo-instruction) --\n");
    std::printf("GetS  (reads)       %8.2f\n",
                1000.0 * counterOf(cache, "l2_gets") / instrs);
    std::printf("GetM  (write-fetch) %8.2f\n",
                1000.0 * counterOf(cache, "l2_getm") / instrs);
    std::printf("PutM  (writebacks)  %8.2f\n",
                1000.0 * counterOf(cache, "l2_putm") / instrs);
    std::printf("L2 miss ratio       %8.3f\n",
                counterOf(cache, "l2_misses") /
                    std::max(1.0, counterOf(cache, "l2_gets") +
                                      counterOf(cache, "l2_getm")));

    std::printf("\n-- banks --\n");
    const double bank_cycles =
        static_cast<double>(m.cycles) * sys.numBanks();
    std::printf("bank busy fraction  %8.3f\n",
                counterOf(cache, "bank_busy_cycles") / bank_cycles);
    std::printf("bank reads          %8.0f\n",
                counterOf(cache, "bank_reads"));
    std::printf("bank writes         %8.0f\n",
                counterOf(cache, "bank_writes"));

    std::printf("\n-- coherence --\n");
    std::printf("invalidations       %8.0f\n",
                counterOf(cache, "l2_invs_sent"));
    std::printf("recalls             %8.0f\n",
                counterOf(cache, "l2_recalls_sent"));
    std::printf("upgrades            %8.0f\n",
                counterOf(cache, "l1_upgrades"));

    if (sys.policy()) {
        const auto &p = sys.policy()->stats();
        std::printf("\n-- STT-RAM-aware policy --\n");
        std::printf("busy marks          %8.0f\n",
                    counterOf(p, "busy_marks"));
        std::printf("holds started       %8.0f\n",
                    counterOf(p, "holds_started"));
        std::printf("hold-cap releases   %8.0f\n",
                    counterOf(p, "hold_cap_releases"));
        if (const auto *d = p.findAverage("busy_duration"))
            std::printf("mean busy window    %8.2f\n", d->mean());
    }

    std::printf("\n-- uncore energy --\n");
    std::printf("cache dynamic (uJ)  %8.3f\n", m.energy.cacheDynamicUJ);
    std::printf("cache leakage (uJ)  %8.3f\n", m.energy.cacheLeakageUJ);
    std::printf("net dynamic (uJ)    %8.3f\n", m.energy.netDynamicUJ);
    std::printf("net leakage (uJ)    %8.3f\n", m.energy.netLeakageUJ);
    std::printf("total (uJ)          %8.3f\n", m.energy.totalUJ());
    return 0;
}
