/**
 * @file
 * Figure 14 / Section 4.4: the network-level WB scheme versus the Sun
 * et al. per-bank 20-entry SRAM write buffer with read preemption
 * (BUFF-20), plus the "+1 VC" network-resource variant. Reports the
 * uncore latency (L1-miss round trip through the network, bank and
 * back) normalised to plain STT-RAM with no write buffering.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "system/run_spec.hh"
#include "workload/app_profiles.hh"

using namespace stacknoc;

int
main()
{
    setVerbose(false);
    const bench::BenchEnv e = bench::env();
    bench::banner("Figure 14: WB scheme vs BUFF-20 write buffering "
                  "(normalised uncore latency; lower is better)", e);

    const std::vector<system::Scenario> scenarios{
        system::scenarios::sttram64Tsb(),   // STT-RAM, no buffering
        system::scenarios::sttramBuff20(),  // BUFF-20
        system::scenarios::sttram4TsbWb(),  // the WB scheme
        system::scenarios::sttram4TsbWbPlus1Vc(),
    };

    std::printf("%-16s", "workload");
    for (const auto &sc : scenarios)
        bench::printHeader(sc.name);
    bench::endRow();
    bench::printRule(16 + 10 * 4);

    auto run_row = [&](const std::string &label,
                       const std::vector<std::string> &apps) {
        bench::printLabel(label);
        double base = 0.0;
        for (std::size_t s = 0; s < scenarios.size(); ++s) {
            const auto r = bench::runOne(scenarios[s], apps, e);
            if (s == 0)
                base = r.uncoreLatency;
            bench::printCell(base > 0 ? r.uncoreLatency / base : 0.0);
        }
        bench::endRow();
    };

    // AVG-42: one app per core, round-robin over the full Table 3 set.
    std::vector<std::string> all;
    for (const auto &a : workload::appTable())
        all.push_back(a.name);
    run_row("AVG-42", system::expandApps(all, 64));

    for (const char *app : {"tpcc", "sjas", "streamcluster", "lbm"})
        run_row(app, {app});

    std::printf("\nPaper: BUFF-20 cuts uncore latency ~12.5%% on "
                "average; the WB scheme ~18.5%% (6%% better on bursty "
                "apps); +1 VC adds another ~1.6%% at 97%% less area "
                "than the write buffers.\n");
    return 0;
}
