/**
 * @file
 * Figure 3: distribution (in cycles) of accesses to an STT-RAM bank
 * following a write access to the same bank, binned exactly like the
 * paper ([0,16) [16,33) [33,66) [66,99) [99,132) [132,165) 165+), plus
 * the inset "#Req" — average request packets buffered in a cache-layer
 * router destined exactly two hops away.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "system/run_spec.hh"
#include "workload/app_profiles.hh"

using namespace stacknoc;

namespace {

void
runApp(const std::string &label, const std::vector<std::string> &apps,
       const bench::BenchEnv &e)
{
    // Figure 3 characterises the baseline with the region TSBs in place
    // (the setting whose two-hop windows the proposal exploits) but no
    // re-ordering.
    const auto r =
        bench::runOne(system::scenarios::sttram4Tsb(), apps, e);
    bench::printLabel(label);
    for (const double frac : r.gapFractions)
        std::printf(" %7.1f%%", 100.0 * frac);
    std::printf("  | %5.2f", r.reqAtHops[2]);
    // Fraction of accesses that land while the 33-cycle write is still
    // in service — the paper's "17% (up to 27%) can be delayed".
    if (r.gapFractions.size() >= 2) {
        std::printf("  | %5.1f%%",
                    100.0 * (r.gapFractions[0] + r.gapFractions[1]));
    }
    bench::endRow();
}

} // namespace

int
main()
{
    setVerbose(false);
    const bench::BenchEnv e = bench::env();
    bench::banner(
        "Figure 3: access gaps after a bank write + 2-hop router "
        "occupancy", e);
    std::printf("%-16s %8s %8s %8s %8s %8s %8s %8s  | %5s  | %6s\n", "app",
                "[0,16)", "[16,33)", "[33,66)", "[66,99)", "[99,132)",
                "[132,165)", "165+", "#Req", "<=33");
    bench::printRule(110);

    const std::vector<std::string> named{
        "ferret", "facesim", "streamcluster", "x264", "libquantum",
        "lbm", "sphinx", "hmmer", "sap", "sjas", "tpcc", "sjbb"};
    for (const auto &app : bench::capApps(named, e))
        runApp(app, {app}, e);

    // Suite averages: run a representative multi-programmed panel per
    // suite by assigning one suite app per core round-robin.
    for (const auto suite : {workload::Suite::Parsec,
                             workload::Suite::Spec,
                             workload::Suite::Server})
        runApp(workload::suiteName(suite),
               system::expandApps(workload::appsOfSuite(suite), 64), e);
    std::printf("\n#Req: mean request packets in an occupied cache-layer "
                "router destined exactly 2 hops away.\n<=33: accesses "
                "arriving within the 33-cycle write service (the "
                "paper reports 17%% average, up to 27%%).\n");
    return 0;
}
