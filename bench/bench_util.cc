#include "bench_util.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>

#include "common/cli.hh"
#include "server/client.hh"
#include "server/protocol.hh"
#include "system/run_spec.hh"
#include "system/stats_export.hh"

namespace stacknoc::bench {

namespace {

/** Integer knob @p name from the environment, @p fallback when unset
 *  or empty. Anything but a whole integer in [@p lo, @p hi] exits 2
 *  with one line naming the variable. */
template <class T>
T
envInt(const char *name, T fallback, T lo,
       T hi = std::numeric_limits<T>::max())
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    return cli::parseInt(program_invocation_short_name, name, v, lo, hi);
}

} // namespace

BenchEnv
env()
{
    BenchEnv e;
    e.warmup = envInt<Cycle>("STTNOC_WARMUP", 3000, 0);
    e.measure = envInt<Cycle>("STTNOC_CYCLES", 20000, 1);
    e.case3Mixes = envInt("STTNOC_MIXES", 4, 1);
    e.seed = envInt<std::uint64_t>("STTNOC_SEED", 1, 0);
    e.appCap = envInt("STTNOC_APPS", 0, 0);
    if (const char *p = std::getenv("STTNOC_JSON"); p && *p)
        e.jsonPath = p;
    if (const char *p = std::getenv("STTNOC_SERVER"); p && *p)
        e.serverSocket = p;
    return e;
}

std::vector<std::string>
capApps(std::vector<std::string> apps, const BenchEnv &e)
{
    if (e.appCap > 0 && static_cast<int>(apps.size()) > e.appCap)
        apps.resize(static_cast<std::size_t>(e.appCap));
    return apps;
}

namespace {

/**
 * Submit one run to the campaign server (STTNOC_SERVER). Fills only
 * the headline RunResult fields from the result payload. @return false
 * when the caller should simulate in-process instead: connection or
 * protocol failure, or a scenario the wire protocol cannot express.
 */
bool
runOneViaServer(const system::Scenario &scenario,
                const std::vector<std::string> &apps, const BenchEnv &e,
                RunResult &r)
{
    system::RunSpec spec;
    spec.scenario = scenario.name;
    spec.apps = apps;
    spec.seed = e.seed;
    spec.warmup = e.warmup;
    spec.cycles = e.measure;

    // The server rebuilds scenarios by name; a harness that customised
    // the named design point must simulate in-process.
    system::Scenario named;
    if (!system::scenarios::byName(scenario.name, named) ||
        named != scenario)
        return false;

    server::Connection conn;
    std::string err;
    if (!conn.connectTo(e.serverSocket, err)) {
        std::fprintf(stderr, "bench: %s\n", err.c_str());
        return false;
    }
    if (!conn.sendLine(server::runCommand(spec), err))
        return false;

    std::string line;
    while (conn.readLine(line, err)) {
        std::string perr;
        const auto doc = telemetry::JsonValue::parse(line, &perr);
        if (!doc || !doc->isObject())
            continue;
        const auto *ev = doc->find("event");
        const std::string kind =
            ev != nullptr && ev->isString() ? ev->asString() : "";
        if (kind == "error") {
            const auto *reason = doc->find("reason");
            std::fprintf(stderr, "bench: server error: %s\n",
                         reason != nullptr && reason->isString()
                             ? reason->asString().c_str()
                             : "?");
            return false;
        }
        if (kind != "result")
            continue;
        const auto *data = doc->find("data");
        if (data == nullptr || !data->isObject())
            return false;
        const auto num = [&](const char *key) {
            const auto *v = data->find(key);
            return v != nullptr && v->isNumber() ? v->asDouble() : 0.0;
        };
        r = RunResult{};
        r.minIpc = num("min_ipc");
        r.meanIpc = num("mean_ipc");
        r.instructionThroughput = num("instruction_throughput");
        r.netLatency = num("avg_network_latency");
        r.queueLatency = num("avg_bank_queue_latency");
        r.uncoreLatency = num("avg_uncore_latency");
        r.energyUJ = num("total_energy_uj");
        return true;
    }
    return false;
}

} // namespace

RunResult
runOne(const system::Scenario &scenario,
       const std::vector<std::string> &apps, const BenchEnv &e,
       const std::function<void(system::SystemConfig &)> &mutate)
{
    // A mutate hook changes the config in ways a server request cannot
    // carry, so those runs always simulate in-process.
    if (!e.serverSocket.empty() && !mutate) {
        RunResult r;
        if (runOneViaServer(scenario, apps, e, r))
            return r;
        std::fprintf(stderr,
                     "bench: falling back to in-process run for %s\n",
                     scenario.name.c_str());
    }

    system::SystemConfig cfg;
    cfg.scenario = scenario;
    cfg.apps = apps;
    cfg.seed = e.seed;
    if (mutate)
        mutate(cfg);

    system::CmpSystem sys(cfg);
    sys.warmup(e.warmup);
    sys.run(e.measure);
    sys.finalizeTelemetry();

    RunResult r;
    r.metrics = sys.metrics();
    r.minIpc = r.metrics.minIpc();
    r.meanIpc = r.metrics.meanIpc();
    r.instructionThroughput = r.metrics.instructionThroughput();
    r.netLatency = r.metrics.avgNetworkLatency;
    r.queueLatency = r.metrics.avgBankQueueLatency;
    r.uncoreLatency = r.metrics.avgUncoreLatency;
    // Figure 8's energy is the end-of-run computeEnergy total on both
    // paths: the server's total_energy_uj is the same number.
    r.energyUJ = r.metrics.energy.totalUJ();

    if (const auto *gap =
            sys.cacheStats().findDistribution("gap_after_write")) {
        for (std::size_t b = 0; b < gap->numBins(); ++b)
            r.gapFractions.push_back(gap->binFraction(b));
    }
    if (sys.probe()) {
        for (int h = 1; h <= 3; ++h)
            r.reqAtHops[h] = sys.probe()->avgRequestsAtHops(h);
    }

    const double instrs = static_cast<double>(
        sys.coreStats().counter("instructions_committed").value());
    if (instrs > 0) {
        auto pki = [&](const char *counter_name) {
            return 1000.0 *
                   static_cast<double>(
                       sys.cacheStats().counter(counter_name).value()) /
                   instrs;
        };
        // Load misses plus no-allocate store writes: every one becomes
        // an L2 access, matching the paper's Table 3 accounting.
        r.l1mpki = pki("l1_misses") + pki("l1_store_writes");
        r.l2rpki = pki("l2_gets");
        r.l2wpki = pki("l2_stores");
        r.wbpki = pki("l2_putm");
        const double accesses = static_cast<double>(
            sys.cacheStats().counter("l2_gets").value() +
            sys.cacheStats().counter("l2_getm").value() +
            sys.cacheStats().counter("l2_stores").value());
        if (accesses > 0) {
            r.l2MissRatio =
                static_cast<double>(
                    sys.cacheStats().counter("l2_misses").value()) /
                accesses;
        }
    }

    // One compact JSON line per run, appended so a whole harness
    // invocation accumulates a JSONL log (see STTNOC_JSON).
    if (!e.jsonPath.empty()) {
        std::ofstream out(e.jsonPath, std::ios::app);
        if (out) {
            system::RunInfo info;
            info.scenario = scenario.name;
            for (const auto &a : apps) {
                if (!info.app.empty())
                    info.app += ",";
                info.app += a;
            }
            info.seed = e.seed;
            info.warmupCycles = e.warmup;
            info.measuredCycles = e.measure;
            system::writeJsonStats(out, sys, info);
        }
    }
    return r;
}

double
AloneIpcCache::aloneIpc(const system::Scenario &scenario,
                        const std::string &app)
{
    const auto key = std::make_pair(scenario.name, app);
    auto it = cache_.find(key);
    if (it != cache_.end())
        return it->second;
    const RunResult r = runOne(scenario, {app}, env_);
    cache_[key] = r.meanIpc;
    return r.meanIpc;
}

void
printRule(int width)
{
    for (int i = 0; i < width; ++i)
        std::putchar('-');
    std::putchar('\n');
}

void
printLabel(const std::string &label)
{
    std::printf("%-16s", label.c_str());
}

void
printCell(double value, int precision)
{
    std::printf(" %9.*f", precision, value);
}

void
printHeader(const std::string &name)
{
    std::printf(" %9s", name.size() > 9
                            ? name.substr(name.size() - 9).c_str()
                            : name.c_str());
}

void
endRow()
{
    std::putchar('\n');
}

void
banner(const std::string &title, const BenchEnv &e)
{
    std::printf("\n=== %s ===\n", title.c_str());
    std::printf("warmup=%llu cycles, measure=%llu cycles, seed=%llu\n",
                static_cast<unsigned long long>(e.warmup),
                static_cast<unsigned long long>(e.measure),
                static_cast<unsigned long long>(e.seed));
}

} // namespace stacknoc::bench
