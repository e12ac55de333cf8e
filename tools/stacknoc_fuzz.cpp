/**
 * @file
 * stacknoc_fuzz — randomized scenario fuzzing under the runtime
 * invariant checkers.
 *
 * Each run draws a random design point (regions, scheme, delay mode,
 * parent hops, technology, write buffer and depth, read priority, TSB
 * placement, admission caps, workload, duration, seed) from a master
 * seed, builds the system with every checker enabled, and simulates.
 * Any invariant violation fails the run; the fuzzer then bisects the
 * duration down to the shortest failing prefix and writes a replayable
 * key=value reproducer file.
 *
 *   stacknoc_fuzz                         # 50 runs from seed 1
 *   stacknoc_fuzz --runs 200 --seed 7
 *   stacknoc_fuzz --replay fuzz-fail-3.txt   # re-run a reproducer
 *   stacknoc_fuzz --faults --jobs 8       # fault campaign, 8 processes
 *
 * With --jobs N the case list is drawn up front (so it is identical
 * for any N) and dealt to N worker processes, each re-invoking this
 * binary on one case file; reproducer names are keyed by case index,
 * so the artifacts are deterministic too.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/cli.hh"
#include "common/logging.hh"
#include "noc/packet.hh"
#include "system/cmp_system.hh"
#include "system/run_spec.hh"

using namespace stacknoc;

namespace {

/** Engine threads for every fuzz run (--threads). */
int g_threads = 1;

/** Everything needed to rebuild one fuzz run exactly. */
struct FuzzCase
{
    int mesh = 4;
    int regions = 4;      //!< 0 = unrestricted vertical links
    std::string scheme = "ss"; //!< none | ss | rca | wb
    std::string delayMode = "priority"; //!< priority | hold
    int hops = 2;
    std::string tech = "sttram"; //!< sttram | sram
    std::string placement = "corner"; //!< corner | stagger
    bool writeBuffer = false;
    int writeBufferEntries = 20;
    bool readPriority = false;
    int requestCap = 8;
    int writeCap = 32;
    std::string apps = "tpcc";
    std::uint64_t seed = 1;
    Cycle warmup = 0;
    Cycle cycles = 4000;
    bool elide = true;     //!< idle-elision engine mode (--no-elide off)
    std::string faultSpec; //!< empty = no fault injection
};

/** Bounded fault campaign: write BER and link/TSB BER compositions
 *  high enough to exercise every recovery path in a ~4000-cycle run.
 *  Never router_stuck — a wedged router is a watchdog test, not a
 *  recovery one. */
std::string
drawFaultSpec(std::mt19937_64 &rng)
{
    static const char *const write_part[] = {
        "",
        "stt_write_ber=1e-3",
        "stt_write_ber=1e-2",
        "stt_write_ber=5e-2,stt_write_retries=2",
    };
    static const char *const link_part[] = {
        "",
        "link_flit_ber=2e-4",
        "tsb_flit_ber=2e-4",
        "link_flit_ber=5e-4,tsb_flit_ber=1e-4,flit_retries=2",
    };
    // Always two draws, so the master stream stays aligned whatever
    // the composition.
    const std::string w = write_part[rng() % 4];
    const std::string l = link_part[rng() % 4];
    std::string spec = w;
    if (!l.empty())
        spec += (spec.empty() ? "" : ",") + l;
    if (spec.empty())
        spec = "stt_write_ber=1e-3"; // a campaign always injects
    return spec;
}

FuzzCase
drawCase(std::mt19937_64 &rng, bool with_faults)
{
    auto pick = [&](auto... vals) {
        using T = std::common_type_t<decltype(vals)...>;
        const T arr[] = {vals...};
        return arr[rng() % (sizeof...(vals))];
    };

    FuzzCase fc;
    fc.mesh = 4;
    fc.regions = pick(0, 4, 8, 16);
    fc.scheme = fc.regions == 0
                    ? "none"
                    : std::string(pick("none", "ss", "rca", "wb"));
    fc.delayMode = pick("priority", "hold");
    fc.hops = pick(1, 2, 3);
    fc.tech = pick("sttram", "sttram", "sram"); // bias toward STT-RAM
    fc.placement = pick("corner", "stagger");
    fc.writeBuffer = pick(0, 0, 1) != 0;
    fc.writeBufferEntries = pick(4, 20);
    fc.readPriority = pick(0, 0, 1) != 0;
    fc.requestCap = pick(4, 8);
    fc.writeCap = pick(16, 32);
    fc.apps = pick("tpcc", "sjbb", "lbm", "mcf", "libquantum",
                   "tpcc,lbm,mcf,libquantum", "sap,sjbb,tpcc,milc");
    fc.seed = rng();
    fc.warmup = pick(Cycle{0}, Cycle{500});
    fc.cycles = 2000 + rng() % 6000;
    // Bias toward the elision engine (the shipping default) while still
    // fuzzing the full-walk path; the mode is pinned in reproducers.
    fc.elide = pick(1, 1, 1, 0) != 0;
    if (with_faults)
        fc.faultSpec = drawFaultSpec(rng);
    return fc;
}

system::SystemConfig
toConfig(const FuzzCase &fc)
{
    system::SystemConfig cfg;
    cfg.meshWidth = fc.mesh;
    cfg.meshHeight = fc.mesh;

    system::Scenario sc;
    sc.name = "fuzz";
    sc.tech = fc.tech == "sram" ? mem::CacheTech::Sram
                                : mem::CacheTech::SttRam;
    sc.tsbRegions = fc.regions;
    sc.placement = fc.placement == "stagger"
                       ? sttnoc::TsbPlacement::Stagger
                       : sttnoc::TsbPlacement::Corner;
    if (fc.scheme == "none")
        sc.scheme.reset();
    else if (fc.scheme == "ss")
        sc.scheme = sttnoc::EstimatorKind::Simple;
    else if (fc.scheme == "rca")
        sc.scheme = sttnoc::EstimatorKind::Rca;
    else if (fc.scheme == "wb")
        sc.scheme = sttnoc::EstimatorKind::Window;
    else
        fatal("unknown scheme '%s'", fc.scheme.c_str());
    sc.parentHops = fc.hops;
    sc.delayMode = fc.delayMode == "hold" ? sttnoc::DelayMode::Hold
                                          : sttnoc::DelayMode::Priority;
    sc.writeBuffer = fc.writeBuffer;
    sc.writeBufferEntries = fc.writeBufferEntries;
    sc.readPriority = fc.readPriority;
    cfg.scenario = sc;

    cfg.bankRequestCap = fc.requestCap;
    cfg.bankWriteCap = fc.writeCap;
    cfg.seed = fc.seed;

    cfg.apps = system::expandApps(system::splitList(fc.apps),
                                  cfg.meshWidth * cfg.meshHeight);

    // Faults imply the watchdog: recovery must never hang, so any fuzz
    // deadlock is a finding.
    const std::string err = system::applyFaultSpec(fc.faultSpec, cfg);
    fatal_if(!err.empty(), "bad fault_spec '%s': %s",
             fc.faultSpec.c_str(), err.c_str());

    cfg.validate = true;
    cfg.validation.failFast = false; // collect, then minimize
    cfg.threads = g_threads;
    cfg.elide = fc.elide;
    return cfg;
}

/** @return violations seen when running @p fc for @p cycles cycles. */
std::size_t
runCase(const FuzzCase &fc, Cycle cycles)
{
    // Fresh id streams per run, so bisection replays the exact packets
    // of the original failure and consecutive runs can't overflow a
    // stream.
    noc::resetPacketIds();
    system::SystemConfig cfg = toConfig(fc);
    system::CmpSystem sys(cfg);
    if (fc.warmup > 0)
        sys.warmup(fc.warmup);
    sys.run(cycles);
    return sys.validation()->violations().size();
}

void
writeCase(const FuzzCase &fc, const std::string &path)
{
    std::ofstream out(path);
    fatal_if(!out, "cannot write reproducer '%s'", path.c_str());
    out << "mesh=" << fc.mesh << "\n"
        << "regions=" << fc.regions << "\n"
        << "scheme=" << fc.scheme << "\n"
        << "delay_mode=" << fc.delayMode << "\n"
        << "hops=" << fc.hops << "\n"
        << "tech=" << fc.tech << "\n"
        << "placement=" << fc.placement << "\n"
        << "write_buffer=" << (fc.writeBuffer ? 1 : 0) << "\n"
        << "write_buffer_entries=" << fc.writeBufferEntries << "\n"
        << "read_priority=" << (fc.readPriority ? 1 : 0) << "\n"
        << "request_cap=" << fc.requestCap << "\n"
        << "write_cap=" << fc.writeCap << "\n"
        << "apps=" << fc.apps << "\n"
        << "seed=" << fc.seed << "\n"
        << "warmup=" << fc.warmup << "\n"
        << "cycles=" << fc.cycles << "\n"
        << "elide=" << (fc.elide ? 1 : 0) << "\n";
    if (!fc.faultSpec.empty())
        out << "fault_spec=" << fc.faultSpec << "\n";
}

FuzzCase
readCase(const std::string &path)
{
    std::ifstream in(path);
    fatal_if(!in, "cannot read reproducer '%s'", path.c_str());
    FuzzCase fc;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const std::size_t eq = line.find('=');
        fatal_if(eq == std::string::npos, "bad reproducer line '%s'",
                 line.c_str());
        const std::string key = line.substr(0, eq);
        const std::string val = line.substr(eq + 1);
        if (key == "mesh") fc.mesh = std::stoi(val);
        else if (key == "regions") fc.regions = std::stoi(val);
        else if (key == "scheme") fc.scheme = val;
        else if (key == "delay_mode") fc.delayMode = val;
        else if (key == "hops") fc.hops = std::stoi(val);
        else if (key == "tech") fc.tech = val;
        else if (key == "placement") fc.placement = val;
        else if (key == "write_buffer") fc.writeBuffer = val != "0";
        else if (key == "write_buffer_entries")
            fc.writeBufferEntries = std::stoi(val);
        else if (key == "read_priority") fc.readPriority = val != "0";
        else if (key == "request_cap") fc.requestCap = std::stoi(val);
        else if (key == "write_cap") fc.writeCap = std::stoi(val);
        else if (key == "apps") fc.apps = val;
        else if (key == "seed") fc.seed = std::stoull(val);
        else if (key == "warmup") fc.warmup = std::stoull(val);
        else if (key == "cycles") fc.cycles = std::stoull(val);
        else if (key == "elide") fc.elide = val != "0";
        else if (key == "fault_spec") fc.faultSpec = val;
        else fatal("unknown reproducer key '%s'", key.c_str());
    }
    return fc;
}

std::string
describeCase(const FuzzCase &fc)
{
    std::string desc = detail::format(
        "mesh=%dx%d regions=%d scheme=%s delay=%s hops=%d tech=%s "
        "place=%s buf=%d/%d rp=%d caps=%d/%d apps=%s seed=%llu "
        "warmup=%llu cycles=%llu elide=%d",
        fc.mesh, fc.mesh, fc.regions, fc.scheme.c_str(),
        fc.delayMode.c_str(), fc.hops, fc.tech.c_str(),
        fc.placement.c_str(), fc.writeBuffer ? 1 : 0,
        fc.writeBufferEntries, fc.readPriority ? 1 : 0, fc.requestCap,
        fc.writeCap, fc.apps.c_str(),
        static_cast<unsigned long long>(fc.seed),
        static_cast<unsigned long long>(fc.warmup),
        static_cast<unsigned long long>(fc.cycles), fc.elide ? 1 : 0);
    if (!fc.faultSpec.empty())
        desc += " faults=" + fc.faultSpec;
    return desc;
}

/**
 * Shrink a failing case to the shortest duration that still fails, by
 * bisecting on the cycle count (the checkers fire deterministically,
 * so a failure at N cycles implies the same violation at every
 * duration >= its detection cycle).
 */
FuzzCase
minimizeCase(FuzzCase fc)
{
    Cycle lo = 1;
    Cycle hi = fc.cycles;
    while (lo < hi) {
        const Cycle mid = lo + (hi - lo) / 2;
        std::fprintf(stderr, "  bisect: %llu cycles... ",
                     static_cast<unsigned long long>(mid));
        const std::size_t n = runCase(fc, mid);
        std::fprintf(stderr, "%zu violation(s)\n", n);
        if (n > 0)
            hi = mid;
        else
            lo = mid + 1;
    }
    fc.cycles = lo;
    return fc;
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr, R"(usage: stacknoc_fuzz [options]
  --runs N        randomized runs (default 50)
  --seed N        master seed (default 1)
  --out PREFIX    reproducer file prefix (default fuzz-fail)
  --replay FILE   re-run one reproducer with fail-fast diagnostics
  --threads N     execution-engine threads per run (default 1)
  --jobs N        worker processes (default 1; 0 = hardware threads);
                  the case list and reproducer names are identical
                  for any N
  --faults        fault-campaign mode: every case also draws a bounded
                  --fault-spec (see docs/RESILIENCE.md)

Each case randomly draws the engine's idle-elision mode (biased toward
on, the shipping default); the drawn mode is pinned in reproducers via
the elide= key so replays execute the exact engine path.
)");
    std::exit(2);
}

const std::vector<std::string> kKnownOptions = {
    "--runs", "--seed", "--out", "--replay", "--threads", "--jobs",
    "--faults", "--one", "--repro",
};

/**
 * Run one case in this process: simulate, and on violations minimize
 * and write a reproducer to @p repro_path. @return violation count of
 * the full-length run.
 */
std::size_t
fuzzOne(const FuzzCase &fc, const std::string &repro_path)
{
    const std::size_t n = runCase(fc, fc.cycles);
    if (n == 0)
        return 0;
    std::fprintf(stderr, "  FAILED: %zu violation(s); minimizing\n", n);
    const FuzzCase min = minimizeCase(fc);
    writeCase(min, repro_path);
    std::fprintf(stderr,
                 "  reproducer written to %s (%llu cycles); replay "
                 "with --replay %s\n",
                 repro_path.c_str(),
                 static_cast<unsigned long long>(min.cycles),
                 repro_path.c_str());
    return n;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    int runs = 50;
    std::uint64_t master_seed = 1;
    std::string out_prefix = "fuzz-fail";
    std::string replay_path;
    int jobs = 1;
    bool with_faults = false;
    std::string one_path;     //!< internal: child worker case file
    std::string repro_prefix; //!< internal: child reproducer prefix

    auto need = [&](int i) {
        if (i + 1 >= argc)
            usage();
        return std::string(argv[i + 1]);
    };
    constexpr int kIntMax = std::numeric_limits<int>::max();
    const auto num = [&](int &i, const char *flag, auto lo, auto hi) {
        return cli::parseInt("stacknoc_fuzz", flag, need(i++).c_str(), lo,
                             hi);
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--runs") {
            runs = num(i, "--runs", 0, kIntMax);
        } else if (arg == "--seed") {
            master_seed = num(i, "--seed", std::uint64_t{0},
                              std::numeric_limits<std::uint64_t>::max());
        } else if (arg == "--out") {
            out_prefix = need(i); ++i;
        } else if (arg == "--replay") {
            replay_path = need(i); ++i;
        } else if (arg == "--threads") {
            g_threads = num(i, "--threads", 1, kIntMax);
        } else if (arg == "--jobs") {
            jobs = num(i, "--jobs", 0, kIntMax);
        } else if (arg == "--faults") {
            with_faults = true;
        } else if (arg == "--one") {
            one_path = need(i); ++i;
        } else if (arg == "--repro") {
            repro_prefix = need(i); ++i;
        } else {
            cli::reportUnknownOption("stacknoc_fuzz", arg, kKnownOptions);
            usage();
        }
    }

    // Internal worker mode (spawned by --jobs): run one case file,
    // minimize on failure, exit 1 so the parent can count it.
    if (!one_path.empty()) {
        const FuzzCase fc = readCase(one_path);
        std::fprintf(stderr, "[worker] %s\n", describeCase(fc).c_str());
        const std::string repro = (repro_prefix.empty()
                                       ? one_path + ".repro"
                                       : repro_prefix) + ".txt";
        return fuzzOne(fc, repro) == 0 ? 0 : 1;
    }

    if (!replay_path.empty()) {
        const FuzzCase fc = readCase(replay_path);
        std::fprintf(stderr, "replaying: %s\n",
                     describeCase(fc).c_str());
        // Fail fast: the hub dumps cycle-stamped diagnostics and
        // aborts at the first violating sweep.
        noc::resetPacketIds();
        system::SystemConfig cfg = toConfig(fc);
        cfg.validation.failFast = true;
        system::CmpSystem sys(cfg);
        if (fc.warmup > 0)
            sys.warmup(fc.warmup);
        sys.run(fc.cycles);
        std::printf("replay clean: no violations in %llu cycles\n",
                    static_cast<unsigned long long>(fc.cycles));
        return 0;
    }

    // The whole case list is drawn up front from the master seed, so
    // it is identical whatever --jobs is; reproducer names are keyed
    // by case index for the same reason.
    std::mt19937_64 rng(master_seed);
    std::vector<FuzzCase> cases;
    cases.reserve(static_cast<std::size_t>(runs));
    for (int r = 0; r < runs; ++r)
        cases.push_back(drawCase(rng, with_faults));

    int failures = 0;
    if (jobs == 1) {
        // Historical in-process path (also the debuggable one).
        for (int r = 0; r < runs; ++r) {
            const FuzzCase &fc = cases[static_cast<std::size_t>(r)];
            std::fprintf(stderr, "[%3d/%d] %s\n", r + 1, runs,
                         describeCase(fc).c_str());
            if (fuzzOne(fc, detail::format("%s-%d.txt",
                                           out_prefix.c_str(), r)) > 0)
                ++failures;
        }
    } else {
        if (jobs <= 0) {
            jobs = static_cast<int>(std::thread::hardware_concurrency());
            if (jobs <= 0)
                jobs = 4;
        }
        std::fprintf(stderr, "fuzz: %d case(s) across %d process(es)\n",
                     runs, jobs);

        const auto tmp = std::filesystem::temp_directory_path();
        std::vector<std::string> case_paths(cases.size());
        for (std::size_t r = 0; r < cases.size(); ++r) {
            case_paths[r] =
                (tmp / detail::format("stacknoc_fuzz_%d_%zu.txt",
                                      static_cast<int>(::getpid()), r))
                    .string();
            writeCase(cases[r], case_paths[r]);
        }

        const std::string self = argv[0];
        std::vector<int> rcs(cases.size(), 0);
        std::mutex m;
        std::size_t next = 0;
        auto worker = [&] {
            for (;;) {
                std::size_t idx;
                {
                    std::lock_guard<std::mutex> lk(m);
                    if (next >= cases.size())
                        return;
                    idx = next++;
                }
                std::string cmd = self + " --one " + case_paths[idx] +
                    detail::format(" --repro %s-%zu --threads %d",
                                   out_prefix.c_str(), idx, g_threads) +
                    " > /dev/null 2>&1";
                rcs[idx] = std::system(cmd.c_str());
                std::lock_guard<std::mutex> lk(m);
                std::fprintf(
                    stderr, "  [%zu/%zu] %s %s\n", idx + 1, cases.size(),
                    describeCase(cases[idx]).c_str(),
                    rcs[idx] == 0
                        ? "ok"
                        : detail::format("FAILED (reproducer %s-%zu.txt)",
                                         out_prefix.c_str(), idx)
                              .c_str());
            }
        };
        std::vector<std::thread> pool;
        for (int t = 0; t < jobs; ++t)
            pool.emplace_back(worker);
        for (auto &t : pool)
            t.join();

        for (std::size_t r = 0; r < cases.size(); ++r) {
            if (rcs[r] != 0)
                ++failures;
            std::filesystem::remove(case_paths[r]);
        }
    }

    std::printf("fuzz: %d/%d run(s) clean (master seed %llu)\n",
                runs - failures, runs,
                static_cast<unsigned long long>(master_seed));
    return failures == 0 ? 0 : 1;
}
