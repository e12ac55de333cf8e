/**
 * @file
 * stacknoc_run — command-line driver for the simulator.
 *
 * Runs any design point against any workload without writing C++:
 *
 *   stacknoc_run --scenario MRAM-4TSB-WB --app tpcc --cycles 50000
 *   stacknoc_run --scenario MRAM-4TSB-WB --regions 8 --placement stagger
 *   stacknoc_run --scenario BUFF-20 --apps tpcc,lbm,mcf,libquantum
 *   stacknoc_run --scenario MRAM-4TSB-WB --delay-mode hold --stats
 *
 * --apps takes a comma list replicated round-robin across the 64 cores.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "fault/fault_spec.hh"
#include "snapshot/checkpoint.hh"
#include "snapshot/state_io.hh"
#include "telemetry/chrome_trace.hh"
#include "telemetry/trace.hh"
#include "system/cmp_system.hh"
#include "system/run_spec.hh"
#include "system/stats_export.hh"
#include "workload/app_profiles.hh"

using namespace stacknoc;

namespace {

[[noreturn]] void
usage()
{
    std::fprintf(stderr, "usage: stacknoc_run [options]\n"
                         "run spec (shared with stacknoc_client; "
                         "defaults in brackets):\n%s",
                 system::RunSpec::usage().c_str());
    std::fprintf(stderr, R"(
run options:
  --stats           dump every statistics group after the run
  --json-stats FILE write run metrics + all stats groups as JSON
  --trace FILE      stream packet-lifecycle events to a CSV file
  --trace-sample N  trace packets whose id is divisible by N (default 1)
  --profile         cycle-accounting profile: engine-phase/shard/kind
                    wall-time breakdown on stdout and in --json-stats
  --chrome-trace FILE  write packet lifecycles + engine-phase spans as
                    trace-event JSON (ui.perfetto.dev); implies --profile
  --heatmap PREFIX  write per-interval spatial grids (flits, occupancy,
                    TSB depth, parent holds) to PREFIX.<metric>.json
  --heatmap-period N  heatmap sampling period in cycles (default 1024)
  --power           streaming energy telemetry: per-interval per-cell
                    power grids + "power" JSON section (reconciles with
                    the end-of-run energy); with --heatmap PREFIX also
                    writes PREFIX.power.json
  --thermal         RC thermal grid over the stack fed by the power
                    frames (implies --power): "thermal" JSON section,
                    hot-bank ranking; with --heatmap PREFIX also writes
                    PREFIX.temperature.json
  --thermal-period N  power/thermal sampling period in cycles
                    (default 1024)
  --progress        live cycle/rate/IPC/ETA line on stderr
  --validate        run the runtime invariant checkers (abort on failure)
  --validate-period N  checker sweep period in cycles (default 1)
  --watchdog N      deadlock watchdog: fail fast when no packet ejects
                    for N cycles with traffic in flight (0 disables)
  --timeout-sec S   wall-clock guard: stop the run after S seconds,
                    flush partial stats, exit 124
  --save-checkpoint FILE  serialise the full warm state to FILE right
                    after the warm-up boundary, then run as usual
  --restore FILE    skip warm-up: restore the warm state from FILE and
                    run the measured cycles (stats are bit-identical to
                    the uninterrupted run at any --threads/--no-elide;
                    a corrupt or incompatible FILE exits 2 with a
                    one-line reason; incompatible with --validate)
  --digest          print "stats_digest 0x..." after the run (FNV-1a
                    over every stats group; bit-identity comparator)
  --list-apps       print the Table 3 application names and exit

All observability flags are strict observers: simulation results are
bit-identical with any combination on or off, at any --threads.
)");
    std::exit(2);
}

const std::vector<std::string> kRunOptions = {
    "--stats", "--json-stats", "--trace", "--trace-sample", "--profile",
    "--chrome-trace", "--heatmap", "--heatmap-period", "--power",
    "--thermal", "--thermal-period", "--progress", "--validate",
    "--validate-period", "--watchdog", "--timeout-sec",
    "--save-checkpoint", "--restore", "--digest", "--list-apps",
};

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    system::RunSpec spec;
    system::SystemConfig cfg;
    bool dump_stats = false;
    std::string json_path;
    std::string trace_path;
    std::string chrome_path;
    std::string heatmap_prefix;
    Cycle heatmap_period = 1024;
    std::uint64_t trace_sample = 1;
    long long watchdog_opt = -1; // -1 unset, 0 off, >0 stallCycles
    double timeout_sec = 0.0;
    std::string save_ckpt_path;
    std::string restore_path;
    bool print_digest = false;

    auto need = [&](int i) {
        if (i + 1 >= argc)
            usage();
        return std::string(argv[i + 1]);
    };
    // An integer flag's value (consumed, so i moves past it), >= lo.
    const auto num = [&](int &i, const char *flag, auto lo) {
        return cli::parseInt("stacknoc_run", flag, need(i++).c_str(), lo,
                             std::numeric_limits<decltype(lo)>::max());
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string err;
        if (spec.takeArg(argc, argv, i, err)) {
            if (!err.empty()) {
                std::fprintf(stderr, "stacknoc_run: %s\n", err.c_str());
                return 2;
            }
        } else if (arg == "--stats") {
            dump_stats = true;
        } else if (arg == "--json-stats") {
            json_path = need(i); ++i;
        } else if (arg == "--trace") {
            trace_path = need(i); ++i;
        } else if (arg == "--trace-sample") {
            trace_sample = num(i, "--trace-sample", std::uint64_t{1});
        } else if (arg == "--profile") {
            cfg.profile = true;
        } else if (arg == "--chrome-trace") {
            chrome_path = need(i); ++i;
            cfg.profile = true;
            // Retain phase spans for the trace's engine tracks.
            cfg.profileSpanCapacity = std::size_t{1} << 20;
        } else if (arg == "--heatmap") {
            heatmap_prefix = need(i); ++i;
        } else if (arg == "--heatmap-period") {
            heatmap_period = num(i, "--heatmap-period", Cycle{1});
        } else if (arg == "--power") {
            cfg.power = true;
        } else if (arg == "--thermal") {
            cfg.thermal = true;
            cfg.power = true;
        } else if (arg == "--thermal-period") {
            cfg.powerPeriod = num(i, "--thermal-period", Cycle{1});
        } else if (arg == "--progress") {
            cfg.progress = true;
        } else if (arg == "--validate") {
            cfg.validate = true;
        } else if (arg == "--validate-period") {
            cfg.validation.period = num(i, "--validate-period", Cycle{1});
            cfg.validate = true;
        } else if (arg == "--watchdog") {
            watchdog_opt = num(i, "--watchdog", 0ll);
        } else if (arg == "--timeout-sec") {
            timeout_sec = cli::parseNumber("stacknoc_run", "--timeout-sec",
                                           need(i).c_str(), 0.0, true);
            ++i;
        } else if (arg == "--save-checkpoint") {
            save_ckpt_path = need(i); ++i;
        } else if (arg == "--restore") {
            restore_path = need(i); ++i;
        } else if (arg == "--digest") {
            print_digest = true;
        } else if (arg == "--list-apps") {
            for (const auto &a : workload::appTable())
                std::printf("%-16s %s\n", a.name.c_str(),
                            workload::suiteName(a.suite));
            return 0;
        } else {
            std::vector<std::string> known = system::RunSpec::flags();
            known.insert(known.end(), kRunOptions.begin(),
                         kRunOptions.end());
            cli::reportUnknownOption("stacknoc_run", arg, known);
            usage();
        }
    }

    if (const std::string err = spec.resolve(cfg); !err.empty()) {
        std::fprintf(stderr, "stacknoc_run: %s\n", err.c_str());
        if (err.rfind("bad --fault-spec", 0) == 0)
            std::fputs(fault::faultSpecGrammar(), stderr);
        return 2;
    }
    cfg.intervalPeriod = spec.interval;

    if (!heatmap_prefix.empty())
        cfg.heatmapPeriod = heatmap_period;
    if (cfg.progress)
        cfg.progressTotalCycles = spec.warmup + spec.cycles;

    // --watchdog overrides the spec's rule (faults imply the watchdog).
    if (watchdog_opt >= 0)
        cfg.watchdogEnabled = watchdog_opt > 0;
    if (watchdog_opt > 0)
        cfg.watchdog.stallCycles = static_cast<Cycle>(watchdog_opt);

    // Checkpoints exclude the validation hub's census state, so neither
    // end of the snapshot path may run with the checkers on.
    if (cfg.validate &&
        (!restore_path.empty() || !save_ckpt_path.empty())) {
        std::fprintf(stderr,
                     "stacknoc_run: --validate is incompatible with "
                     "--restore/--save-checkpoint (checker state is not "
                     "checkpointed)\n");
        return 2;
    }
    if (!restore_path.empty() && !save_ckpt_path.empty()) {
        std::fprintf(stderr,
                     "stacknoc_run: --restore and --save-checkpoint are "
                     "mutually exclusive (checkpoints are taken at the "
                     "warm-up boundary, which a restored run skips)\n");
        return 2;
    }

    std::unique_ptr<telemetry::CsvTraceSink> trace_sink;
    std::unique_ptr<telemetry::MemoryTraceSink> chrome_sink;
    std::unique_ptr<telemetry::TeeTraceSink> tee_sink;
    std::unique_ptr<telemetry::PacketTracer> tracer;
    if (!trace_path.empty() || !chrome_path.empty()) {
        telemetry::TraceSink *sink = nullptr;
        if (!trace_path.empty()) {
            trace_sink =
                std::make_unique<telemetry::CsvTraceSink>(trace_path);
            fatal_if(!trace_sink->ok(), "cannot open trace file '%s'",
                     trace_path.c_str());
            sink = trace_sink.get();
        }
        if (!chrome_path.empty()) {
            chrome_sink = std::make_unique<telemetry::MemoryTraceSink>();
            if (sink != nullptr) {
                tee_sink = std::make_unique<telemetry::TeeTraceSink>(
                    *trace_sink, *chrome_sink);
                sink = tee_sink.get();
            } else {
                sink = chrome_sink.get();
            }
        }
        tracer = std::make_unique<telemetry::PacketTracer>(4096,
                                                           trace_sample);
        tracer->setSink(sink);
        telemetry::setTracer(tracer.get());
    }

    system::CmpSystem sys(cfg);

    const std::uint64_t warm_digest =
        snapshot::warmConfigDigest(cfg, spec.warmup);
    bool restored = false;
    Cycle restored_cycle = 0;
    if (!restore_path.empty()) {
        std::ifstream in(restore_path, std::ios::binary);
        if (!in) {
            std::fprintf(stderr,
                         "stacknoc_run: cannot open checkpoint '%s'\n",
                         restore_path.c_str());
            return 2;
        }
        const std::string err = snapshot::restoreCheckpoint(
            sys, in, warm_digest, &restored_cycle);
        if (!err.empty()) {
            std::fprintf(stderr, "stacknoc_run: %s\n", err.c_str());
            return 2;
        }
        restored = true;
    }
    auto write_checkpoint = [&]() {
        if (save_ckpt_path.empty())
            return;
        std::ofstream out(save_ckpt_path, std::ios::binary);
        fatal_if(!out, "cannot open checkpoint file '%s'",
                 save_ckpt_path.c_str());
        snapshot::saveCheckpoint(sys, out, warm_digest);
        fatal_if(!out, "error writing checkpoint file '%s'",
                 save_ckpt_path.c_str());
    };

    // Under --timeout-sec each phase runs in 4096-cycle chunks so the
    // wall-clock guard can stop between them (the engine itself has no
    // preemption point); otherwise a phase is one run() call.
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(timeout_sec));
    const auto run = [&](Cycle total) { // @return cycles left undone
        if (timeout_sec <= 0.0) {
            sys.run(total);
            return Cycle{0};
        }
        Cycle left = total;
        while (left > 0 && std::chrono::steady_clock::now() < deadline) {
            const Cycle step = std::min<Cycle>(4096, left);
            sys.run(step);
            left -= step;
        }
        return left;
    };
    Cycle left = 0;
    if (!restored) {
        sys.warmupBegin();
        left = run(spec.warmup);
        if (left == 0) {
            sys.warmupEnd();
            write_checkpoint();
        }
    }
    if (left == 0)
        left = run(spec.cycles);
    const bool timed_out = left > 0;
    if (timed_out) {
        std::fprintf(stderr,
                     "TIMEOUT: wall-clock budget of %.1f s exhausted at "
                     "cycle %llu (%llu cycle(s) short); flushing partial "
                     "stats\n",
                     timeout_sec,
                     static_cast<unsigned long long>(sys.simulator().now()),
                     static_cast<unsigned long long>(left));
    }

    if (auto *progress = sys.progress())
        progress->finish(sys.simulator().now());

    // Close the heatmap and power/thermal windows so they cover
    // exactly these cycles (power totals then reconcile with the
    // end-of-run computeEnergy).
    sys.finalizeTelemetry();

    if (tracer) {
        tracer->flush();
        if (trace_sink)
            trace_sink->flush();
        telemetry::setTracer(nullptr);
    }

    const auto m = sys.metrics();

    std::printf("scenario=%s cores=%d cycles=%llu seed=%llu\n",
                cfg.scenario.name.c_str(), cfg.meshWidth * cfg.meshHeight,
                static_cast<unsigned long long>(spec.cycles),
                static_cast<unsigned long long>(cfg.seed));
    if (restored)
        std::printf("restored_from_cycle=%llu\n",
                    static_cast<unsigned long long>(restored_cycle));
    std::printf("mean_ipc=%.4f min_ipc=%.4f instr_throughput=%.2f\n",
                m.meanIpc(), m.minIpc(), m.instructionThroughput());
    std::printf("net_latency=%.2f bank_queue_latency=%.2f "
                "uncore_latency=%.2f\n",
                m.avgNetworkLatency, m.avgBankQueueLatency,
                m.avgUncoreLatency);
    std::printf("energy_uj=%.3f (cache dyn %.3f, cache leak %.3f, "
                "net dyn %.3f, net leak %.3f)\n",
                m.energy.totalUJ(), m.energy.cacheDynamicUJ,
                m.energy.cacheLeakageUJ, m.energy.netDynamicUJ,
                m.energy.netLeakageUJ);
    if (const auto *thermal = sys.thermal()) {
        std::printf("thermal peak_c=%.2f ambient_c=%.2f hottest_bank=%d\n",
                    thermal->peakC(),
                    thermal->grid().params().ambientC,
                    thermal->hotBanks(1).empty()
                        ? -1
                        : static_cast<int>(
                              thermal->hotBanks(1).front().bank));
    }
    std::printf("engine=%s threads=%d elide=%d active_fraction=%.3f "
                "wall_s=%.3f ticks_per_sec=%.0f\n",
                sys.engineName(), sys.engineThreads(),
                sys.engineElides() ? 1 : 0, sys.engineActiveFraction(),
                sys.wallSeconds(), sys.ticksPerSecond());
    if (const auto *prof = sys.profiler())
        prof->writeTable(std::cout, sys.wallSeconds());
    const std::uint64_t stats_digest =
        print_digest ? snapshot::statsDigest(sys) : 0;
    if (print_digest)
        std::printf("stats_digest 0x%016llx\n",
                    static_cast<unsigned long long>(stats_digest));
    if (dump_stats)
        sys.dumpStats(std::cout);

    if (!chrome_path.empty()) {
        std::ofstream out(chrome_path);
        fatal_if(!out, "cannot open chrome trace file '%s'",
                 chrome_path.c_str());
        telemetry::writeChromeTrace(out, chrome_sink->records(),
                                    sys.profiler(), sys.power(),
                                    sys.thermal());
    }
    if (!heatmap_prefix.empty()) {
        fatal_if(!sys.heatmap()->writeFiles(heatmap_prefix),
                 "cannot write heatmap files '%s.*.json'",
                 heatmap_prefix.c_str());
        if (sys.power() != nullptr) {
            fatal_if(!sys.power()->writeFile(heatmap_prefix +
                                             ".power.json"),
                     "cannot write power grid file '%s.power.json'",
                     heatmap_prefix.c_str());
        }
        if (sys.thermal() != nullptr) {
            fatal_if(!sys.thermal()->writeFile(
                         heatmap_prefix + ".temperature.json",
                         sys.power()->period()),
                     "cannot write temperature grid file "
                     "'%s.temperature.json'",
                     heatmap_prefix.c_str());
        }
    }

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        fatal_if(!out, "cannot open json file '%s'", json_path.c_str());
        system::RunInfo info;
        info.scenario = cfg.scenario.name;
        info.app = system::joinList(spec.apps);
        info.seed = cfg.seed;
        info.warmupCycles = spec.warmup;
        info.measuredCycles = spec.cycles;
        info.timedOut = timed_out;
        info.restored = restored;
        info.restoredFromCycle = restored_cycle;
        info.hasStatsDigest = print_digest;
        info.statsDigest = stats_digest;
        system::writeJsonStats(out, sys, info);
    }
    return timed_out ? 124 : 0;
}
