/**
 * @file
 * stacknoc benchmark binary. Runs one named workload in-process through
 * system::CmpSystem on the paper's 8x8x2 mesh (64 cores) and reports
 * host-time costs:
 *
 *   --trace 0  end-to-end metrics: ticks/s at 1, 2 and 4 engine threads
 *              and with the cycle profiler on, constructor time, peak RSS.
 *   --trace 1  per-layer metrics: profiler attribution per component
 *              kind and engine phase, per-cycle work counts, and ns/op of
 *              hot primitives timed in isolation; writes the span set to
 *              --trace-out.
 *
 * Every simulation run of one invocation covers the same seed, warm-up
 * and measured cycles, so all of them must end with the same
 * snapshot::statsDigest; a run that disagrees (or fails a sanity check,
 * or overruns the deadline) is counted as failed. The last stdout line is
 * one JSON object {"correct","attempted","failed","metrics"}; the exit
 * status is 0 only when every run passed.
 *
 * Usage: stacknoc_perfbench --workload NAME --seed N --seconds S
 *                           --trace 0|1 [--trace-out FILE]
 *                           [--commit ID] [--source-digest HEX]
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/tag_array.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "noc/network.hh"
#include "noc/packet.hh"
#include "noc/routing.hh"
#include "sim/simulator.hh"
#include "snapshot/state_io.hh"
#include "sttnoc/estimator.hh"
#include "sttnoc/parent_map.hh"
#include "sttnoc/region_map.hh"
#include "sttnoc/region_routing.hh"
#include "system/cmp_system.hh"
#include "telemetry/json.hh"
#include "telemetry/profile.hh"
#include "workload/app_profiles.hh"
#include "workload/synthetic_stream.hh"

using namespace stacknoc;
using telemetry::EnginePhase;
using telemetry::JsonWriter;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Render one JSON value written by @p fn to a string. */
template <typename Fn>
std::string
toJson(Fn fn)
{
    std::ostringstream os;
    JsonWriter w(os);
    fn(w);
    return os.str();
}

// --- Workloads -------------------------------------------------------

/** One named workload; see perfbench/README.md for why each exists. */
struct Workload
{
    const char *name;
    const char *scenario;          //!< scenarios::byName key, no overrides
    std::vector<std::string> apps; //!< replicated round-robin over cores
    Cycle cycles;                  //!< measured window of every run
};

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        {"tpcc-wb", "MRAM-4TSB-WB", {"tpcc"}, 5000},
        {"wmix-buff20", "BUFF-20", {"lbm", "sjas", "sap", "soplex"}, 5000},
        {"lowmpki-sram", "SRAM-64TSB", {"freqmine"}, 12500},
    };
    return all;
}

constexpr int kMeshWidth = 8;
constexpr int kMeshHeight = 8;
constexpr Cycle kWarmup = 3000;
/** Bare constructions timed per round (setup_s samples). */
constexpr int kSetupPerRound = 5;

system::SystemConfig
makeConfig(const Workload &w, std::uint64_t seed)
{
    system::SystemConfig cfg;
    cfg.meshWidth = kMeshWidth;
    cfg.meshHeight = kMeshHeight;
    fatal_if(!system::scenarios::byName(w.scenario, cfg.scenario),
             "unknown scenario '%s'", w.scenario);
    const int cores = kMeshWidth * kMeshHeight;
    cfg.apps.clear();
    if (w.apps.size() == 1) {
        cfg.apps = w.apps;
    } else {
        for (int c = 0; c < cores; ++c)
            cfg.apps.push_back(w.apps[std::size_t(c) % w.apps.size()]);
    }
    cfg.seed = seed;
    return cfg;
}

// --- Engine modes ----------------------------------------------------

struct Mode
{
    const char *name;
    int threads;
    bool profile;
};

const Mode kT1{"t1", 1, false};
const Mode kT2{"t2", 2, false};
const Mode kT4{"t4", 4, false};
const Mode kT1Profiled{"t1_profiled", 1, true};
const Mode kT2Profiled{"t2_profiled", 2, true};
const Mode kT4Profiled{"t4_profiled", 4, true};

// --- Spans -----------------------------------------------------------

/**
 * In-memory span log of the traced run, recorded around the calls the
 * benchmark makes into the library and written once at the end. An
 * "attributed" span carries a profiler total laid out inside its parent:
 * its duration is measured, its start is not.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool on) : on_(on), epoch_(Clock::now()) {}

    double now() const { return secondsSince(epoch_); }

    /** @return the new span's id, or -1 when tracing is off. */
    int
    add(const std::string &trace_id, const std::string &name, int parent,
        double start, double end, bool attributed = false)
    {
        if (!on_)
            return -1;
        spans_.push_back({trace_id, name, int(spans_.size()), parent, start,
                          end, attributed});
        return spans_.back().id;
    }

    void
    close(int id, double end)
    {
        if (id >= 0)
            spans_[std::size_t(id)].end = end;
    }

    void
    write(JsonWriter &w) const
    {
        w.beginArray();
        for (const Span &s : spans_) {
            w.beginObject()
                .kv("trace_id", s.traceId)
                .kv("span_id", s.id)
                .kv("parent", s.parent)
                .kv("name", s.name)
                .kv("start_s", s.start)
                .kv("end_s", s.end)
                .kv("attributed", s.attributed)
                .endObject();
        }
        w.endArray();
    }

  private:
    struct Span
    {
        std::string traceId;
        std::string name;
        int id;
        int parent;
        double start;
        double end;
        bool attributed;
    };

    bool on_;
    Clock::time_point epoch_;
    std::vector<Span> spans_;
};

// --- One simulation run ----------------------------------------------

using CounterMap = std::map<std::string, std::uint64_t>;

/** Every counter of every stats group, keyed "group.stat". */
CounterMap
readCounters(const system::CmpSystem &sys)
{
    CounterMap out;
    auto grab = [&](const stats::Group &g) {
        for (const auto &[name, c] : g.allCounters())
            out[g.name() + "." + name] = c.value();
    };
    grab(sys.cacheStats());
    grab(sys.coreStats());
    grab(sys.memStats());
    grab(sys.network().stats());
    if (const auto *p = sys.policy())
        grab(p->stats());
    return out;
}

/** A counter read from @p m; a name the library no longer has is fatal. */
double
counterOf(const CounterMap &m, const std::string &name)
{
    const auto it = m.find(name);
    fatal_if(it == m.end(), "no counter '%s' in the stats groups",
             name.c_str());
    return double(it->second);
}

/** Profiler totals at one instant, for measured-window deltas. */
struct ProfileTotals
{
    std::vector<double> kinds;
    std::array<double, telemetry::kNumEnginePhases> phases{};
    std::vector<double> shards;

    explicit ProfileTotals(const telemetry::CycleProfiler &p)
    {
        for (std::size_t k = 0; k < p.kindNames().size(); ++k)
            kinds.push_back(p.kindSeconds(k));
        for (std::size_t ph = 0; ph < phases.size(); ++ph)
            phases[ph] = p.phaseSeconds(EnginePhase(ph));
        for (std::size_t s = 0; s < p.numShards(); ++s)
            shards.push_back(p.shardSeconds(s, EnginePhase::Compute));
    }
};

/** Everything measured for one (mode, round) simulation. */
struct RunResult
{
    const Mode *mode = nullptr;
    int round = 0;
    double constructSeconds = 0.0;
    double warmupSeconds = 0.0;
    double runSeconds = 0.0; //!< wall time of the run() call
    Cycle cycles = 0;        //!< measured window
    std::uint64_t digest = 0;
    std::string failure;     //!< empty when the run passed

    CounterMap counters;
    std::uint64_t ticked = 0; //!< component ticks in the window
    std::uint64_t slots = 0;  //!< tick slots in the window
    std::map<std::string, double> kindSeconds;
    std::array<double, telemetry::kNumEnginePhases> phaseSeconds{};
    std::vector<double> shardCompute;
};

/** Measured-window cycles / wall seconds of one run's run() call. */
double
windowRate(const RunResult &r)
{
    return double(r.cycles) / r.runSeconds;
}

/**
 * Runs the simulations of one invocation. Every run covers the same seed,
 * warm-up and measured window, so all digests must agree.
 */
class Bench
{
  public:
    Bench(const Workload &w, std::uint64_t seed, double seconds,
          SpanLog &spans)
        : workload_(w), spans_(spans), cfg_(makeConfig(w, seed)),
          start_(Clock::now()),
          // Past this a run counts as timed out; the process must end
          // well inside the caller's 180 s limit.
          deadline_(std::min(3.0 * seconds + 30.0, 150.0))
    {}

    const system::SystemConfig &config() const { return cfg_; }
    const std::vector<RunResult> &runs() const { return runs_; }
    const std::vector<double> &setupSamples() const { return setup_; }
    std::string workloadName() const { return workload_.name; }
    Cycle measuredCycles() const { return workload_.cycles; }
    double elapsed() const { return secondsSince(start_); }

    /**
     * Run rounds over @p modes while another round fits in @p budget
     * seconds, at least @p min_rounds. Each round first times
     * @p constructions bare t1 constructions, so set-up samples spread
     * over the whole run like the throughput samples do.
     */
    void
    measure(const std::vector<const Mode *> &modes, double budget,
            int min_rounds, int constructions = 0)
    {
        const auto t0 = Clock::now();
        double last_round = 0.0;
        for (int round = 0;; ++round) {
            if (round >= min_rounds &&
                secondsSince(t0) + last_round > budget)
                break;
            const auto r0 = Clock::now();
            for (int i = 0; i < constructions; ++i) {
                noc::resetPacketIds();
                const auto c0 = Clock::now();
                auto sys = std::make_unique<system::CmpSystem>(cfg_);
                setup_.push_back(secondsSince(c0));
            }
            for (const Mode *m : modes) {
                if (timedOut_)
                    return;
                simulate(*m, round);
            }
            last_round = secondsSince(r0);
        }
    }

  private:
    void
    simulate(const Mode &mode, int round)
    {
        RunResult r;
        r.mode = &mode;
        r.round = round;
        const std::string trace_id = std::string(workload_.name) + "/" +
                                     mode.name + "/r" +
                                     std::to_string(round);
        const int root = spans_.add(trace_id, "perfbench.simulate", -1,
                                    spans_.now(), 0.0);

        system::SystemConfig cfg = cfg_;
        cfg.threads = mode.threads;
        cfg.profile = mode.profile;

        noc::resetPacketIds();
        double s0 = spans_.now();
        auto c0 = Clock::now();
        auto sys = std::make_unique<system::CmpSystem>(cfg);
        r.constructSeconds = secondsSince(c0);
        spans_.add(trace_id, "system.construct", root, s0, spans_.now());

        s0 = spans_.now();
        c0 = Clock::now();
        sys->warmup(kWarmup);
        r.warmupSeconds = secondsSince(c0);
        spans_.add(trace_id, "system.warmup", root, s0, spans_.now());

        const telemetry::CycleProfiler *prof = sys->profiler();
        std::optional<ProfileTotals> before;
        if (prof)
            before.emplace(*prof);
        const std::uint64_t ticked0 = sys->engineTickedComponents();
        const std::uint64_t slots0 = sys->engineTickSlots();

        const double run_start = spans_.now();
        c0 = Clock::now();
        sys->run(workload_.cycles);
        r.runSeconds = secondsSince(c0);
        r.cycles = workload_.cycles;
        if (elapsed() > deadline_) {
            timedOut_ = true;
            r.failure = "timeout";
        }
        const int run_span = spans_.add(trace_id, "system.run", root,
                                        run_start, spans_.now());

        r.ticked = sys->engineTickedComponents() - ticked0;
        r.slots = sys->engineTickSlots() - slots0;
        if (prof) {
            const ProfileTotals after(*prof);
            // Profiler totals become children of system.run, tiled from
            // its start, so self time = span - children.
            double at = run_start;
            auto attribute = [&](const std::string &name, double secs) {
                spans_.add(trace_id, name, run_span, at, at + secs, true);
                at += secs;
            };
            for (std::size_t k = 0; k < after.kinds.size(); ++k) {
                const std::string &kind = prof->kindNames()[k];
                r.kindSeconds[kind] = after.kinds[k] - before->kinds[k];
                if (mode.threads == 1)
                    attribute("kind." + kind, r.kindSeconds[kind]);
            }
            for (std::size_t ph = 0; ph < after.phases.size(); ++ph) {
                r.phaseSeconds[ph] = after.phases[ph] - before->phases[ph];
                if (mode.threads > 1)
                    attribute(std::string("phase.") +
                                  telemetry::enginePhaseName(
                                      EnginePhase(ph)),
                              r.phaseSeconds[ph]);
            }
            for (std::size_t s = 0; s < after.shards.size(); ++s)
                r.shardCompute.push_back(after.shards[s] -
                                         before->shards[s]);
        }

        s0 = spans_.now();
        const system::Metrics m = sys->metrics();
        r.counters = readCounters(*sys);
        spans_.add(trace_id, "system.metrics", root, s0, spans_.now());

        s0 = spans_.now();
        r.digest = snapshot::statsDigest(*sys);
        spans_.add(trace_id, "snapshot.digest", root, s0, spans_.now());

        sys.reset();
        spans_.close(root, spans_.now());

        if (r.failure.empty())
            r.failure = sanity(r, m);
        if (r.failure.empty() && !runs_.empty() &&
            r.digest != runs_.front().digest)
            r.failure = "stats_digest differs from the first t1 run";
        printRun(r);
        runs_.push_back(std::move(r));
    }

    /** Checks that hold for any correct run, whatever the seed. */
    static std::string
    sanity(const RunResult &r, const system::Metrics &m)
    {
        if (m.cycles != r.cycles)
            return "metrics cover a different window than was run";
        if (m.ipc.size() != std::size_t(kMeshWidth * kMeshHeight))
            return "wrong number of cores";
        for (double ipc : m.ipc) {
            if (!std::isfinite(ipc) || ipc < 0.0)
                return "non-finite or negative IPC";
        }
        if (!(m.instructionThroughput() > 0.0))
            return "no instructions committed";
        if (counterOf(r.counters, "net.packets_ejected") == 0)
            return "no packets delivered";
        if (!(m.avgNetworkLatency > 0.0) ||
            !std::isfinite(m.avgNetworkLatency))
            return "no network latency recorded";
        return {};
    }

    static void
    printRun(const RunResult &r)
    {
        char digest[24];
        std::snprintf(digest, sizeof digest, "0x%016llx",
                      static_cast<unsigned long long>(r.digest));
        const std::string line = toJson([&](JsonWriter &w) {
            w.beginObject()
                .kv("mode", r.mode->name)
                .kv("round", r.round)
                .kv("cycles", std::uint64_t(r.cycles))
                .kv("construct_s", r.constructSeconds)
                .kv("warmup_s", r.warmupSeconds)
                .kv("ticks_per_s", windowRate(r))
                .kv("stats_digest", std::string(digest))
                .kv("ok", r.failure.empty());
            if (!r.failure.empty())
                w.kv("failure", r.failure);
            w.endObject();
        });
        std::printf("perfbench run %s\n", line.c_str());
        std::fflush(stdout);
    }

    const Workload &workload_;
    SpanLog &spans_;
    system::SystemConfig cfg_;
    Clock::time_point start_;
    double deadline_;
    bool timedOut_ = false;
    std::vector<RunResult> runs_;
    std::vector<double> setup_;
};

// --- Metric assembly ---------------------------------------------------

/** Ordered name -> (value, unit) list of reported metrics. */
class MetricSet
{
  public:
    void
    set(const std::string &name, double value, const char *unit)
    {
        items_.push_back({name, value, unit});
    }

    void
    write(JsonWriter &w) const
    {
        w.beginObject();
        for (const Item &i : items_) {
            w.key(i.name)
                .beginObject()
                .kv("value", i.value)
                .kv("unit", i.unit)
                .endObject();
        }
        w.endObject();
    }

    void
    print() const
    {
        for (const Item &i : items_)
            std::printf("metric %-36s %.10g %s\n", i.name.c_str(), i.value,
                        i.unit);
    }

  private:
    struct Item
    {
        std::string name;
        double value;
        const char *unit;
    };
    std::vector<Item> items_;
};

/** Runs of one mode, in round order. */
std::vector<const RunResult *>
runsOf(const Bench &b, const Mode &mode)
{
    std::vector<const RunResult *> out;
    for (const RunResult &r : b.runs())
        if (r.mode == &mode)
            out.push_back(&r);
    return out;
}

/** Median over the runs of @p mode of a per-run figure. */
template <typename Fn>
double
perRunMedian(const Bench &b, const Mode &mode, Fn fn)
{
    std::vector<double> v;
    for (const RunResult *r : runsOf(b, mode))
        v.push_back(fn(*r));
    return median(v);
}

/** Median window throughput over the rounds of @p mode (cycles/s). */
double
ticksPerSecond(const Bench &b, const Mode &mode)
{
    return perRunMedian(b, mode, windowRate);
}

double
peakRssMiB()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

void
endToEndMetrics(const Bench &b, MetricSet &out)
{
    out.set("ticks_per_s.t1", ticksPerSecond(b, kT1), "cycles/s");
    out.set("ticks_per_s.t2", ticksPerSecond(b, kT2), "cycles/s");
    out.set("ticks_per_s.t4", ticksPerSecond(b, kT4), "cycles/s");
    out.set("ticks_per_s.t1_profiled", ticksPerSecond(b, kT1Profiled),
            "cycles/s");
    std::vector<double> setup = b.setupSamples();
    for (const RunResult *r : runsOf(b, kT1))
        setup.push_back(r->constructSeconds);
    out.set("setup_s", median(setup), "s");
    out.set("peak_rss_mb", peakRssMiB(), "MiB");
}

// --- Primitives timed in isolation ------------------------------------

/**
 * Time @p sample (which performs @p ops operations) repeatedly for about
 * @p budget seconds and return the median ns per operation.
 */
template <typename Fn>
double
nsPerOp(double budget, std::uint64_t ops, Fn sample)
{
    std::vector<double> ns;
    const auto t0 = Clock::now();
    do {
        const auto s0 = Clock::now();
        sample();
        ns.push_back(secondsSince(s0) * 1e9 / double(ops));
    } while (secondsSince(t0) < budget || ns.size() < 3);
    return median(ns);
}

/** Sink for values computed by timed loops, so they are not elided. */
volatile std::uint64_t g_sink = 0;

/** The bank-aware policy's parameters for @p sc, as CmpSystem sets them. */
sttnoc::SttAwareParams
policyParams(const system::Scenario &sc)
{
    sttnoc::SttAwareParams params;
    if (sc.scheme)
        params.estimator = *sc.scheme;
    params.delayMode = sc.delayMode;
    params.writeServiceCycles = mem::bankTech(sc.tech).writeCycles;
    params.holdCap = 3 * params.writeServiceCycles;
    return params;
}

/**
 * A noc::Network wired as CmpSystem::buildNetwork wires it for the
 * system's scenario: region or ZXY routing, the scenario's VCs per vnet,
 * widened region TSBs, and the bank-aware policy (with its estimator and
 * probe sinks) or the oblivious one. Nothing is attached to the NIs, so
 * ejected packets are consumed and no bank echoes a probe or NACKs. No
 * workload uses the RCA estimator, whose sideband fabric is not built.
 */
class BareNetwork
{
  public:
    explicit BareNetwork(const system::CmpSystem &sys)
    {
        const system::Scenario &sc = sys.config().scenario;
        const MeshShape &shape = sys.shape();
        sttnoc::BankAwarePolicy *bank_aware = nullptr;
        if (sc.scheme) {
            fatal_if(*sc.scheme == sttnoc::EstimatorKind::Rca,
                     "the bare network has no RCA sideband fabric");
            auto p = std::make_unique<sttnoc::BankAwarePolicy>(
                sys.regions(), sys.parents(), policyParams(sc), nullptr);
            bank_aware = p.get();
            policy_ = std::move(p);
        } else {
            policy_ = std::make_unique<noc::ArbitrationPolicy>();
        }
        std::unique_ptr<noc::RoutingFunction> routing;
        if (sc.tsbRegions > 0)
            routing = std::make_unique<sttnoc::RegionRouting>(sys.regions());
        else
            routing = std::make_unique<noc::ZxyRouting>(shape);
        noc::NocParams params;
        params.vcsPerVnet = sc.vcsPerVnet;
        net_ = std::make_unique<noc::Network>(sim_, shape, params,
                                              std::move(routing), *policy_);
        if (sc.tsbRegions > 0) {
            for (int r = 0; r < sys.regions().numRegions(); ++r)
                net_->topology().widenDownLink(
                    sys.regions().tsbCoreNode(r), params.tsbBandwidth);
        }
        if (bank_aware) {
            bank_aware->setEstimator(sttnoc::makeEstimator(
                *sc.scheme, sys.regions(), sys.parents(),
                bank_aware->params(), nullptr));
            for (NodeId n = 0; n < shape.totalNodes(); ++n)
                net_->ni(n).setProbeSink(bank_aware);
        }
    }

    Simulator &sim() { return sim_; }
    noc::Network &net() { return *net_; }

  private:
    Simulator sim_;
    std::unique_ptr<noc::ArbitrationPolicy> policy_;
    std::unique_ptr<noc::Network> net_;
};

/**
 * The hot primitives of each layer, timed from outside and sized from the
 * workload's measured rates: one sample performs the operations the
 * workload performs in its measured window.
 */
void
primitiveMetrics(const Bench &b, const RunResult &ref, double budget,
                 SpanLog &spans, MetricSet &out)
{
    const int cores = kMeshWidth * kMeshHeight;
    const std::string trace_id = b.workloadName() + "/primitives";
    const int root = spans.add(trace_id, "perfbench.primitives", -1,
                               spans.now(), 0.0);
    // Operations in the measured window for a counter.
    auto per_window = [&](const char *counter) {
        return std::max<std::uint64_t>(
            64, std::uint64_t(counterOf(ref.counters, counter)));
    };
    auto time_ns = [&](const char *metric, std::uint64_t ops,
                       auto sample) {
        const double s0 = spans.now();
        out.set(metric, nsPerOp(budget / 5.0, ops, sample), "ns");
        spans.add(trace_id, std::string("micro.") + metric, root, s0,
                  spans.now());
    };

    // A warmed system supplies the L1s the streams probe, the region and
    // parent maps, and the scenario the bare network is wired for.
    noc::resetPacketIds();
    system::CmpSystem sys(b.config());
    sys.warmup(kWarmup);
    const system::SystemConfig &cfg = sys.config();

    // Streams as CmpSystem::buildCores builds them, each probing its
    // core's warmed L1 for residency.
    workload::StreamParams sp = cfg.stream;
    sp.numBanks = sys.numBanks();
    sp.l2CapacityMissFactor =
        cfg.scenario.tech == mem::CacheTech::Sram ? 2.0 : 1.0;
    std::vector<std::unique_ptr<workload::SyntheticStream>> streams;
    for (int c = 0; c < cores; ++c) {
        const std::string &app =
            cfg.apps.size() == 1 ? cfg.apps[0] : cfg.apps[std::size_t(c)];
        streams.push_back(std::make_unique<workload::SyntheticStream>(
            workload::findApp(app), c, cfg.seed, sp));
        streams.back()->attachL1(&sys.l1(c));
    }
    auto next_op = [&, i = std::size_t(0)]() mutable {
        return streams[i++ % streams.size()]->next();
    };

    const std::uint64_t instrs = per_window("core.instructions_committed");
    time_ns("workload.stream_next_ns", instrs, [&] {
        std::uint64_t acc = 0;
        for (std::uint64_t i = 0; i < instrs; ++i)
            acc += next_op().addr;
        g_sink = g_sink + acc;
    });

    // An L1-geometry tag array probed with this workload's own
    // memory-op addresses, after one pass to fill it.
    std::vector<BlockAddr> addrs;
    const std::uint64_t accesses =
        per_window("cache.l1_hits") + per_window("cache.l1_misses");
    while (addrs.size() < accesses) {
        const cpu::TraceOp op = next_op();
        if (op.isMem)
            addrs.push_back(op.addr);
    }
    cache::TagArray tags(cfg.l1.sets, cfg.l1.ways);
    for (BlockAddr a : addrs)
        if (tags.find(a) == nullptr)
            tags.allocate(a, nullptr);
    time_ns("cache.tag_find_ns", accesses, [&] {
        std::uint64_t hits = 0;
        for (BlockAddr a : addrs)
            hits += tags.find(a) != nullptr;
        g_sink = g_sink + hits;
    });

    // Fills of never-seen blocks: every allocate is a miss and, once the
    // array is full, an LRU eviction.
    const std::uint64_t fills = per_window("cache.l1_misses");
    BlockAddr fresh = BlockAddr{1} << 62; // above every stream's space
    time_ns("cache.tag_allocate_ns", fills, [&] {
        cache::TagEntry evicted;
        for (std::uint64_t i = 0; i < fills; ++i)
            tags.allocate(fresh++, &evicted);
        g_sink = g_sink + evicted.addr;
    });

    // The window estimator with the scenario's parameters on store-write
    // forwards at the measured bank-write rate, echoing each probe so the
    // tagging path stays live.
    const sttnoc::RegionMap &regions = sys.regions();
    const sttnoc::ParentMap &parents = sys.parents();
    sttnoc::WindowEstimator est(regions, parents,
                                policyParams(cfg.scenario));
    Rng rng(cfg.seed);
    std::vector<noc::PacketPtr> pkts;
    for (int i = 0; i < 256; ++i) {
        const BankId bank = BankId(rng.below(regions.numBanks()));
        pkts.push_back(noc::makePacket(noc::PacketClass::StoreWrite,
                                       NodeId(rng.below(cores)),
                                       regions.nodeOfBank(bank)));
        pkts.back()->destBank = bank;
    }
    noc::Packet ack;
    ack.cls = noc::PacketClass::ProbeAck;
    const std::uint64_t writes = per_window("cache.bank_writes");
    std::uint64_t fwd = 0;
    time_ns("sttnoc.estimator_forward_ns", writes, [&] {
        std::uint64_t acc = 0;
        for (std::uint64_t i = 0; i < writes; ++i, ++fwd) {
            noc::Packet &p = *pkts[fwd % pkts.size()];
            const Cycle now = fwd * ref.cycles / writes;
            p.probeStamp = -1;
            est.onForward(p.destBank, p, parents.parentOf(p.destBank), now);
            if (p.probeStamp >= 0) {
                ack.info.origin = std::uint32_t(p.destBank);
                ack.info.aux = std::uint16_t(p.probeStamp);
                est.onProbeAck(ack, now);
            }
            acc += est.estimate(p.destBank, now);
        }
        g_sink = g_sink + acc;
    });

    // The scenario's network, bare, stepped at the measured per-node
    // packet rate. Cores send requests to banks (store writes in the
    // measured share of L2 requests, the rest reads); banks answer cores
    // with data or 1-flit acks, in the share that gives the measured mean
    // packet length.
    BareNetwork bare(sys);
    const int nodes = sys.shape().totalNodes();
    const double inject = counterOf(ref.counters, "net.packets_injected") /
                          (double(ref.cycles) * nodes);
    const double requests =
        counterOf(ref.counters, "cache.l2_gets") +
        counterOf(ref.counters, "cache.l2_getm") +
        counterOf(ref.counters, "cache.l2_putm") +
        counterOf(ref.counters, "cache.l2_stores");
    const double write_share = std::clamp(
        counterOf(ref.counters, "cache.bank_writes") / std::max(1.0, requests),
        0.0, 1.0);
    const double flits_per_pkt =
        counterOf(ref.counters, "net.flits_switched") /
        std::max(1.0, counterOf(ref.counters, "net.packets_forwarded"));
    // Mean flits = (1 + write_share) / 2 + (1 + 8 * data_share) / 2.
    const double data_share = std::clamp(
        (2.0 * flits_per_pkt - 2.0 - write_share) / 8.0, 0.0, 1.0);
    Cycle t = 0;
    auto step = [&] {
        for (NodeId n = 0; n < nodes; ++n) {
            if (!rng.chance(inject))
                continue;
            noc::PacketPtr pkt;
            if (n < cores) {
                const BankId bank = BankId(rng.below(regions.numBanks()));
                pkt = noc::makePacket(rng.chance(write_share)
                                          ? noc::PacketClass::StoreWrite
                                          : noc::PacketClass::ReadReq,
                                      n, regions.nodeOfBank(bank));
                pkt->destBank = bank;
            } else {
                pkt = noc::makePacket(rng.chance(data_share)
                                          ? noc::PacketClass::DataResp
                                          : noc::PacketClass::Ack,
                                      n, NodeId(rng.below(cores)));
            }
            bare.net().ni(n).send(std::move(pkt), t);
        }
        bare.sim().step();
        ++t;
    };
    for (int i = 0; i < 1000; ++i) // reach the loaded steady state
        step();
    time_ns("noc.loaded_step_ns", ref.cycles, [&] {
        for (Cycle i = 0; i < ref.cycles; ++i)
            step();
    });
    spans.close(root, spans.now());
}

void
perLayerMetrics(const Bench &b, double primitive_budget, SpanLog &spans,
                MetricSet &out)
{
    const RunResult &ref = *runsOf(b, kT1).front();
    const double cycles = double(ref.cycles);
    const double cores = kMeshWidth * kMeshHeight;
    auto count = [&](const char *name) {
        return counterOf(ref.counters, name);
    };

    for (const Mode *m : {&kT2Profiled, &kT4Profiled}) {
        const std::string suffix = m == &kT2Profiled ? ".t2" : ".t4";
        for (EnginePhase ph :
             {EnginePhase::Compute, EnginePhase::Barrier,
              EnginePhase::Commit, EnginePhase::CycleEnd}) {
            out.set(std::string("engine.") + telemetry::enginePhaseName(ph) +
                        "_share" + suffix,
                    perRunMedian(b, *m,
                                 [&](const RunResult &r) {
                                     double total = 0.0;
                                     for (double s : r.phaseSeconds)
                                         total += s;
                                     return r.phaseSeconds[std::size_t(ph)] /
                                            total;
                                 }),
                    "fraction");
        }
    }
    out.set("engine.shard_imbalance.t4",
            perRunMedian(b, kT4Profiled,
                         [](const RunResult &r) {
                             double sum = 0.0, mx = 0.0;
                             for (double s : r.shardCompute) {
                                 sum += s;
                                 mx = std::max(mx, s);
                             }
                             return mx * double(r.shardCompute.size()) / sum;
                         }),
            "ratio");
    out.set("engine.active_fraction",
            double(ref.ticked) / double(ref.slots), "fraction");
    out.set("engine.ticked_per_cycle", double(ref.ticked) / cycles,
            "1/cycle");

    // Per-kind wall time from the profiled sequential runs.
    auto kind_ns = [&](const char *kind, double per) {
        return perRunMedian(b, kT1Profiled, [&](const RunResult &r) {
            const auto it = r.kindSeconds.find(kind);
            fatal_if(it == r.kindSeconds.end(),
                     "the profiler has no component kind '%s'", kind);
            return it->second * 1e9 / per;
        });
    };
    out.set("noc.router.ns_per_cycle", kind_ns("router", cycles),
            "ns/cycle");
    out.set("noc.ni.ns_per_cycle", kind_ns("ni", cycles), "ns/cycle");
    out.set("noc.router.ns_per_flit",
            kind_ns("router", std::max(1.0, count("net.flits_switched"))),
            "ns/flit");
    out.set("noc.flits_switched_per_cycle",
            count("net.flits_switched") / cycles, "1/cycle");
    out.set("noc.packets_injected_per_cycle",
            count("net.packets_injected") / cycles, "1/cycle");

    // The sttnoc group exists only where the scenario runs the policy.
    auto policy_count = [&](const char *name) {
        return b.config().scenario.scheme ? count(name) : 0.0;
    };
    out.set("sttnoc.holds_started_per_kcycle",
            policy_count("sttnoc.holds_started") * 1000.0 / cycles,
            "1/kcycle");
    out.set("sttnoc.busy_marks_per_kcycle",
            policy_count("sttnoc.busy_marks") * 1000.0 / cycles,
            "1/kcycle");

    out.set("cpu.core.ns_per_cycle", kind_ns("core", cycles), "ns/cycle");
    out.set("cpu.core.ns_per_instr",
            kind_ns("core",
                    std::max(1.0, count("core.instructions_committed"))),
            "ns/instr");
    out.set("cpu.commit_stall_fraction",
            count("core.commit_stall_cycles") / (cycles * cores),
            "fraction");

    out.set("coherence.l1.ns_per_cycle", kind_ns("l1", cycles), "ns/cycle");
    out.set("coherence.l2bank.ns_per_cycle", kind_ns("l2bank", cycles),
            "ns/cycle");
    out.set("coherence.l1_retry_ratio",
            count("cache.l1_retries") /
                std::max(1.0, count("cache.l1_hits") +
                                  count("cache.l1_misses")),
            "ratio");
    out.set("coherence.l2_requests_per_cycle",
            (count("cache.l2_gets") + count("cache.l2_getm") +
             count("cache.l2_putm") + count("cache.l2_stores")) /
                cycles,
            "1/cycle");

    out.set("mem.mc.ns_per_cycle", kind_ns("mc", cycles), "ns/cycle");
    out.set("mem.bank_writes_per_cycle", count("cache.bank_writes") / cycles,
            "1/cycle");
    out.set("mem.write_buffer_hit_ratio",
            count("cache.write_buffer_hits") /
                std::max(1.0, count("cache.write_buffer_hits") +
                                  count("cache.bank_reads")),
            "ratio");

    out.set("system.warmup_s",
            perRunMedian(b, kT1,
                         [](const RunResult &r) { return r.warmupSeconds; }),
            "s");
    out.set("telemetry.profile_overhead",
            1.0 - ticksPerSecond(b, kT1Profiled) / ticksPerSecond(b, kT1),
            "fraction");

    primitiveMetrics(b, ref, primitive_budget, spans, out);
}

// --- Provenance and configuration echo --------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
    std::string commit = "unknown";
    std::string sourceDigest = "unknown";
};

void
writeProvenance(JsonWriter &w, const Options &opt)
{
    char host[256] = {};
    if (gethostname(host, sizeof host - 1) != 0)
        std::strcpy(host, "unknown");
    w.beginObject()
        .kv("host", std::string(host))
        .kv("nproc", int(sysconf(_SC_NPROCESSORS_ONLN)))
        .kv("hardware_threads", int(std::thread::hardware_concurrency()))
        .kv("build_type", PERFBENCH_BUILD_TYPE)
        .kv("compiler", PERFBENCH_COMPILER)
        .kv("commit", opt.commit)
        .kv("source_digest", opt.sourceDigest)
        .kv("workload", opt.workload)
        .kv("seed", opt.seed)
        .endObject();
}

/** The fully resolved configuration the runs used (mislabel check). */
void
writeConfig(JsonWriter &w, const Bench &b)
{
    const system::SystemConfig &cfg = b.config();
    const system::Scenario &sc = cfg.scenario;
    w.beginObject()
        .kv("scenario", sc.name)
        .kv("tech", mem::cacheTechName(sc.tech))
        .kv("tsbRegions", sc.tsbRegions)
        .kv("scheme", sc.scheme ? sttnoc::estimatorName(*sc.scheme) : "off")
        .kv("parentHops", sc.parentHops)
        .kv("writeBuffer", sc.writeBuffer)
        .kv("readPriority", sc.readPriority)
        .kv("mesh", std::to_string(cfg.meshWidth) + "x" +
                        std::to_string(cfg.meshHeight) + "x2")
        .kv("cores", cfg.meshWidth * cfg.meshHeight)
        .key("apps")
        .beginArray();
    // Distinct apps in core order; they repeat round-robin over cores.
    std::vector<std::string> seen;
    for (const std::string &a : cfg.apps) {
        if (std::find(seen.begin(), seen.end(), a) == seen.end()) {
            seen.push_back(a);
            w.value(a);
        }
    }
    w.endArray()
        .kv("seed", cfg.seed)
        .kv("warmup_cycles", std::uint64_t(kWarmup))
        .kv("measured_cycles", std::uint64_t(b.measuredCycles()))
        .endObject();
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "stacknoc_perfbench: %s\n"
                 "usage: stacknoc_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE] "
                 "[--commit ID] [--source-digest HEX]\n"
                 "workloads:",
                 why);
    for (const Workload &w : workloads())
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opt.workload = val;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(val.c_str(), &end, 10);
            if (*end != '\0' || val.empty())
                usage("--seed takes a whole number");
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(val.c_str(), &end);
            if (*end != '\0' || !(opt.seconds > 0.0) || opt.seconds > 60.0)
                usage("--seconds takes a number in (0, 60]");
        } else if (arg == "--trace") {
            if (val != "0" && val != "1")
                usage("--trace takes 0 or 1");
            opt.trace = val == "1";
        } else if (arg == "--trace-out") {
            opt.traceOut = val;
        } else if (arg == "--commit") {
            opt.commit = val;
        } else if (arg == "--source-digest") {
            opt.sourceDigest = val;
        } else {
            usage(("unknown option " + arg).c_str());
        }
    }
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    const Workload *wl = nullptr;
    for (const Workload &w : workloads())
        if (opt.workload == w.name)
            wl = &w;
    if (wl == nullptr)
        usage(("unknown workload '" + opt.workload + "'").c_str());
    setVerbose(false);

    SpanLog spans(opt.trace);
    Bench bench(*wl, opt.seed, opt.seconds, spans);
    MetricSet metrics;
    if (opt.trace) {
        bench.measure({&kT1, &kT1Profiled}, 0.45 * opt.seconds, 2);
        bench.measure({&kT2Profiled, &kT4Profiled}, 0.3 * opt.seconds, 1);
    } else {
        bench.measure({&kT1, &kT2, &kT4, &kT1Profiled}, opt.seconds, 2,
                      kSetupPerRound);
    }

    int failed = 0;
    for (const RunResult &r : bench.runs())
        failed += !r.failure.empty();
    const int attempted = int(bench.runs().size());
    const bool correct = failed == 0 && attempted > 0;

    if (correct) {
        if (opt.trace)
            perLayerMetrics(bench,
                            std::max(0.05 * opt.seconds,
                                     opt.seconds - bench.elapsed()),
                            spans, metrics);
        else
            endToEndMetrics(bench, metrics);
    }

    if (opt.trace && !opt.traceOut.empty()) {
        std::ofstream f(opt.traceOut);
        f << toJson([&](JsonWriter &w) {
            w.beginObject().key("provenance");
            writeProvenance(w, opt);
            w.key("config");
            writeConfig(w, bench);
            w.kv("failed_runs", failed)
                .kv("attempted_runs", attempted)
                .key("metrics");
            metrics.write(w);
            w.key("spans");
            spans.write(w);
            w.endObject();
        }) << "\n";
        if (!f) {
            std::fprintf(stderr, "stacknoc_perfbench: cannot write '%s'\n",
                         opt.traceOut.c_str());
            return 2;
        }
    }

    std::printf("perfbench provenance %s\n",
                toJson([&](JsonWriter &w) { writeProvenance(w, opt); })
                    .c_str());
    std::printf("perfbench config %s\n",
                toJson([&](JsonWriter &w) { writeConfig(w, bench); })
                    .c_str());
    std::printf("perfbench failed_runs=%d attempted_runs=%d\n", failed,
                attempted);
    metrics.print();
    std::printf("%s\n", toJson([&](JsonWriter &w) {
                    w.beginObject()
                        .kv("correct", correct)
                        .kv("attempted", attempted)
                        .kv("failed", failed)
                        .key("metrics");
                    metrics.write(w);
                    w.endObject();
                }).c_str());
    return correct ? 0 : 1;
}
