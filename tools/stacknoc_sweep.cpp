/**
 * @file
 * stacknoc_sweep — design-point grid runner.
 *
 * Fans a scenario grid (scheme x regions x app mix x seed) across
 * parallel stacknoc_run child processes, harvests each child's JSON
 * stats, and writes one merged artifact: fig6-style IPC, throughput,
 * latency and energy per design point. Simulator speed is not its job;
 * perfbench/run.py measures that.
 *
 * Every run record carries a config_digest — the campaign-server cache
 * key for that design point — and the child's stats_digest, so each
 * record names the design it actually ran. The config_digest also makes
 * campaigns resumable:
 * --resume reloads a partial artifact and re-runs only the grid points
 * it is missing. With --server SOCKET the sweep submits jobs to a
 * running stacknoc_serve instead of spawning child processes, so
 * repeated sweeps hit the server's result cache and sweep points
 * sharing a warm configuration reuse warm checkpoints.
 *
 *   stacknoc_sweep --out sweep.json
 *   stacknoc_sweep --schemes MRAM-4TSB,MRAM-4TSB-WB --seeds 3 --jobs 8
 *   stacknoc_sweep --server /tmp/stacknoc.sock --resume
 */

#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/cli.hh"
#include "common/logging.hh"
#include "server/client.hh"
#include "server/protocol.hh"
#include "system/run_spec.hh"
#include "telemetry/json.hh"

using namespace stacknoc;
using system::joinList;
using system::splitList;

namespace {

struct SweepJob
{
    system::RunSpec spec;
    int regions = 0;  //!< resolved region-TSB count (0 = unrestricted)
};

struct SweepResult
{
    SweepJob job;
    bool ok = false;
    /** Child's specific exit code (128+signal if killed); 0 when ok. */
    int exitCode = 0;
    std::string configDigest; //!< campaign cache key for this point
    std::string statsDigest;  //!< child's full-stats digest ("0x...")
    double meanIpc = 0.0;
    double instrThroughput = 0.0;
    double avgNetLatency = 0.0;
    double p95NetLatency = 0.0;
    double wallSeconds = 0.0;
    double totalEnergyUJ = 0.0; //!< child's metrics.energy_uj.total
};

struct SweepOptions
{
    std::vector<std::string> schemes{"MRAM-64TSB", "MRAM-4TSB",
                                     "MRAM-4TSB-WB"};
    /** Region-count overrides; empty runs each scenario's own. */
    std::vector<std::optional<int>> regions{std::nullopt};
    std::vector<std::string> mixes{"tpcc", "tpcc,lbm,mcf,libquantum"};
    int seeds = 1;
    /** Cycles, warm-up and engine threads shared by every job. */
    system::RunSpec base;
    int jobs = 0; //!< 0 = hardware concurrency
    std::string runner;
    std::string out = "sweep.json";
    bool resume = false;
    std::string server; //!< stacknoc_serve socket; empty = children
    int connectRetries = 0;    //!< --server connect re-attempts
    int connectBackoffMs = 100; //!< base backoff, doubled per retry
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr, R"(usage: stacknoc_sweep [options]
  --schemes A,B,..   scenario names (default MRAM-64TSB,MRAM-4TSB,MRAM-4TSB-WB)
  --regions N,..     region-count overrides (default: each scenario's own)
  --mixes M1:M2:..   app mixes, ':'-separated, each a comma list
                     (default tpcc:tpcc,lbm,mcf,libquantum)
  --seeds N          seeds 1..N per design point (default 1)
  --cycles N         measured cycles per run (default 20000)
  --warmup N         warm-up cycles per run (default 3000)
  --jobs N           parallel child processes (default: hw threads)
  --threads N        engine threads inside each child (default 1)
  --runner PATH      stacknoc_run binary (default: next to this binary)
  --out FILE         merged artifact (default sweep.json)
  --resume           reload an existing --out artifact and skip grid
                     points whose config_digest is already present with
                     ok:true (interrupted campaigns pick up where they
                     stopped)
  --server SOCKET    submit jobs to a running stacknoc_serve on this
                     Unix socket instead of spawning child processes
  --connect-retries N    with --server: re-attempt a refused/missing
                     socket up to N times (default 0)
  --connect-backoff-ms N base connect retry backoff, doubled per retry
                     (default 100)
)");
    std::exit(2);
}

const std::vector<std::string> kKnownOptions = {
    "--schemes", "--regions", "--mixes", "--seeds", "--cycles",
    "--warmup", "--jobs", "--threads", "--runner", "--out", "--resume",
    "--server", "--connect-retries", "--connect-backoff-ms",
};

/**
 * fork/exec @p args (argv[0] is the binary), stdout/stderr to
 * /dev/null. @return the child's specific exit code, 128+signal if it
 * was killed, or -1 if the spawn itself failed.
 */
int
runChild(const std::vector<std::string> &args)
{
    std::vector<char *> argv;
    argv.reserve(args.size() + 1);
    for (const auto &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0)
        return -1;
    if (pid == 0) {
        const int devnull = ::open("/dev/null", O_WRONLY);
        if (devnull >= 0) {
            ::dup2(devnull, STDOUT_FILENO);
            ::dup2(devnull, STDERR_FILENO);
            ::close(devnull);
        }
        ::execv(argv[0], argv.data());
        ::_exit(127);
    }
    int status = 0;
    if (::waitpid(pid, &status, 0) < 0)
        return -1;
    if (WIFEXITED(status))
        return WEXITSTATUS(status);
    if (WIFSIGNALED(status))
        return 128 + WTERMSIG(status);
    return -1;
}

/** Member @p key of JSON object @p obj as a number; 0 when absent. */
double
numberAt(const telemetry::JsonValue *obj, const char *key)
{
    const auto *v = obj != nullptr ? obj->find(key) : nullptr;
    return v != nullptr && v->isNumber() ? v->asDouble() : 0.0;
}

/** Run one child via fork/exec, parse its --json-stats output. */
SweepResult
runJob(const SweepOptions &opt, const SweepJob &job, int idx)
{
    SweepResult res;
    res.job = job;
    res.configDigest = server::hexKey(server::cacheKeyDigest(job.spec));

    const std::string json_path =
        (std::filesystem::temp_directory_path() /
         detail::format("stacknoc_sweep_%d_%d.json",
                        static_cast<int>(::getpid()), idx))
            .string();

    std::vector<std::string> args = job.spec.toArgs();
    args.insert(args.begin(), opt.runner);
    args.insert(args.end(), {"--digest", "--json-stats", json_path});

    const int rc = runChild(args);
    res.exitCode = rc;
    if (rc != 0) {
        warn("sweep: child failed (exit=%d): %s %s r%d %s seed=%llu",
             rc, opt.runner.c_str(), job.spec.scenario.c_str(),
             job.regions, joinList(job.spec.apps).c_str(),
             static_cast<unsigned long long>(job.spec.seed));
        return res;
    }

    std::ifstream in(json_path);
    std::stringstream buf;
    buf << in.rdbuf();
    std::filesystem::remove(json_path);

    std::string err;
    const auto doc = telemetry::JsonValue::parse(buf.str(), &err);
    if (!doc) {
        warn("sweep: bad child json (%s) for %s seed=%llu", err.c_str(),
             job.spec.scenario.c_str(),
             static_cast<unsigned long long>(job.spec.seed));
        return res;
    }

    const auto *metrics = doc->find("metrics");
    const auto *perf = doc->find("perf");
    if (!metrics || !perf) {
        warn("sweep: child json missing metrics/perf for %s",
             job.spec.scenario.c_str());
        return res;
    }
    res.meanIpc = numberAt(metrics, "mean_ipc");
    res.instrThroughput = numberAt(metrics, "instruction_throughput");
    res.avgNetLatency = numberAt(metrics, "avg_network_latency");
    res.p95NetLatency = numberAt(metrics, "p95_network_latency");
    res.wallSeconds = numberAt(perf, "wall_seconds");
    res.totalEnergyUJ = numberAt(metrics->find("energy_uj"), "total");
    if (const auto *run = doc->find("run"); run && run->isObject())
        if (const auto *d = run->find("stats_digest");
            d && d->isString())
            res.statsDigest = d->asString();
    res.ok = true;
    return res;
}

/**
 * Run all @p jobs through a stacknoc_serve campaign server: submit
 * every request up-front (the server parallelises across its worker
 * pool and serves repeats from its result cache), then harvest events.
 * @return false if the connection fails before every job completes.
 */
bool
runJobsViaServer(const SweepOptions &opt,
                 const std::vector<SweepJob> &jobs,
                 std::vector<SweepResult> &results)
{
    server::Connection conn;
    std::string err;
    if (!conn.connectWithRetry(opt.server, opt.connectRetries,
                               opt.connectBackoffMs, err)) {
        warn("sweep: %s", err.c_str());
        return false;
    }

    // accepted events arrive in submission order, which maps the
    // server-assigned job ids onto our indices.
    std::deque<std::size_t> awaitingAccept;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        results[i].job = jobs[i];
        results[i].configDigest =
            server::hexKey(server::cacheKeyDigest(jobs[i].spec));
        if (!conn.sendLine(server::runCommand(jobs[i].spec), err)) {
            warn("sweep: %s", err.c_str());
            return false;
        }
        awaitingAccept.push_back(i);
    }

    std::map<std::uint64_t, std::size_t> byId;
    std::size_t outstanding = jobs.size();
    std::string line;
    while (outstanding > 0 && conn.readLine(line, err)) {
        std::string perr;
        const auto doc = telemetry::JsonValue::parse(line, &perr);
        if (!doc || !doc->isObject())
            continue;
        const auto *ev = doc->find("event");
        const std::string kind =
            ev && ev->isString() ? ev->asString() : "";
        std::uint64_t id = 0;
        if (const auto *m = doc->find("id"); m && m->isNumber())
            id = static_cast<std::uint64_t>(m->asDouble());

        if (kind == "accepted") {
            if (!awaitingAccept.empty()) {
                byId[id] = awaitingAccept.front();
                awaitingAccept.pop_front();
            }
            continue;
        }
        const auto owner = byId.find(id);
        if (owner == byId.end())
            continue;
        SweepResult &res = results[owner->second];
        if (kind == "error") {
            const auto *reason = doc->find("reason");
            warn("sweep: server error on %s: %s",
                 res.job.spec.scenario.c_str(),
                 reason && reason->isString()
                     ? reason->asString().c_str()
                     : "?");
            res.exitCode = 1;
            --outstanding;
            continue;
        }
        if (kind != "result")
            continue;
        const auto *data = doc->find("data");
        if (data && data->isObject()) {
            res.meanIpc = numberAt(data, "mean_ipc");
            res.instrThroughput = numberAt(data, "instruction_throughput");
            res.avgNetLatency = numberAt(data, "avg_network_latency");
            res.p95NetLatency = numberAt(data, "p95_network_latency");
            res.wallSeconds = numberAt(data, "wall_seconds");
            res.totalEnergyUJ = numberAt(data, "total_energy_uj");
            if (const auto *d = data->find("stats_digest");
                d && d->isString())
                res.statsDigest = d->asString();
            res.ok = true;
        } else {
            res.exitCode = 1;
        }
        --outstanding;
    }
    if (outstanding > 0) {
        warn("sweep: server connection lost with %zu job(s) pending%s%s",
             outstanding, err.empty() ? "" : ": ", err.c_str());
        return false;
    }
    return true;
}

/**
 * Load ok:true records from a previous artifact, keyed by
 * config_digest, so --resume can skip and re-emit them verbatim.
 */
std::map<std::string, std::string>
loadResume(const std::string &path)
{
    std::map<std::string, std::string> records;
    std::ifstream in(path);
    if (!in)
        return records;
    std::stringstream buf;
    buf << in.rdbuf();
    std::string err;
    const auto doc = telemetry::JsonValue::parse(buf.str(), &err);
    if (!doc || !doc->isObject()) {
        warn("sweep: cannot resume from '%s': %s", path.c_str(),
             err.empty() ? "not a JSON object" : err.c_str());
        return records;
    }
    const auto *runs = doc->find("runs");
    if (!runs || !runs->isArray())
        return records;
    for (const telemetry::JsonValue &r : runs->elements()) {
        if (!r.isObject())
            continue;
        const auto *ok = r.find("ok");
        const auto *digest = r.find("config_digest");
        if (ok && ok->type() == telemetry::JsonValue::Type::Bool &&
            ok->asBool() && digest && digest->isString())
            records[digest->asString()] =
                telemetry::jsonValueToString(r);
    }
    return records;
}

void
writeRun(telemetry::JsonWriter &w, const SweepResult &r)
{
    w.beginObject();
    w.kv("scenario", r.job.spec.scenario);
    w.kv("regions", r.job.regions);
    w.kv("mix", joinList(r.job.spec.apps));
    w.kv("seed", r.job.spec.seed);
    w.kv("threads", r.job.spec.threads);
    w.kv("ok", r.ok);
    w.kv("exit_code", r.exitCode);
    w.kv("config_digest", r.configDigest);
    w.kv("stats_digest", r.statsDigest);
    w.kv("mean_ipc", r.meanIpc);
    w.kv("instruction_throughput", r.instrThroughput);
    w.kv("avg_network_latency", r.avgNetLatency);
    w.kv("p95_network_latency", r.p95NetLatency);
    w.kv("wall_seconds", r.wallSeconds);
    w.kv("total_energy_uj", r.totalEnergyUJ);
    w.endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    SweepOptions opt;
    // Spec-grammar errors exit 2 with a one-line reason, as in
    // stacknoc_run.
    const auto specArg = [](const std::string &err) {
        if (err.empty())
            return;
        std::fprintf(stderr, "stacknoc_sweep: %s\n", err.c_str());
        std::exit(2);
    };

    auto need = [&](int i) {
        if (i + 1 >= argc)
            usage();
        return std::string(argv[i + 1]);
    };
    // An int flag's value (consumed, so i moves past it), >= lo.
    const auto num = [&](int &i, const char *flag, int lo) {
        return cli::parseInt("stacknoc_sweep", flag, need(i++).c_str(), lo,
                             std::numeric_limits<int>::max());
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--schemes") {
            opt.schemes = splitList(need(i), ','); ++i;
        } else if (arg == "--regions") {
            opt.regions.clear();
            for (const auto &r : splitList(need(i), ',')) {
                system::RunSpec one;
                specArg(one.set(arg, r));
                opt.regions.push_back(one.regions);
            }
            ++i;
        } else if (arg == "--mixes") {
            opt.mixes = splitList(need(i), ':'); ++i;
        } else if (arg == "--seeds") {
            opt.seeds = num(i, "--seeds", 1);
        } else if (arg == "--cycles" || arg == "--warmup" ||
                   arg == "--threads") {
            specArg(opt.base.set(arg, need(i))); ++i;
        } else if (arg == "--jobs") {
            opt.jobs = num(i, "--jobs", 0);
        } else if (arg == "--runner") {
            opt.runner = need(i); ++i;
        } else if (arg == "--out") {
            opt.out = need(i); ++i;
        } else if (arg == "--resume") {
            opt.resume = true;
        } else if (arg == "--server") {
            opt.server = need(i); ++i;
        } else if (arg == "--connect-retries") {
            opt.connectRetries = num(i, "--connect-retries", 0);
        } else if (arg == "--connect-backoff-ms") {
            opt.connectBackoffMs = num(i, "--connect-backoff-ms", 0);
        } else {
            cli::reportUnknownOption("stacknoc_sweep", arg,
                                     kKnownOptions);
            usage();
        }
    }

    if (opt.runner.empty()) {
        // Default: the stacknoc_run built next to this binary.
        opt.runner = (std::filesystem::path(argv[0]).parent_path() /
                      "stacknoc_run")
                         .string();
    }
    fatal_if(opt.server.empty() &&
                 !std::filesystem::exists(opt.runner),
             "runner '%s' not found (use --runner)", opt.runner.c_str());
    if (opt.jobs <= 0) {
        opt.jobs = static_cast<int>(std::thread::hardware_concurrency());
        if (opt.jobs <= 0)
            opt.jobs = 4;
    }

    // Build the grid. Every job resolves up front, so a scenario that
    // cannot honour an override fails the whole campaign before
    // anything runs.
    std::vector<SweepJob> jobs;
    for (const auto &scheme : opt.schemes)
        for (const auto &regions : opt.regions)
            for (const auto &mix : opt.mixes)
                for (int s = 1; s <= opt.seeds; ++s) {
                    SweepJob j;
                    j.spec = opt.base;
                    j.spec.scenario = scheme;
                    j.spec.regions = regions;
                    j.spec.apps = splitList(mix);
                    j.spec.seed = static_cast<std::uint64_t>(s);
                    system::SystemConfig cfg;
                    specArg(j.spec.resolve(cfg));
                    j.regions = cfg.scenario.tsbRegions;
                    jobs.push_back(std::move(j));
                }

    // --resume: skip grid points an earlier (interrupted) campaign
    // already completed; their records are re-emitted verbatim.
    std::vector<std::string> resumedRecords;
    if (opt.resume) {
        const auto prior = loadResume(opt.out);
        if (!prior.empty()) {
            std::vector<SweepJob> pending;
            for (const auto &j : jobs) {
                const auto it = prior.find(
                    server::hexKey(server::cacheKeyDigest(j.spec)));
                if (it != prior.end())
                    resumedRecords.push_back(it->second);
                else
                    pending.push_back(j);
            }
            std::fprintf(stderr,
                         "sweep: resume skips %zu completed grid "
                         "point(s) from %s\n",
                         resumedRecords.size(), opt.out.c_str());
            jobs = std::move(pending);
        }
    }

    std::vector<SweepResult> results(jobs.size());
    const auto report = [&](std::size_t i) {
        std::fprintf(stderr, "  [%zu/%zu] %s r%d %s seed=%llu t%d %s\n",
                     i + 1, jobs.size(), jobs[i].spec.scenario.c_str(),
                     jobs[i].regions, joinList(jobs[i].spec.apps).c_str(),
                     static_cast<unsigned long long>(jobs[i].spec.seed),
                     jobs[i].spec.threads,
                     results[i].ok ? "ok" : "FAILED");
    };
    if (!opt.server.empty()) {
        std::fprintf(stderr, "sweep: %zu job(s) via server %s\n",
                     jobs.size(), opt.server.c_str());
        if (!runJobsViaServer(opt, jobs, results))
            return 1;
        for (std::size_t i = 0; i < results.size(); ++i)
            report(i);
    } else {
        std::fprintf(stderr,
                     "sweep: %zu job(s) across %d process(es)\n",
                     jobs.size(), opt.jobs);
        std::mutex m;
        std::size_t next = 0;
        auto worker = [&] {
            for (;;) {
                std::size_t idx;
                {
                    std::lock_guard<std::mutex> lk(m);
                    if (next >= jobs.size())
                        return;
                    idx = next++;
                }
                results[idx] =
                    runJob(opt, jobs[idx], static_cast<int>(idx));
                std::lock_guard<std::mutex> lk(m);
                report(idx);
            }
        };
        std::vector<std::thread> pool;
        for (int t = 0; t < opt.jobs; ++t)
            pool.emplace_back(worker);
        for (auto &t : pool)
            t.join();
    }

    int failed = 0;
    int firstExit = 0;
    for (const auto &r : results) {
        if (r.ok)
            continue;
        ++failed;
        if (firstExit == 0)
            firstExit = r.exitCode > 0 ? r.exitCode : 1;
    }

    // Merge into the campaign artifact.
    std::ofstream out(opt.out);
    fatal_if(!out, "cannot open '%s'", opt.out.c_str());
    telemetry::JsonWriter w(out);
    w.beginObject();
    w.kv("tool", "stacknoc_sweep");
    // Version 6: the sweep stops measuring simulator speed. The
    // top-level "bench" tag, the "speedup" block and the record fields
    // ticks_per_sec, active_fraction, peak_temp_c and profile_phases
    // are gone (perfbench/run.py measures speed). Version 5 added
    // exit_code, config_digest (the campaign-server cache key, also the
    // --resume identity) and stats_digest.
    w.kv("schema_version", 6);
    w.key("grid");
    w.beginObject();
    w.kv("cycles", opt.base.cycles);
    w.kv("warmup", opt.base.warmup);
    w.kv("seeds", opt.seeds);
    w.kv("threads", opt.base.threads);
    w.endObject();
    w.key("runs");
    w.beginArray();
    for (const auto &rec : resumedRecords) {
        std::string err;
        if (const auto v = telemetry::JsonValue::parse(rec, &err))
            telemetry::writeJsonValue(w, *v);
    }
    for (const auto &r : results)
        writeRun(w, r);
    w.endArray();
    w.endObject();
    out << "\n";

    std::printf("sweep: %zu job(s) (%zu resumed), %d failed, "
                "artifact %s\n",
                results.size() + resumedRecords.size(),
                resumedRecords.size(), failed, opt.out.c_str());
    // A failed campaign exits with the first child's specific code so
    // callers can tell a simulation abort from a bad checkpoint (2),
    // a missing binary (127) or a crash (128+signal).
    return failed == 0 ? 0 : firstExit;
}
