/**
 * @file
 * The resident campaign server behind tools/stacknoc_serve.
 *
 * Accepts NDJSON commands on a Unix-domain stream socket (see
 * server/protocol.hh for the grammar), schedules "run" requests over a
 * persistent pool of worker processes, streams each job's interval
 * events back to the submitting client, and caches completed results
 * keyed by the full-config digest: resubmitting an identical request
 * is served from memory without re-simulation, which the determinism
 * contract makes exact, not approximate.
 *
 * Warm-state reuse happens inside the workers (see server/worker.hh):
 * requests that share a warm configuration — same scenario/seed/
 * warm-up, any engine knobs or measured length — skip warm-up via the
 * shared checkpoint directory. With --ckpt-cap-bytes the server keeps
 * that directory under an LRU byte cap.
 *
 * Self-healing (docs/RESILIENCE.md "Fleet tier"): with --store-dir the
 * result cache is backed by a durable on-disk store (ResultStore) and
 * reloaded on startup, so a restarted server serves prior results
 * byte-identically. A job whose worker dies — signal, nonzero exit,
 * pipe EOF — or exceeds --job-deadline-sec is re-dispatched up to
 * --job-retries times with exponential backoff, the final attempt
 * forced cold in case the warm checkpoint itself is the poison; the
 * client still sees exactly one result or one final error carrying the
 * attempt history. --max-queue bounds the queue, shedding load with a
 * structured retry_after_ms error (HTTP 503), and SIGTERM drains
 * gracefully: finish accepted jobs, seal the store, reject new
 * submissions. --chaos injects worker-side failures to prove all of
 * this (see server/chaos.hh).
 *
 * Fleet observability (docs/SERVER.md "Observability"): a
 * MetricsRegistry counts jobs, queueing, cache, checkpoint, store,
 * retry and worker health; an EventLog (--log-json) records every
 * job's lifecycle as NDJSON; and an optional HTTP front end (--http
 * PORT) serves GET /metrics (Prometheus text exposition), GET /status
 * (JSON) and POST /run (RunSpec JSON) to off-host clients beside
 * the socket. All of it is observer-only with respect to simulation:
 * the workers' result payloads and stats digests are byte-identical
 * with every observability feature on or off.
 *
 * Single-threaded: one poll() loop owns the listeners, every client
 * connection, every worker pipe and the signal self-pipe. Workers are
 * separate processes, so the loop only shuttles lines; a worker crash
 * retries its job and the worker is respawned.
 */

#ifndef STACKNOC_SERVER_SERVER_HH
#define STACKNOC_SERVER_SERVER_HH

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include <sys/types.h>

#include "server/chaos.hh"
#include "server/metrics.hh"
#include "server/oblog.hh"
#include "server/protocol.hh"
#include "server/result_store.hh"

namespace stacknoc::server {

/** Human-facing server version, reported in status and /metrics. */
constexpr const char *kServerVersion = "1.2";

class CampaignServer
{
  public:
    struct Options
    {
        std::string socketPath;
        int workers = 1;
        /** Warm-checkpoint directory ("" disables warm reuse). */
        std::string ckptDir;
        /** LRU byte cap on the checkpoint dir (0 = unbounded). */
        std::uint64_t ckptCapBytes = 0;
        /** Executable to spawn workers from (this binary). */
        std::string workerExe;
        /** TCP port for the HTTP front end (-1 off, 0 ephemeral). */
        int httpPort = -1;
        /** Job-lifecycle NDJSON log path ("" disables). */
        std::string logJsonPath;
        /** Log rotation cap in bytes (0 = EventLog default). */
        std::uint64_t logRotateBytes = 0;
        /** Durable result store directory ("" disables). */
        std::string storeDir;
        /** Queue bound; submissions beyond it are shed (0 = none). */
        int maxQueue = 0;
        /** Re-dispatches after a worker death or deadline kill. */
        int jobRetries = 2;
        /** Base retry backoff, doubled per retry. */
        int jobBackoffMs = 200;
        /** Per-attempt wall deadline; 0 disables the watchdog. */
        int jobDeadlineSec = 0;
        /** Failure injection (off unless --chaos was given). */
        ChaosSpec chaos;
    };

    explicit CampaignServer(Options opt);
    ~CampaignServer();

    CampaignServer(const CampaignServer &) = delete;
    CampaignServer &operator=(const CampaignServer &) = delete;

    /** Bind the socket(s) and spawn the worker pool. */
    bool start(std::string &err);

    /** Serve until a shutdown command. @return process exit code. */
    int run();

    /** Actual HTTP port after start() (-1 when disabled). */
    int httpPort() const { return httpPort_; }

  private:
    enum class Transport { Unix, Http };

    struct Client
    {
        int fd = -1;
        std::string inBuf;
    };
    struct HttpClient
    {
        int fd = -1;
        std::string inBuf;
        bool jobPending = false; //!< response deferred to job end
    };
    struct Worker
    {
        pid_t pid = -1;
        int toFd = -1;   //!< server -> worker stdin
        int fromFd = -1; //!< worker stdout -> server
        std::string outBuf;
        bool busy = false;
        std::uint64_t jobId = 0;
        std::uint64_t busySinceUs = 0; //!< monoUs() at dispatch
        std::uint64_t busyAccumUs = 0; //!< total busy time, past jobs
        bool deadlineKilled = false;   //!< killed by the job watchdog
    };
    struct Job
    {
        std::uint64_t id = 0;
        Transport transport = Transport::Unix;
        int clientFd = -1;
        std::uint64_t key = 0;
        system::RunSpec spec;
        int attempt = 1;
        bool forceCold = false; //!< final attempt skips warm restore
        /** One failure reason per exhausted attempt. */
        std::vector<std::string> history;
        std::uint64_t submitUs = 0;    //!< monoUs() at submission
        std::uint64_t dispatchUs = 0;  //!< monoUs() at dispatch
        std::uint64_t notBeforeUs = 0; //!< retry backoff gate
        std::uint64_t deadlineUs = 0;  //!< watchdog kill time (0 none)
    };

    bool spawnWorker(Worker &w, std::string &err);
    void dispatchJobs();
    void handleClientLine(Client &c, const std::string &line);
    void handleWorkerLine(Worker &w, const std::string &line);
    void handleHttpClient(HttpClient &h);
    void handleHttpRequest(HttpClient &h, const std::string &method,
                           const std::string &path,
                           const std::string &body);
    /** Validate+enqueue one run request. Shared by socket and HTTP. */
    void submitRun(const telemetry::JsonValue &doc, Transport transport,
                   int clientFd);
    void finishHttpJob(int fd, int status, const std::string &body);
    void sendToClient(int fd, const std::string &line);
    void sendRaw(int fd, const std::string &bytes);
    void closeClient(int fd);
    void closeHttpClient(int fd);
    void killWorkers();
    void onWorkerDeath(Worker &w);

    /** The NDJSON line dispatched to a worker for @p job. */
    std::string workerLineFor(const Job &job) const;
    /** Retry @p job after @p reason, or fail it for good. */
    void failAttempt(Job &&job, const std::string &reason);
    /** Emit the final error (with attempt history) for @p job. */
    void finalFail(Job &&job, const std::string &reason);
    /** SIGKILL workers whose job passed its deadline. */
    void checkDeadlines();
    /** poll() timeout to the next backoff or deadline (-1 = none). */
    int pollTimeoutMs() const;
    /** Stop accepting jobs; run() exits once the queue drains. */
    void beginDrain();

    /** Refresh point-in-time gauges before a scrape or status. */
    void refreshGauges();
    std::string statusJson();
    std::string renderMetrics();
    void enforceCkptCap();

    /** Microseconds since start() on the steady clock. */
    std::uint64_t monoUs() const;

    Options opt_;
    int listenFd_ = -1;
    int httpListenFd_ = -1;
    int httpPort_ = -1;
    int sigFd_ = -1; //!< read end of the SIGTERM self-pipe
    std::vector<Worker> workers_;
    std::map<int, Client> clients_;
    std::map<int, HttpClient> httpClients_;
    std::deque<Job> queue_;
    /** In-flight jobs by id (owner lookup for worker events). */
    std::map<std::uint64_t, Job> inflight_;
    /** Completed results: cache key digest -> result "data" JSON. */
    std::map<std::uint64_t, std::string> cache_;
    std::uint64_t cacheBytes_ = 0;
    std::uint64_t nextJobId_ = 1;
    std::uint64_t completed_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t retried_ = 0;
    std::uint64_t shed_ = 0;
    std::uint64_t deadlineKills_ = 0;
    std::uint64_t cacheHits_ = 0;
    std::uint64_t respawns_ = 0;
    bool shutdown_ = false;
    bool draining_ = false;
    std::chrono::steady_clock::time_point startTp_{};

    ResultStore store_;
    MetricsRegistry metrics_;
    EventLog log_;
};

} // namespace stacknoc::server

#endif // STACKNOC_SERVER_SERVER_HH
