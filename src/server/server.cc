#include "server/server.hh"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <sstream>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "server/protocol.hh"
#include "snapshot/checkpoint.hh"
#include "telemetry/json.hh"

namespace stacknoc::server {

using telemetry::JsonValue;
using telemetry::JsonWriter;
using telemetry::jsonValueToString;

namespace {

std::string
eventLine(const std::function<void(JsonWriter &)> &body)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    body(w);
    w.endObject();
    return os.str();
}

bool
memberBool(const JsonValue &obj, const char *key)
{
    const JsonValue *m = obj.find(key);
    return m != nullptr && m->type() == JsonValue::Type::Bool &&
           m->asBool();
}

// SIGTERM self-pipe: the handler only writes one byte; the poll loop
// reads it and starts the graceful drain on the main thread, so no
// server state is ever touched from signal context.
int gSigWriteFd = -1;

void
onSigTerm(int)
{
    if (gSigWriteFd >= 0) {
        const char b = 't';
        [[maybe_unused]] const ssize_t n = ::write(gSigWriteFd, &b, 1);
    }
}

} // namespace

CampaignServer::CampaignServer(Options opt) : opt_(std::move(opt)) {}

CampaignServer::~CampaignServer()
{
    killWorkers();
    if (listenFd_ >= 0)
        ::close(listenFd_);
    if (sigFd_ >= 0) {
        ::close(sigFd_);
        if (gSigWriteFd >= 0) {
            ::close(gSigWriteFd);
            gSigWriteFd = -1;
        }
    }
    for (auto &[fd, c] : clients_)
        ::close(fd);
    if (!opt_.socketPath.empty())
        ::unlink(opt_.socketPath.c_str());
}

std::uint64_t
CampaignServer::monoUs() const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - startTp_)
            .count());
}

bool
CampaignServer::spawnWorker(Worker &w, std::string &err)
{
    int toPipe[2];   // server writes -> worker stdin
    int fromPipe[2]; // worker stdout -> server reads
    if (::pipe(toPipe) != 0) {
        err = std::string("pipe: ") + std::strerror(errno);
        return false;
    }
    if (::pipe(fromPipe) != 0) {
        err = std::string("pipe: ") + std::strerror(errno);
        ::close(toPipe[0]);
        ::close(toPipe[1]);
        return false;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
        err = std::string("fork: ") + std::strerror(errno);
        ::close(toPipe[0]);
        ::close(toPipe[1]);
        ::close(fromPipe[0]);
        ::close(fromPipe[1]);
        return false;
    }
    if (pid == 0) {
        // Worker child: stdin/stdout are the job pipes; stderr passes
        // through to the server's stderr for diagnostics.
        ::dup2(toPipe[0], STDIN_FILENO);
        ::dup2(fromPipe[1], STDOUT_FILENO);
        ::close(toPipe[0]);
        ::close(toPipe[1]);
        ::close(fromPipe[0]);
        ::close(fromPipe[1]);
        if (listenFd_ >= 0)
            ::close(listenFd_);
        if (sigFd_ >= 0)
            ::close(sigFd_);
        if (gSigWriteFd >= 0)
            ::close(gSigWriteFd);
        if (opt_.chaos.any()) {
            // Workers do the injecting; the spec rides the exec line.
            std::string spec;
            if (opt_.chaos.killWorker > 0.0)
                spec += "kill-worker=" +
                        std::to_string(opt_.chaos.killWorker);
            if (opt_.chaos.corruptCkpt > 0.0)
                spec += std::string(spec.empty() ? "" : ",") +
                        "corrupt-ckpt=" +
                        std::to_string(opt_.chaos.corruptCkpt);
            if (opt_.chaos.slowWorker > 0.0)
                spec += std::string(spec.empty() ? "" : ",") +
                        "slow-worker=" +
                        std::to_string(opt_.chaos.slowWorker);
            const std::string seed = std::to_string(opt_.chaos.seed);
            ::execl(opt_.workerExe.c_str(), opt_.workerExe.c_str(),
                    "--worker", "--ckpt-dir", opt_.ckptDir.c_str(),
                    "--chaos", spec.c_str(), "--chaos-seed",
                    seed.c_str(), static_cast<char *>(nullptr));
        } else {
            ::execl(opt_.workerExe.c_str(), opt_.workerExe.c_str(),
                    "--worker", "--ckpt-dir", opt_.ckptDir.c_str(),
                    static_cast<char *>(nullptr));
        }
        std::fprintf(stderr, "stacknoc_serve: exec '%s' failed: %s\n",
                     opt_.workerExe.c_str(), std::strerror(errno));
        ::_exit(127);
    }
    ::close(toPipe[0]);
    ::close(fromPipe[1]);
    w.pid = pid;
    w.toFd = toPipe[1];
    w.fromFd = fromPipe[0];
    w.outBuf.clear();
    w.busy = false;
    w.jobId = 0;
    w.deadlineKilled = false;
    return true;
}

bool
CampaignServer::start(std::string &err)
{
    ::signal(SIGPIPE, SIG_IGN);
    startTp_ = std::chrono::steady_clock::now();

    if (!opt_.ckptDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(opt_.ckptDir, ec);
        if (ec) {
            err = "cannot create checkpoint dir '" + opt_.ckptDir +
                  "': " + ec.message();
            return false;
        }
    }

    if (!opt_.storeDir.empty()) {
        // Replay the durable store into the result cache before any
        // client connects: a restarted server serves prior results
        // byte-identically. emplace keeps the first payload per key,
        // matching the store's oldest-first replay order.
        if (!store_.open(
                opt_.storeDir,
                [&](std::uint64_t key, const std::string &payload) {
                    cache_.emplace(key, payload);
                },
                err))
            return false;
    }

    // SIGTERM drains gracefully via a self-pipe in the poll set.
    {
        int sp[2];
        if (::pipe(sp) == 0) {
            sigFd_ = sp[0];
            gSigWriteFd = sp[1];
            ::signal(SIGTERM, onSigTerm);
        }
    }

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0) {
        err = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opt_.socketPath.size() >= sizeof(addr.sun_path)) {
        err = "socket path too long: " + opt_.socketPath;
        return false;
    }
    std::strncpy(addr.sun_path, opt_.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(opt_.socketPath.c_str());
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        err = "bind '" + opt_.socketPath +
              "': " + std::strerror(errno);
        return false;
    }
    if (::listen(listenFd_, 64) != 0) {
        err = std::string("listen: ") + std::strerror(errno);
        return false;
    }

    workers_.resize(static_cast<std::size_t>(opt_.workers));
    for (auto &w : workers_)
        if (!spawnWorker(w, err))
            return false;

    // A previous server's leftovers count against the cap immediately.
    enforceCkptCap();
    return true;
}

void
CampaignServer::sendToClient(int fd, const std::string &line)
{
    if (clients_.find(fd) == clients_.end())
        return; // submitter went away; drop the event
    std::string msg = line + "\n";
    std::size_t off = 0;
    while (off < msg.size()) {
        const ssize_t n =
            ::write(fd, msg.data() + off, msg.size() - off);
        if (n <= 0) {
            closeClient(fd);
            return;
        }
        off += static_cast<std::size_t>(n);
    }
}

void
CampaignServer::closeClient(int fd)
{
    const auto it = clients_.find(fd);
    if (it == clients_.end())
        return;
    ::close(fd);
    clients_.erase(it);
    // Orphan any queued/in-flight jobs: they still run (to fill the
    // cache) but their events have nowhere to go.
    for (auto &j : queue_)
        if (j.clientFd == fd)
            j.clientFd = -1;
    for (auto &[id, j] : inflight_)
        if (j.clientFd == fd)
            j.clientFd = -1;
}

std::string
CampaignServer::workerLineFor(const Job &job) const
{
    // Rebuilt per dispatch: the attempt number keys the worker's chaos
    // draws, and "cold" rides only the final retry.
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.kv("id", job.id);
    w.kv("attempt", job.attempt);
    if (job.forceCold)
        w.kv("cold", true);
    job.spec.writeJson(w);
    w.endObject();
    return os.str();
}

void
CampaignServer::dispatchJobs()
{
    const std::uint64_t ready = monoUs();
    for (auto &w : workers_) {
        if (w.busy || w.pid < 0)
            continue;
        // First job past its backoff gate; retries keep queue order.
        auto jit = queue_.begin();
        for (; jit != queue_.end(); ++jit)
            if (jit->notBeforeUs <= ready)
                break;
        if (jit == queue_.end())
            return;
        Job job = std::move(*jit);
        queue_.erase(jit);
        const std::string line = workerLineFor(job) + "\n";
        std::size_t off = 0;
        bool failed = false;
        while (off < line.size()) {
            const ssize_t n =
                ::write(w.toFd, line.data() + off, line.size() - off);
            if (n <= 0) {
                failed = true;
                break;
            }
            off += static_cast<std::size_t>(n);
        }
        if (failed) {
            failAttempt(std::move(job), "worker pipe write failed");
            continue;
        }
        if (opt_.jobDeadlineSec > 0)
            job.deadlineUs =
                monoUs() + static_cast<std::uint64_t>(opt_.jobDeadlineSec) *
                               1000000ull;
        w.busy = true;
        w.jobId = job.id;
        inflight_.emplace(job.id, std::move(job));
    }
}

void
CampaignServer::finalFail(Job &&job, const std::string &reason)
{
    ++failed_;
    const std::string ev = eventLine([&](JsonWriter &jw) {
        jw.kv("event", "error");
        jw.kv("id", job.id);
        jw.kv("reason", reason);
        jw.kv("attempts", job.attempt);
        jw.key("attempt_history");
        jw.beginArray();
        for (const auto &h : job.history)
            jw.value(h);
        jw.endArray();
    });
    sendToClient(job.clientFd, ev);
}

void
CampaignServer::failAttempt(Job &&job, const std::string &reason)
{
    job.history.push_back("attempt " + std::to_string(job.attempt) +
                          ": " + reason);
    if (job.attempt > opt_.jobRetries) {
        finalFail(std::move(job), reason);
        return;
    }
    // Exponential backoff; the poll timeout wakes the loop when the
    // gate opens. The final attempt runs cold in case the warm
    // checkpoint itself is what kills the worker.
    const std::uint64_t backoffUs =
        (static_cast<std::uint64_t>(
             opt_.jobBackoffMs > 0 ? opt_.jobBackoffMs : 1)
         << (job.attempt - 1)) *
        1000ull;
    job.attempt += 1;
    job.forceCold = job.attempt > opt_.jobRetries;
    job.notBeforeUs = monoUs() + backoffUs;
    ++retried_;
    queue_.push_back(std::move(job));
}

void
CampaignServer::checkDeadlines()
{
    if (opt_.jobDeadlineSec <= 0)
        return;
    const std::uint64_t now = monoUs();
    for (auto &w : workers_) {
        if (!w.busy || w.pid <= 0 || w.deadlineKilled)
            continue;
        const auto it = inflight_.find(w.jobId);
        if (it == inflight_.end() || it->second.deadlineUs == 0 ||
            now < it->second.deadlineUs)
            continue;
        // The kill surfaces as pipe EOF; onWorkerDeath routes the job
        // through failAttempt with the deadline reason.
        w.deadlineKilled = true;
        ++deadlineKills_;
        ::kill(w.pid, SIGKILL);
    }
}

int
CampaignServer::pollTimeoutMs() const
{
    std::uint64_t next = UINT64_MAX;
    for (const auto &j : queue_)
        if (j.notBeforeUs > 0)
            next = std::min(next, j.notBeforeUs);
    if (opt_.jobDeadlineSec > 0)
        for (const auto &[id, j] : inflight_)
            if (j.deadlineUs > 0)
                next = std::min(next, j.deadlineUs);
    if (next == UINT64_MAX)
        return -1;
    const std::uint64_t now = monoUs();
    if (next <= now)
        return 0;
    return static_cast<int>(
        std::min<std::uint64_t>((next - now) / 1000 + 1, 60000));
}

std::string
CampaignServer::statusJson() const
{
    int busy = 0;
    for (const auto &w : workers_)
        busy += w.busy ? 1 : 0;
    return eventLine([&](JsonWriter &w) {
        w.kv("event", "status");
        w.kv("version", kServerVersion);
        w.kv("uptime_sec",
             static_cast<double>(monoUs()) / 1e6);
        w.kv("workers", static_cast<int>(workers_.size()));
        w.kv("busy", busy);
        w.kv("queued", static_cast<std::uint64_t>(queue_.size()));
        w.kv("cache_entries",
             static_cast<std::uint64_t>(cache_.size()));
        w.kv("cache_hits", cacheHits_);
        w.kv("jobs_submitted", submitted_);
        w.kv("completed", completed_);
        w.kv("jobs_failed", failed_);
        w.kv("jobs_retried", retried_);
        w.kv("jobs_shed", shed_);
        w.kv("deadline_kills", deadlineKills_);
        w.kv("worker_respawns", respawns_);
        w.kv("draining", draining_);
        w.kv("ckpt_restores", ckptRestores_);
        w.kv("ckpt_cold_warms", ckptColdWarms_);
        w.kv("ckpt_saves", ckptSaves_);
        w.kv("ckpt_restore_fallbacks", ckptFallbacks_);
        w.kv("ckpt_evictions", ckptEvictions_);
        if (!opt_.ckptDir.empty()) {
            const auto usage = snapshot::ckptDirUsage(opt_.ckptDir);
            w.kv("ckpt_files", usage.files);
            w.kv("ckpt_bytes", usage.bytes);
        }
        if (store_.enabled()) {
            const ResultStore::Stats &st = store_.stats();
            w.kv("store_recovered", st.recoveredRecords);
            w.kv("store_skipped", st.skippedRecords);
            w.kv("store_appends", st.appends);
            w.kv("store_append_failures", st.appendFailures);
            w.kv("store_segments", st.segments);
        }
    });
}

void
CampaignServer::enforceCkptCap()
{
    if (opt_.ckptDir.empty() || opt_.ckptCapBytes == 0)
        return;
    ckptEvictions_ +=
        snapshot::evictCheckpointsLru(opt_.ckptDir, opt_.ckptCapBytes);
}

void
CampaignServer::submitRun(const JsonValue &doc, int clientFd)
{
    // Every refusal is one id-0 error event, with an optional marker
    // member and retry hint.
    const auto refuse = [&](const std::string &reason,
                            const char *marker = nullptr,
                            std::uint64_t retryMs = 0) {
        sendToClient(clientFd, eventLine([&](JsonWriter &w) {
                         w.kv("event", "error");
                         w.kv("id", std::uint64_t{0});
                         w.kv("reason", reason);
                         if (marker != nullptr)
                             w.kv(marker, true);
                         if (retryMs > 0)
                             w.kv("retry_after_ms", retryMs);
                     }));
    };

    system::RunSpec spec;
    std::string err = spec.readJson(doc);
    // Resolve now so bad requests fail at submission, not in a worker.
    system::SystemConfig cfg;
    if (err.empty())
        err = spec.resolve(cfg);
    if (!err.empty()) {
        refuse(err);
        return;
    }

    const std::uint64_t key = cacheKeyDigest(spec);
    const auto cached = cache_.find(key);
    const bool hit = cached != cache_.end();

    // Admission control: cache hits always answer (no worker needed),
    // but new work is refused while draining and shed when the queue
    // is at its bound — with enough structure for the client to retry.
    if (!hit && draining_) {
        refuse("server draining; not accepting new jobs", "draining");
        return;
    }
    if (!hit && opt_.maxQueue > 0 &&
        queue_.size() >= static_cast<std::size_t>(opt_.maxQueue)) {
        ++shed_;
        // Rough drain-time estimate: jobs ahead over pool width, at
        // a conservative 250 ms per job, capped so clients never park
        // for long on a transient spike.
        const std::uint64_t ahead = queue_.size() + inflight_.size();
        const std::uint64_t retryMs = std::min<std::uint64_t>(
            250 * (ahead / std::max<std::size_t>(workers_.size(), 1) +
                   1),
            10000);
        refuse("queue full (" + std::to_string(queue_.size()) +
                   " jobs waiting); retry later",
               "shed", retryMs);
        return;
    }

    const std::uint64_t id = nextJobId_++;
    ++submitted_;
    sendToClient(clientFd, eventLine([&](JsonWriter &w) {
                     w.kv("event", "accepted");
                     w.kv("id", id);
                     w.kv("cache", hit ? "hit" : "miss");
                     w.kv("key", hexKey(key));
                 }));

    if (hit) {
        ++cacheHits_;
        std::ostringstream os;
        os << "{\"event\":\"result\",\"id\":" << id
           << ",\"cached\":true,\"key\":\"" << hexKey(key)
           << "\",\"data\":" << cached->second << "}";
        sendToClient(clientFd, os.str());
        return;
    }

    Job job;
    job.id = id;
    job.clientFd = clientFd;
    job.key = key;
    job.spec = spec;
    queue_.push_back(std::move(job));
    dispatchJobs();
}

void
CampaignServer::handleClientLine(Client &c, const std::string &line)
{
    std::string perr;
    const auto doc = JsonValue::parse(line, &perr);
    if (!doc || !doc->isObject()) {
        sendToClient(c.fd, eventLine([&](JsonWriter &w) {
                         w.kv("event", "error");
                         w.kv("id", std::uint64_t{0});
                         w.kv("reason", "bad command json: " + perr);
                     }));
        return;
    }
    const JsonValue *cmd = doc->find("cmd");
    const std::string cmdName =
        cmd != nullptr && cmd->isString() ? cmd->asString() : "";

    if (cmdName == "status") {
        sendToClient(c.fd, statusJson());
        return;
    }
    if (cmdName == "shutdown") {
        sendToClient(c.fd, eventLine([&](JsonWriter &w) {
                         w.kv("event", "bye");
                     }));
        shutdown_ = true;
        return;
    }
    if (cmdName != "run") {
        sendToClient(c.fd, eventLine([&](JsonWriter &w) {
                         w.kv("event", "error");
                         w.kv("id", std::uint64_t{0});
                         w.kv("reason",
                              "unknown cmd '" + cmdName +
                                  "' (run|status|shutdown)");
                     }));
        return;
    }
    submitRun(*doc, c.fd);
}

void
CampaignServer::handleWorkerLine(Worker &w, const std::string &line)
{
    std::string perr;
    const auto doc = JsonValue::parse(line, &perr);
    if (!doc || !doc->isObject()) {
        std::fprintf(stderr,
                     "stacknoc_serve: bad worker line (%s): %s\n",
                     perr.c_str(), line.c_str());
        return;
    }
    const JsonValue *ev = doc->find("event");
    const std::string kind =
        ev != nullptr && ev->isString() ? ev->asString() : "";
    std::uint64_t id = 0;
    if (const JsonValue *m = doc->find("id");
        m != nullptr && m->isNumber())
        id = static_cast<std::uint64_t>(m->asDouble());

    const auto jobIt = inflight_.find(id);
    const Job *job = jobIt != inflight_.end() ? &jobIt->second : nullptr;
    const int clientFd = job != nullptr ? job->clientFd : -1;

    const auto freeWorker = [&] {
        if (w.jobId == id && w.busy) {
            w.busy = false;
            w.jobId = 0;
        }
    };

    if (kind == "interval") {
        sendToClient(clientFd, line);
        return;
    }
    if (kind == "note") {
        // Advisory worker events; never terminal for the job.
        const JsonValue *k = doc->find("kind");
        if (k != nullptr && k->isString() &&
            k->asString() == "warm_fallback")
            ++ckptFallbacks_;
        return;
    }
    if (kind == "error") {
        const JsonValue *r = doc->find("reason");
        const std::string reason = r != nullptr && r->isString()
                                       ? r->asString()
                                       : "worker error";
        freeWorker();
        if (job != nullptr) {
            Job owned = std::move(jobIt->second);
            inflight_.erase(jobIt);
            // A worker-reported error is deterministic (bad request,
            // simulation failure): a retry would only repeat it, so it
            // is final regardless of the retry budget.
            finalFail(std::move(owned), reason);
        } else {
            ++failed_;
        }
        dispatchJobs();
        return;
    }
    if (kind == "result") {
        const JsonValue *data = doc->find("data");
        const std::string dataStr =
            data != nullptr ? jsonValueToString(*data) : "null";
        const std::uint64_t key = job != nullptr ? job->key : 0;
        // First result per key also becomes durable; append failures
        // are counted by the store, never fatal (memory still serves).
        if (cache_.emplace(key, dataStr).second && store_.enabled() &&
            job != nullptr)
            store_.append(key, dataStr);
        ++completed_;

        const bool isObject = data != nullptr && data->isObject();
        const bool saved = isObject && memberBool(*data, "warm_saved");
        if (isObject) {
            ++(memberBool(*data, "warm_restored") ? ckptRestores_
                                                  : ckptColdWarms_);
            ckptSaves_ += saved ? 1 : 0;
        }

        std::ostringstream os;
        os << "{\"event\":\"result\",\"id\":" << id
           << ",\"cached\":false,\"key\":\"" << hexKey(key) << "\"";
        if (job != nullptr && job->attempt > 1)
            os << ",\"attempts\":" << job->attempt;
        os << ",\"data\":" << dataStr << "}";
        sendToClient(clientFd, os.str());
        freeWorker();
        inflight_.erase(id);
        // The worker may have just published a checkpoint; keep the
        // directory under its cap before the next dispatch adds more.
        if (saved)
            enforceCkptCap();
        dispatchJobs();
        return;
    }
    std::fprintf(stderr, "stacknoc_serve: unknown worker event: %s\n",
                 line.c_str());
}

void
CampaignServer::onWorkerDeath(Worker &w)
{
    ::close(w.fromFd);
    ::close(w.toFd);
    w.fromFd = w.toFd = -1;
    int status = 0;
    ::waitpid(w.pid, &status, 0);
    w.pid = -1;
    if (w.busy) {
        const std::string reason =
            w.deadlineKilled
                ? "job exceeded --job-deadline-sec " +
                      std::to_string(opt_.jobDeadlineSec) +
                      "; worker killed"
                : "worker process died mid-job";
        const auto it = inflight_.find(w.jobId);
        if (it != inflight_.end()) {
            Job job = std::move(it->second);
            inflight_.erase(it);
            failAttempt(std::move(job), reason);
        }
        w.busy = false;
        w.jobId = 0;
    }
    w.deadlineKilled = false;
    std::string err;
    if (!spawnWorker(w, err)) {
        std::fprintf(stderr, "stacknoc_serve: respawn failed: %s\n",
                     err.c_str());
    } else {
        ++respawns_;
        dispatchJobs();
    }
}

void
CampaignServer::killWorkers()
{
    for (auto &w : workers_) {
        if (w.toFd >= 0)
            ::close(w.toFd); // EOF ends the worker loop
        if (w.fromFd >= 0)
            ::close(w.fromFd);
        w.toFd = w.fromFd = -1;
    }
    for (auto &w : workers_) {
        if (w.pid > 0) {
            int status = 0;
            ::waitpid(w.pid, &status, 0);
            w.pid = -1;
        }
    }
}

int
CampaignServer::run()
{
    while (!shutdown_) {
        if (draining_ && queue_.empty() && inflight_.empty())
            break; // drained: every accepted job has resolved
        std::vector<pollfd> fds;
        fds.push_back({listenFd_, POLLIN, 0});
        if (sigFd_ >= 0)
            fds.push_back({sigFd_, POLLIN, 0});
        for (const auto &w : workers_)
            if (w.fromFd >= 0)
                fds.push_back({w.fromFd, POLLIN, 0});
        for (const auto &[fd, c] : clients_)
            fds.push_back({fd, POLLIN, 0});

        // Finite timeout only when a retry backoff gate or a job
        // deadline needs the loop to wake without fd traffic.
        const int rc =
            ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                   pollTimeoutMs());
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            std::fprintf(stderr, "stacknoc_serve: poll: %s\n",
                         std::strerror(errno));
            return 1;
        }
        checkDeadlines();
        dispatchJobs();

        for (const auto &p : fds) {
            if ((p.revents & (POLLIN | POLLHUP | POLLERR)) == 0)
                continue;
            if (sigFd_ >= 0 && p.fd == sigFd_) {
                char buf[16];
                [[maybe_unused]] const ssize_t n =
                    ::read(sigFd_, buf, sizeof buf);
                draining_ = true; // run() exits once the queue drains
                continue;
            }
            if (p.fd == listenFd_) {
                const int cfd = ::accept(listenFd_, nullptr, nullptr);
                if (cfd >= 0)
                    clients_[cfd] = Client{cfd, {}};
                continue;
            }
            // Worker pipe?
            bool isWorker = false;
            for (auto &w : workers_) {
                if (w.fromFd != p.fd)
                    continue;
                isWorker = true;
                char buf[65536];
                const ssize_t n = ::read(p.fd, buf, sizeof buf);
                if (n > 0) {
                    w.outBuf.append(buf, static_cast<std::size_t>(n));
                    std::size_t pos;
                    while ((pos = w.outBuf.find('\n')) !=
                           std::string::npos) {
                        const std::string line = w.outBuf.substr(0, pos);
                        w.outBuf.erase(0, pos + 1);
                        if (!line.empty())
                            handleWorkerLine(w, line);
                    }
                } else {
                    onWorkerDeath(w);
                }
                break;
            }
            if (isWorker)
                continue;
            // Client socket.
            const auto it = clients_.find(p.fd);
            if (it == clients_.end())
                continue;
            char buf[65536];
            const ssize_t n = ::read(p.fd, buf, sizeof buf);
            if (n <= 0) {
                closeClient(p.fd);
                continue;
            }
            it->second.inBuf.append(buf, static_cast<std::size_t>(n));
            std::size_t pos;
            while ((pos = it->second.inBuf.find('\n')) !=
                   std::string::npos) {
                const std::string line = it->second.inBuf.substr(0, pos);
                it->second.inBuf.erase(0, pos + 1);
                if (!line.empty())
                    handleClientLine(it->second, line);
                if (shutdown_ ||
                    clients_.find(p.fd) == clients_.end())
                    break;
            }
            if (shutdown_)
                break;
        }
    }
    store_.seal(); // publish the journal before the process can exit
    killWorkers();
    return 0;
}

} // namespace stacknoc::server
