#include "serve/server.h"

#include <algorithm>
#include <csignal>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "checkpoint/atomic_file.h"
#include "serve/supervisor.h"
#include "sim/logging.h"

namespace vidi {

namespace {

/** The one server routed to by the process signal handlers. */
std::atomic<VidiServer *> g_signal_server{nullptr};

/** Monotonic milliseconds for the crash-loop breaker's injected time. */
uint64_t
nowMs()
{
    return uint64_t(std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now()
                            .time_since_epoch())
                        .count());
}

/** Session manifest for a fresh Record/Replay job (shared between the
 *  in-thread and worker-process execution paths). */
SessionManifest
makeManifest(const ServeOptions &opts, const JobRequest &request)
{
    SessionManifest manifest;
    manifest.app = request.app;
    manifest.mode = uint8_t(request.kind == JobKind::Record
                                ? VidiMode::R2_Record
                                : VidiMode::R3_Replay);
    manifest.seed = request.seed;
    manifest.scale = request.scale;
    manifest.checkpoint_every = request.checkpoint_every;
    manifest.trace_path = request.trace_path;
    manifest.cfg = opts.base_cfg;
    // The request's FaultSpec is the server-side injection hook:
    // faults are scoped to this tenant's session and nothing else.
    manifest.cfg.fault = request.fault;
    return manifest;
}

void
onTermSignal(int)
{
    VidiServer *server = g_signal_server.load();
    if (server != nullptr)
        server->requestShutdown();
}

} // namespace

VidiServer::VidiServer(ServeOptions opts)
    : opts_(std::move(opts)),
      sessions_(opts_.root_dir, opts_.max_live_sessions),
      breaker_(opts_.crash_loop_max, opts_.crash_loop_window_ms)
{
}

VidiServer::~VidiServer()
{
    if (started_) {
        requestShutdown();
        wait();
    }
    if (wake_pipe_[0] >= 0)
        ::close(wake_pipe_[0]);
    if (wake_pipe_[1] >= 0)
        ::close(wake_pipe_[1]);
}

bool
VidiServer::start(std::string *err)
{
    // A worker child dying mid-reply must cost the daemon an EPIPE
    // error, never a process kill.
    wire::ignoreSigpipe();
    makeDirs(opts_.root_dir);
    // O_CLOEXEC: fork/exec'd workers must not inherit the shutdown
    // pipe (or, below, the listener) — an inherited listener would pin
    // the socket past daemon death and could steal connections.
    if (::pipe2(wake_pipe_, O_CLOEXEC | O_NONBLOCK) != 0) {
        if (err != nullptr)
            *err = std::string("pipe2: ") + std::strerror(errno);
        return false;
    }

    listen_fd_ = wire::listenUnix(opts_.socket_path, 64, err);
    if (!listen_fd_.valid())
        return false;

    if (opts_.worker_procs != 0) {
        WorkerPoolOptions popts;
        popts.procs = opts_.worker_procs;
        popts.exec_path = opts_.worker_exec;
        popts.heartbeat_timeout_ms = opts_.heartbeat_timeout_ms;
        popts.kill_grace_ms = opts_.kill_grace_ms;
        popts.respawn_backoff_ms = opts_.respawn_backoff_ms;
        popts.limits.mem_mb = opts_.worker_mem_mb;
        popts.limits.cpu_secs = opts_.worker_cpu_secs;
        // CLOEXEC only guards exec; plain-fork children shed the
        // daemon's control-plane fds explicitly so a worker can
        // neither serve traffic nor pin the socket past a restart.
        const int listen_copy = listen_fd_.get();
        const int wake0 = wake_pipe_[0];
        const int wake1 = wake_pipe_[1];
        popts.child_prelude = [listen_copy, wake0, wake1] {
            ::close(listen_copy);
            ::close(wake0);
            ::close(wake1);
        };
        pool_ = std::make_unique<WorkerPool>(std::move(popts));
        // Spawn before the server threads exist: the initial forks
        // happen while this process is as close to single-threaded as
        // it will ever be again.
        if (!pool_->start(err)) {
            pool_.reset();
            return false;
        }
    }

    started_ = true;
    acceptor_ = std::thread([this] { acceptLoop(); });
    io_pool_.reserve(std::max<size_t>(opts_.io_workers, 1));
    for (size_t i = 0; i < std::max<size_t>(opts_.io_workers, 1); ++i)
        io_pool_.emplace_back([this] { ioLoop(); });
    workers_.reserve(opts_.workers);
    for (size_t i = 0; i < opts_.workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
    return true;
}

void
VidiServer::wait()
{
    if (!started_)
        return;
    if (acceptor_.joinable())
        acceptor_.join();
    {
        // Acceptor is gone: no new connections. Wake the I/O pool so it
        // drains the connection backlog (closing, not reading — the
        // client treats EOF as a retryable transport failure) and exits.
        std::lock_guard<std::mutex> lk(conn_mu_);
        conn_drained_ = true;
        conn_cv_.notify_all();
    }
    for (std::thread &io : io_pool_) {
        if (io.joinable())
            io.join();
    }
    io_pool_.clear();
    {
        // I/O pool is gone: nothing new can enter the queue. Wake the
        // workers so they finish the backlog and exit.
        std::lock_guard<std::mutex> lk(mu_);
        drained_.store(true);
        cv_.notify_all();
    }
    for (std::thread &worker : workers_) {
        if (worker.joinable())
            worker.join();
    }
    workers_.clear();
    // All leases returned: every live session is idle and drainable,
    // and every pool slot is free — retire the worker processes.
    if (pool_ != nullptr)
        pool_->stop();
    sessions_.drainAll();
    ::unlink(opts_.socket_path.c_str());
    started_ = false;
}

void
VidiServer::requestShutdown()
{
    // Async-signal-safe: one atomic store and one write().
    stop_.store(true);
    if (wake_pipe_[1] >= 0) {
        const char byte = 1;
        [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &byte, 1);
    }
}

void
VidiServer::installSignalHandlers(VidiServer *server)
{
    g_signal_server.store(server);
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = server != nullptr ? onTermSignal : SIG_DFL;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
}

void
VidiServer::acceptLoop()
{
    while (!stop_.load()) {
        pollfd fds[2];
        fds[0].fd = listen_fd_.get();
        fds[0].events = POLLIN;
        fds[1].fd = wake_pipe_[0];
        fds[1].events = POLLIN;
        const int rc = ::poll(fds, 2, -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            warn("vidi_serve: poll failed: %s", std::strerror(errno));
            break;
        }
        if ((fds[1].revents & POLLIN) != 0 || stop_.load())
            break;
        if ((fds[0].revents & POLLIN) == 0)
            continue;
        wire::Fd conn(::accept4(listen_fd_.get(), nullptr, nullptr,
                                SOCK_CLOEXEC));
        if (!conn.valid())
            continue;
        // Hand the fd to the I/O pool: the acceptor itself never reads
        // from a peer, so a wedged client costs one pooled I/O wait,
        // never admission latency for everyone else.
        bool dropped = false;
        {
            std::lock_guard<std::mutex> lk(conn_mu_);
            if (conn_queue_.size() >= opts_.conn_backlog) {
                dropped = true;  // close: retryable connect-level failure
            } else {
                conn_queue_.push_back(std::move(conn));
                conn_cv_.notify_one();
            }
        }
        if (dropped) {
            std::lock_guard<std::mutex> lk(mu_);
            ++stats_.dropped_conns;
        }
    }
    // Stop admitting (poll-failure exits must drain too), then flush
    // the queue with retryable rejections — the workers only need to
    // finish what they already started.
    stop_.store(true);
    std::deque<Job> rejected;
    {
        std::lock_guard<std::mutex> lk(mu_);
        rejected.swap(queue_);
        stats_.rejected_shutdown += rejected.size();
        cv_.notify_all();
    }
    for (Job &job : rejected) {
        JobReply reply;
        reply.job_id = job.request.job_id;
        reply.status = JobStatus::ShuttingDown;
        reply.detail = "daemon draining; retry against the next instance";
        {
            std::lock_guard<std::mutex> lk(mu_);
            in_flight_.erase(keyOf(job.request));
        }
        std::string err;
        wire::sendFrame(job.conn.get(), reply.encode(), &err);
    }
}

void
VidiServer::ioLoop()
{
    while (true) {
        wire::Fd conn;
        {
            std::unique_lock<std::mutex> lk(conn_mu_);
            conn_cv_.wait(lk, [this] {
                return !conn_queue_.empty() || conn_drained_;
            });
            if (conn_queue_.empty())
                return;  // drained and nothing left to serve
            conn = std::move(conn_queue_.front());
            conn_queue_.pop_front();
        }
        if (stop_.load()) {
            // Draining: close without reading rather than spend up to
            // io_timeout_ms per backlogged peer; the client library
            // retries transport failures with the same idempotent
            // job_id.
            std::lock_guard<std::mutex> lk(mu_);
            ++stats_.dropped_conns;
            continue;
        }
        handleConnection(std::move(conn));
    }
}

void
VidiServer::handleConnection(wire::Fd conn)
{
    std::string err;
    wire::setIoTimeout(conn.get(), opts_.io_timeout_ms, &err);

    std::vector<uint8_t> payload;
    if (wire::recvFrame(conn.get(), &payload, &err) != 1) {
        std::lock_guard<std::mutex> lk(mu_);
        ++stats_.invalid;
        return;  // nothing decodable to reply to
    }

    JobRequest request;
    JobReply reply;
    if (!JobRequest::decode(payload, &request, &err)) {
        reply.status = JobStatus::InvalidRequest;
        reply.detail = err;
        {
            std::lock_guard<std::mutex> lk(mu_);
            ++stats_.invalid;
        }
        wire::sendFrame(conn.get(), reply.encode(), &err);
        return;
    }
    reply.job_id = request.job_id;

    // Control-plane requests are answered inline so they keep working
    // when the queue is saturated — overload must be observable.
    if (request.kind == JobKind::Status) {
        reply.status = JobStatus::Ok;
        reply.detail = statusText();
        wire::sendFrame(conn.get(), reply.encode(), &err);
        return;
    }
    if (request.kind == JobKind::Shutdown) {
        requestShutdown();
        reply.status = JobStatus::Ok;
        reply.detail = "draining";
        wire::sendFrame(conn.get(), reply.encode(), &err);
        return;
    }

    {
        std::lock_guard<std::mutex> lk(mu_);
        if (stop_.load()) {
            reply.status = JobStatus::ShuttingDown;
            reply.detail = "daemon draining";
            ++stats_.rejected_shutdown;
        } else if (request.job_id.empty()) {
            reply.status = JobStatus::InvalidRequest;
            reply.detail = "empty job_id";
            ++stats_.invalid;
        } else if (auto it = reply_cache_.find(keyOf(request));
                   it != reply_cache_.end()) {
            // Idempotent re-submit: hand back the recorded outcome so a
            // client retry can never double-run a job. Keys are scoped
            // per tenant — another tenant reusing the id is a distinct
            // job, not a cache hit.
            reply = it->second;
            reply.cached = true;
            ++stats_.cache_hits;
        } else if (in_flight_.count(keyOf(request)) != 0) {
            reply.status = JobStatus::InFlight;
            reply.detail = "job still executing; retry for its result";
            ++stats_.inflight_hits;
        } else if (queue_.size() >= opts_.queue_capacity) {
            reply.status = JobStatus::Overloaded;
            reply.detail = "admission queue full (" +
                           std::to_string(queue_.size()) +
                           " jobs); retry with backoff";
            ++stats_.rejected_overload;
        } else {
            in_flight_[keyOf(request)] = true;
            queue_.push_back(Job{std::move(request), std::move(conn)});
            ++stats_.accepted;
            cv_.notify_one();
            return;  // the worker owns the connection and the reply
        }
    }
    wire::sendFrame(conn.get(), reply.encode(), &err);
}

void
VidiServer::workerLoop()
{
    while (true) {
        Job job;
        {
            std::unique_lock<std::mutex> lk(mu_);
            cv_.wait(lk, [this] {
                return !queue_.empty() || drained_.load();
            });
            if (queue_.empty())
                return;  // stopping and drained
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        JobReply reply = execute(job.request);
        reply.job_id = job.request.job_id;
        finishJob(keyOf(job.request), std::move(reply),
                  std::move(job.conn));
    }
}

void
VidiServer::finishJob(const JobKey &key, JobReply reply, wire::Fd conn)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        in_flight_.erase(key);
        // A retryable outcome (e.g. Overloaded because the tenant's
        // session was briefly busy) is not a settled result: caching it
        // would pin the idempotency key to the transient failure and a
        // retry of the same job_id could never execute. Only terminal
        // outcomes settle the key.
        if (!isRetryable(reply.status))
            cacheReplyLocked(key, reply);
        ++stats_.completed;
    }
    std::string err;
    if (!wire::sendFrame(conn.get(), reply.encode(), &err))
        warn("vidi_serve: reply for job %s lost: %s", key.second.c_str(),
             err.c_str());
}

void
VidiServer::cacheReplyLocked(const JobKey &key, const JobReply &reply)
{
    if (reply_cache_.emplace(key, reply).second)
        reply_order_.push_back(key);
    while (reply_order_.size() > opts_.reply_cache_capacity) {
        reply_cache_.erase(reply_order_.front());
        reply_order_.pop_front();
    }
}

JobReply
VidiServer::execute(const JobRequest &request)
{
    switch (request.kind) {
      case JobKind::Record:
      case JobKind::Replay:
      case JobKind::Resume:
        return executeSession(request);
      case JobKind::Verify: {
        if (pool_ == nullptr)
            return superviseVerify(request.trace_path);
        // Verify loads an untrusted trace — in process mode that parse
        // belongs in a worker too, so a malformed container that takes
        // the decoder down costs a Crashed reply, not the daemon.
        WorkerJob job;
        job.kind = JobKind::Verify;
        job.tenant = request.tenant;
        job.trace_path = request.trace_path;
        job.timeout_ms = resolveTimeoutMs(request);
        job.heartbeat_ms = opts_.heartbeat_interval_ms;
        return pool_->run(job).reply;
      }
      default: {
        JobReply reply;
        reply.status = JobStatus::InvalidRequest;
        reply.detail = "unexpected job kind";
        return reply;
      }
    }
}

JobReply
VidiServer::executeSession(const JobRequest &request)
{
    // Policy gate shared by both execution paths. Order matters: the
    // breaker is cheapest and protects the pool; the quota scan touches
    // the filesystem (cached) and must not run for a quarantined
    // tenant's retry storm.
    JobReply reply;
    const uint64_t quarantine_ms =
        breaker_.quarantinedForMs(request.tenant, nowMs());
    if (quarantine_ms != 0) {
        reply.status = JobStatus::Quarantined;
        reply.error_class = "crash-loop";
        reply.detail =
            "tenant quarantined after repeated worker crashes; retry "
            "in " +
            std::to_string(quarantine_ms) + " ms";
        std::lock_guard<std::mutex> lk(mu_);
        ++stats_.quarantined;
        return reply;
    }
    if (opts_.tenant_disk_quota_bytes != 0) {
        const uint64_t used = tenantDiskBytesCached(request.tenant);
        if (used >= opts_.tenant_disk_quota_bytes) {
            reply.status = JobStatus::QuotaExceeded;
            reply.error_class = "disk-quota";
            reply.detail =
                "tenant disk usage " + std::to_string(used) +
                " bytes is at or over the " +
                std::to_string(opts_.tenant_disk_quota_bytes) +
                "-byte quota";
            std::lock_guard<std::mutex> lk(mu_);
            ++stats_.quota_rejected;
            return reply;
        }
    }
    reply = pool_ != nullptr ? executeSessionProc(request)
                             : executeSessionInThread(request);
    // The job may have grown (or created) the tenant's footprint; the
    // next admission check must rescan rather than trust the TTL.
    invalidateQuotaCache(request.tenant);
    return reply;
}

JobReply
VidiServer::executeSessionInThread(const JobRequest &request)
{
    SessionManager::Lease lease;
    if (request.kind == JobKind::Resume)
        lease = sessions_.acquireExisting(request.tenant);
    else
        lease = sessions_.acquireFresh(request.tenant,
                                       makeManifest(opts_, request));

    if (lease.session == nullptr) {
        JobReply reply;
        reply.status = lease.status;
        reply.detail = lease.error;
        if (lease.status == JobStatus::Failed)
            reply.error_class = "session-setup";
        return reply;
    }

    SuperviseOutcome outcome = superviseSession(
        *lease.session, request.step_budget, resolveTimeoutMs(request));
    if (lease.rehydrated)
        outcome.reply.detail += " [rehydrated]";
    sessions_.release(request.tenant, outcome.disposition);
    return outcome.reply;
}

JobReply
VidiServer::executeSessionProc(const JobRequest &request)
{
    JobReply reply;
    const bool fresh = request.kind != JobKind::Resume;
    if (fresh && makeServeApp(request.app) == nullptr) {
        // Validate the app name in the parent: a typo should cost an
        // inline InvalidRequest, not a worker round-trip.
        reply.status = JobStatus::InvalidRequest;
        reply.detail = "unknown app '" + request.app + "'";
        return reply;
    }

    // The directory lease is the process-mode concurrency token: no
    // LiveSession lives in daemon memory, so any worker (including a
    // respawned one after a crash) can pick the tenant up from disk.
    std::string err;
    const JobStatus lease =
        sessions_.acquireDir(request.tenant, !fresh, &err);
    if (lease != JobStatus::Ok) {
        reply.status = lease;
        reply.detail = err;
        return reply;
    }

    WorkerJob job;
    job.kind = request.kind;
    job.tenant = request.tenant;
    job.dir = sessions_.dirFor(request.tenant);
    job.fresh = fresh;
    if (fresh)
        job.manifest = makeManifest(opts_, request);
    job.step_budget = request.step_budget;
    job.timeout_ms = resolveTimeoutMs(request);
    job.heartbeat_ms = opts_.heartbeat_interval_ms;
    job.trace_path = request.trace_path;
    job.fault = request.fault;

    WorkerPool::RunResult res = pool_->run(job);
    sessions_.releaseDir(request.tenant);

    if (res.worker_died) {
        breaker_.recordCrash(request.tenant, nowMs());
        // MTTR arc opens at death *detection*: respawn_ms has already
        // elapsed inside run(), so back-date the mark accordingly.
        const auto detect =
            std::chrono::steady_clock::now() -
            std::chrono::milliseconds(res.respawn_ms);
        std::lock_guard<std::mutex> lk(mu_);
        ++stats_.worker_crashes;
        if (res.hung)
            ++stats_.worker_hangs;
        crash_at_[request.tenant] = detect;
    } else if (request.kind == JobKind::Resume &&
               (res.reply.status == JobStatus::Ok ||
                res.reply.status == JobStatus::Running ||
                res.reply.status == JobStatus::Timeout)) {
        // The tenant is rehydrated and stepping again: close any open
        // crash arc. detect -> respawned -> rehydrated is the full
        // mean-time-to-recovery the bench reports.
        std::lock_guard<std::mutex> lk(mu_);
        auto it = crash_at_.find(request.tenant);
        if (it != crash_at_.end()) {
            const uint64_t mttr = uint64_t(
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now() - it->second)
                    .count());
            stats_.mttr_last_ms = mttr;
            stats_.mttr_total_ms += mttr;
            ++stats_.mttr_samples;
            crash_at_.erase(it);
        }
    }
    return res.reply;
}

uint64_t
VidiServer::resolveTimeoutMs(const JobRequest &request) const
{
    // Client-supplied budgets are clamped server-side: an unchecked
    // huge u64 would overflow the JobClock's signed millisecond
    // deadline arithmetic into a past (or garbage) deadline.
    uint64_t timeout_ms = request.job_timeout_ms != 0
                              ? request.job_timeout_ms
                              : opts_.job_timeout_ms;
    if (opts_.max_job_timeout_ms != 0 &&
        timeout_ms > opts_.max_job_timeout_ms) {
        timeout_ms = opts_.max_job_timeout_ms;
    }
    return timeout_ms;
}

uint64_t
VidiServer::tenantDiskBytesCached(const std::string &tenant)
{
    constexpr auto kTtl = std::chrono::milliseconds(250);
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = quota_cache_.find(tenant);
        if (it != quota_cache_.end() &&
            std::chrono::steady_clock::now() - it->second.stamp < kTtl)
            return it->second.bytes;
    }
    // Directory scan outside the lock; invalid tenant names scan
    // nothing and report zero.
    const uint64_t bytes = sessions_.tenantDiskBytes(tenant);
    std::lock_guard<std::mutex> lk(mu_);
    if (quota_cache_.size() > 1024)
        quota_cache_.clear();  // bound the map against tenant churn
    quota_cache_[tenant] =
        QuotaEntry{bytes, std::chrono::steady_clock::now()};
    return bytes;
}

void
VidiServer::invalidateQuotaCache(const std::string &tenant)
{
    std::lock_guard<std::mutex> lk(mu_);
    quota_cache_.erase(tenant);
}

std::string
VidiServer::statusText() const
{
    const Stats s = stats();
    std::string text;
    text += "accepted=" + std::to_string(s.accepted);
    text += " completed=" + std::to_string(s.completed);
    text += " overloaded=" + std::to_string(s.rejected_overload);
    text += " shutdown_rejects=" + std::to_string(s.rejected_shutdown);
    text += " invalid=" + std::to_string(s.invalid);
    text += " cache_hits=" + std::to_string(s.cache_hits);
    text += " inflight_hits=" + std::to_string(s.inflight_hits);
    text += " dropped_conns=" + std::to_string(s.dropped_conns);
    text += " queue_depth=" + std::to_string(s.queue_depth);
    text += " sessions_live=" + std::to_string(s.sessions.live);
    text += " sessions_busy=" + std::to_string(s.sessions.busy);
    text += " creations=" + std::to_string(s.sessions.creations);
    text += " rehydrations=" + std::to_string(s.sessions.rehydrations);
    text += " evictions=" + std::to_string(s.sessions.evictions);
    text += " worker_crashes=" + std::to_string(s.worker_crashes);
    text += " worker_hangs=" + std::to_string(s.worker_hangs);
    text += " worker_respawns=" + std::to_string(s.worker_respawns);
    text += " quarantined=" + std::to_string(s.quarantined);
    text += " quota_rejected=" + std::to_string(s.quota_rejected);
    text += " mttr_last_ms=" + std::to_string(s.mttr_last_ms);
    text += " mttr_avg_ms=" +
            std::to_string(s.mttr_samples != 0
                               ? s.mttr_total_ms / s.mttr_samples
                               : 0);
    // Per-tenant on-disk footprint: what eviction actually costs. The
    // trace component is the spilled VTC2 container (or a recorded
    // output), reported separately so compression wins are visible.
    uint64_t disk_total = 0;
    for (const SessionManager::DiskUsage &u : sessions_.diskUsage()) {
        disk_total += u.bytes;
        text += " disk[" + u.tenant + "]=" + std::to_string(u.bytes);
        text += "/trace=" + std::to_string(u.trace_bytes);
    }
    text += " disk_total=" + std::to_string(disk_total);
    return text;
}

VidiServer::Stats
VidiServer::stats() const
{
    Stats s;
    {
        std::lock_guard<std::mutex> lk(mu_);
        s = stats_;
        s.queue_depth = queue_.size();
    }
    s.sessions = sessions_.stats();
    if (pool_ != nullptr)
        s.worker_respawns = pool_->stats().respawned;
    return s;
}

} // namespace vidi
