/**
 * @file
 * The vidi_serve daemon: a multi-tenant record/replay service.
 *
 * Architecture (one process):
 *
 *   acceptor thread ── poll(listen, self-pipe)
 *        │  only accepts and enqueues the connection fd (bounded
 *        │  backlog; overflow closes the fd, a retryable transport
 *        │  failure for the client) — it never does socket I/O on a
 *        │  peer's behalf, so a wedged client cannot capture it
 *        ▼
 *   I/O pool ── reads one request frame per connection (bounded I/O
 *        │  timeout), answers Status/cached/duplicate/overload
 *        │  replies inline, otherwise enqueues the job
 *        ▼
 *   bounded job queue ── admission control: when full the client gets
 *        │  an explicit Overloaded reply instead of latency
 *        ▼
 *   worker pool ── each worker leases the tenant's session from the
 *        SessionManager, runs it under a supervisor (wall-clock and
 *        cycle budgets, structured failure conversion) and writes the
 *        reply
 *
 * Failure containment: a tenant whose session crashes (injected fault,
 * SimFatal, anything thrown) costs the daemon one error reply and one
 * poisoned in-memory session; every other tenant's job proceeds
 * untouched, and the poisoned tenant can resume from its last committed
 * checkpoint.
 *
 * With worker_procs != 0 the session stage instead leases a supervised
 * worker *process* (WorkerPool, worker.h) per job, extending that
 * containment to real faults — SIGSEGV, SIGABRT, OOM kills, wedged
 * eval loops — with per-tenant crash-loop quarantine and disk quotas
 * on top. See DESIGN.md §12 for the worker lifecycle state machine.
 *
 * Shutdown (SIGTERM / Shutdown request / requestShutdown): stop
 * accepting, reject still-queued jobs with retryable ShuttingDown
 * replies, finish in-flight jobs, then commit every live session's
 * checkpoint (SessionManager::drainAll) so nothing is lost.
 */

#ifndef VIDI_SERVE_SERVER_H
#define VIDI_SERVE_SERVER_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/vidi_config.h"
#include "serve/protocol.h"
#include "serve/session_manager.h"
#include "serve/wire.h"
#include "serve/worker_pool.h"

namespace vidi {

struct ServeOptions
{
    std::string socket_path;  ///< Unix socket to listen on
    std::string root_dir;     ///< parent of tenant session directories
    size_t workers = 4;
    size_t io_workers = 2;          ///< framing I/O pool size
    size_t queue_capacity = 32;     ///< admission bound
    size_t conn_backlog = 64;       ///< accepted-but-unread fd bound
    size_t max_live_sessions = 8;   ///< SessionManager cap
    /** Default per-job wall-clock budget; requests may override. */
    uint64_t job_timeout_ms = 30'000;
    /**
     * Hard cap on any request's job_timeout_ms override (0 = no cap).
     * Keeps a hostile/buggy client's huge u64 from overflowing the
     * JobClock deadline arithmetic.
     */
    uint64_t max_job_timeout_ms = 3'600'000;
    uint64_t io_timeout_ms = 5'000; ///< per-connection socket timeout
    size_t reply_cache_capacity = 256;  ///< idempotency window (jobs)
    VidiConfig base_cfg;      ///< shim config template for sessions

    /// @name Worker-process isolation (0 = legacy in-thread execution)
    /// @{
    /**
     * Run session jobs in a pool of this many supervised worker
     * *processes* instead of in the daemon's own threads: a real
     * SIGSEGV/SIGABRT/OOM kill in one tenant's design then costs
     * exactly one structured Crashed reply, never the daemon.
     */
    size_t worker_procs = 0;
    /**
     * Fork/exec this binary (`<path> worker --fd 3 ...`) for workers
     * instead of plain fork — a clean single-threaded child address
     * space, the fully fork-safe variant. Empty = plain fork.
     */
    std::string worker_exec;
    uint64_t worker_mem_mb = 0;    ///< RLIMIT_AS per worker (0 = off)
    uint64_t worker_cpu_secs = 0;  ///< RLIMIT_CPU per worker (0 = off)
    uint64_t heartbeat_interval_ms = 100;  ///< child send cadence
    uint64_t heartbeat_timeout_ms = 2'000; ///< hung-worker watchdog
    uint64_t kill_grace_ms = 200;    ///< SIGTERM -> SIGKILL escalation
    uint64_t respawn_backoff_ms = 10;  ///< pool respawn backoff base
    /** Per-tenant disk quota over the session directory (bytes;
     *  0 = unlimited). Over-quota jobs get QuotaExceeded. */
    uint64_t tenant_disk_quota_bytes = 0;
    /** Crashes within crash_loop_window_ms that quarantine a tenant
     *  (0 disables the circuit breaker). */
    uint32_t crash_loop_max = 3;
    uint64_t crash_loop_window_ms = 10'000;
    /// @}
};

class VidiServer
{
  public:
    explicit VidiServer(ServeOptions opts);
    ~VidiServer();

    VidiServer(const VidiServer &) = delete;
    VidiServer &operator=(const VidiServer &) = delete;

    /**
     * Bind the socket and start the acceptor + worker threads.
     * @return false with @p err when the socket cannot be bound.
     */
    bool start(std::string *err);

    /** Block until shutdown completes (all sessions drained). */
    void wait();

    /** Initiate graceful shutdown; async-signal-safe. */
    void requestShutdown();

    /**
     * Route SIGTERM/SIGINT to requestShutdown() for @p server (pass
     * nullptr to uninstall). One server at a time.
     */
    static void installSignalHandlers(VidiServer *server);

    const ServeOptions &options() const { return opts_; }

    /** Point-in-time counters (also served via JobKind::Status). */
    struct Stats
    {
        uint64_t accepted = 0;        ///< jobs admitted to the queue
        uint64_t completed = 0;       ///< jobs executed to a reply
        uint64_t rejected_overload = 0;
        uint64_t rejected_shutdown = 0;
        uint64_t invalid = 0;         ///< malformed requests
        uint64_t cache_hits = 0;      ///< idempotent re-submits served
        uint64_t inflight_hits = 0;   ///< duplicate while executing
        uint64_t dropped_conns = 0;   ///< closed: conn backlog full/drain
        uint64_t queue_depth = 0;
        uint64_t worker_crashes = 0;  ///< real worker-process deaths
        uint64_t worker_hangs = 0;    ///< of which watchdog escalations
        uint64_t worker_respawns = 0; ///< replacement workers forked
        uint64_t quarantined = 0;     ///< jobs rejected by the breaker
        uint64_t quota_rejected = 0;  ///< jobs rejected by disk quota
        uint64_t mttr_samples = 0;    ///< completed crash->recovery arcs
        uint64_t mttr_last_ms = 0;    ///< newest detect->rehydrated time
        uint64_t mttr_total_ms = 0;   ///< sum over all samples
        SessionManager::Stats sessions;
    };
    Stats stats() const;

  private:
    struct Job
    {
        JobRequest request;
        wire::Fd conn;
    };

    /**
     * Idempotency scope: (tenant, job_id). Tenants choose job ids
     * independently, so two tenants reusing the same id must neither
     * see each other's cached replies nor shadow each other in flight.
     */
    using JobKey = std::pair<std::string, std::string>;

    static JobKey
    keyOf(const JobRequest &request)
    {
        return JobKey(request.tenant, request.job_id);
    }

    void acceptLoop();
    void ioLoop();
    void workerLoop();
    void handleConnection(wire::Fd conn);
    JobReply execute(const JobRequest &request);
    JobReply executeSession(const JobRequest &request);
    JobReply executeSessionInThread(const JobRequest &request);
    JobReply executeSessionProc(const JobRequest &request);
    uint64_t resolveTimeoutMs(const JobRequest &request) const;
    uint64_t tenantDiskBytesCached(const std::string &tenant);
    void invalidateQuotaCache(const std::string &tenant);
    void finishJob(const JobKey &key, JobReply reply, wire::Fd conn);
    void cacheReplyLocked(const JobKey &key, const JobReply &reply);
    std::string statusText() const;

    ServeOptions opts_;
    SessionManager sessions_;
    std::unique_ptr<WorkerPool> pool_;  ///< non-null in process mode
    CrashLoopBreaker breaker_;

    wire::Fd listen_fd_;
    int wake_pipe_[2] = {-1, -1};  ///< self-pipe: shutdown wakeup
    std::atomic<bool> stop_{false};
    std::atomic<bool> drained_{false};  ///< acceptor gone, queue flushed
    bool started_ = false;

    std::thread acceptor_;
    std::vector<std::thread> io_pool_;
    std::vector<std::thread> workers_;

    /** Accepted connections awaiting their request frame (I/O pool). */
    std::mutex conn_mu_;
    std::condition_variable conn_cv_;
    std::deque<wire::Fd> conn_queue_;
    bool conn_drained_ = false;  ///< acceptor gone; I/O pool may exit

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::deque<Job> queue_;
    std::map<JobKey, JobReply> reply_cache_;
    std::deque<JobKey> reply_order_;  ///< FIFO cache eviction
    std::map<JobKey, bool> in_flight_;
    Stats stats_;

    /**
     * Quota accounting cache (under mu_): the per-job disk check is a
     * directory scan, so results are reused for a short TTL and
     * invalidated whenever a job finishes for that tenant (which is
     * the only way its footprint changes).
     */
    struct QuotaEntry
    {
        uint64_t bytes = 0;
        std::chrono::steady_clock::time_point stamp;
    };
    std::map<std::string, QuotaEntry> quota_cache_;
    /** Tenants with a crash awaiting a successful resume (MTTR arcs). */
    std::map<std::string, std::chrono::steady_clock::time_point>
        crash_at_;
};

} // namespace vidi

#endif // VIDI_SERVE_SERVER_H
