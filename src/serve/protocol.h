/**
 * @file
 * vidi_serve job protocol messages.
 *
 * One JobRequest in, one JobReply out, per connection. Messages are
 * serialized with the checkpoint StateWriter/StateReader machinery
 * (sections + hard bounds checking), so a malformed or truncated
 * payload is rejected at the decode boundary instead of shearing
 * fields.
 *
 * Robustness notes:
 *
 *  - job_id is the client-chosen idempotency key. The daemon caches
 *    recent replies by job_id; a retried submit (after a timeout or an
 *    overload reply) returns the cached outcome instead of re-running
 *    the job, so a retry can never double-run a recording.
 *  - Requests may carry a FaultSpec: the server-side injection hook
 *    that lets tests and operators aim crashes and trace corruption at
 *    one tenant's session and watch the daemon isolate the blast
 *    radius.
 *  - JobStatus separates *retryable* outcomes (Overloaded, InFlight,
 *    ShuttingDown, Quarantined) from terminal ones; the client library
 *    only retries the former.
 */

#ifndef VIDI_SERVE_PROTOCOL_H
#define VIDI_SERVE_PROTOCOL_H

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_plan.h"

namespace vidi {

/** What a tenant asks the daemon to do. */
enum class JobKind : uint8_t
{
    Record,    ///< record `app` into the tenant's session
    Replay,    ///< replay `trace_path` against `app` (one-shot)
    Resume,    ///< continue the tenant's interrupted/evicted session
    Verify,    ///< storage-line verification of `trace_path`
    Status,    ///< daemon statistics (always served, even overloaded)
    Shutdown,  ///< graceful drain, as if SIGTERM
};

const char *toString(JobKind kind);

/** Outcome class of a job. */
enum class JobStatus : uint8_t
{
    Ok,             ///< job finished; detail carries the describe() line
    Running,        ///< step budget exhausted; session is live, resume
                    ///< with another Record/Resume submit
    Overloaded,     ///< admission queue full — retry with backoff
    InFlight,       ///< same job_id currently executing — retry later
    ShuttingDown,   ///< daemon is draining — retry against the next one
    InvalidRequest, ///< malformed/unknown request; do not retry
    Failed,         ///< job ran and failed; error_class says how
    Timeout,        ///< supervisor wall-clock budget expired; session
                    ///< checkpointed and resumable
    Crashed,        ///< the session worker died (simulated crash fault
                    ///< in-thread, or a real worker-process death);
                    ///< session resumable from its last checkpoint
    TraceDamage,    ///< verify found damage / replay diverged
    QuotaExceeded,  ///< tenant over its disk quota; free space first,
                    ///< do not retry as-is
    Quarantined,    ///< tenant tripped the crash-loop circuit breaker;
                    ///< retryable once the quarantine window passes
};

const char *toString(JobStatus status);

/** True for outcomes a client should retry with the same job_id. */
bool isRetryable(JobStatus status);

struct JobRequest
{
    std::string job_id;   ///< idempotency key (client-chosen, unique)
    JobKind kind = JobKind::Status;
    std::string tenant;   ///< session name; also the directory name
    std::string app;      ///< registry app (Record/Replay)
    double scale = 0.1;
    uint64_t seed = 1;
    uint64_t checkpoint_every = 100'000;
    /**
     * Advance at most this many cycles then reply Running (0 = run to
     * completion). Incremental stepping is what makes sessions idle
     * between requests — and therefore evictable.
     */
    uint64_t step_budget = 0;
    std::string trace_path;  ///< Record: output; Replay/Verify: input
    /** Per-job wall-clock budget override; 0 = server default. */
    uint64_t job_timeout_ms = 0;
    /** Server-side fault injection for this tenant's session. */
    FaultSpec fault;

    std::vector<uint8_t> encode() const;
    /** Decode; false (with @p err) on malformed payload. */
    static bool decode(const std::vector<uint8_t> &payload,
                       JobRequest *out, std::string *err);
};

struct JobReply
{
    std::string job_id;
    JobStatus status = JobStatus::InvalidRequest;
    std::string detail;       ///< human-readable outcome / error text
    std::string error_class;  ///< e.g. "SimulatedCrash", "watchdog"
    uint64_t cycle = 0;       ///< session cycle reached
    uint64_t digest = 0;      ///< output digest (finished runs)
    uint64_t checkpoints = 0; ///< checkpoints committed by this job
    bool completed = false;
    bool cached = false;      ///< served from the idempotency cache

    std::vector<uint8_t> encode() const;
    static bool decode(const std::vector<uint8_t> &payload, JobReply *out,
                       std::string *err);

    /** One-line summary for CLI output. */
    std::string toString() const;
};

} // namespace vidi

#endif // VIDI_SERVE_PROTOCOL_H
