#include "serve/protocol.h"

#include <exception>

#include "checkpoint/state_io.h"
#include "sim/logging.h"

namespace vidi {

const char *
toString(JobKind kind)
{
    switch (kind) {
      case JobKind::Record: return "record";
      case JobKind::Replay: return "replay";
      case JobKind::Resume: return "resume";
      case JobKind::Verify: return "verify";
      case JobKind::Status: return "status";
      case JobKind::Shutdown: return "shutdown";
    }
    return "unknown";
}

const char *
toString(JobStatus status)
{
    switch (status) {
      case JobStatus::Ok: return "ok";
      case JobStatus::Running: return "running";
      case JobStatus::Overloaded: return "overloaded";
      case JobStatus::InFlight: return "in-flight";
      case JobStatus::ShuttingDown: return "shutting-down";
      case JobStatus::InvalidRequest: return "invalid-request";
      case JobStatus::Failed: return "failed";
      case JobStatus::Timeout: return "timeout";
      case JobStatus::Crashed: return "crashed";
      case JobStatus::TraceDamage: return "trace-damage";
      case JobStatus::QuotaExceeded: return "quota-exceeded";
      case JobStatus::Quarantined: return "quarantined";
    }
    return "unknown";
}

bool
isRetryable(JobStatus status)
{
    return status == JobStatus::Overloaded ||
           status == JobStatus::InFlight ||
           status == JobStatus::ShuttingDown ||
           status == JobStatus::Quarantined;
}

namespace {

// v3: FaultSpec grew the worker-process fault fields.
// v4: the thread-count field is gone.
constexpr uint8_t kRequestVersion = 4;
constexpr uint8_t kReplyVersion = 1;

/** Decode under the StateReader's SimFatal contract -> bool + err. */
template <typename Fn>
bool
tryDecode(const char *what, std::string *err, Fn &&fn)
{
    try {
        fn();
        return true;
    } catch (const std::exception &e) {
        if (err != nullptr)
            *err = std::string(what) + ": " + e.what();
        return false;
    }
}

} // namespace

std::vector<uint8_t>
JobRequest::encode() const
{
    StateWriter w;
    const size_t mark = w.beginSection("job-request");
    w.u8(kRequestVersion);
    w.str(job_id);
    w.u8(uint8_t(kind));
    w.str(tenant);
    w.str(app);
    w.pod(scale);
    w.u64(seed);
    w.u64(checkpoint_every);
    w.u64(step_budget);
    w.str(trace_path);
    w.u64(job_timeout_ms);
    saveFaultSpec(w, fault);
    w.endSection(mark);
    return w.data();
}

bool
JobRequest::decode(const std::vector<uint8_t> &payload, JobRequest *out,
                   std::string *err)
{
    return tryDecode("job request", err, [&] {
        StateReader r(payload.data(), payload.size(), "job-request");
        StateReader s = r.enterSection("job-request");
        const uint8_t version = s.u8();
        if (version != kRequestVersion)
            fatal("unsupported request version %u", unsigned(version));
        out->job_id = s.str();
        out->kind = JobKind(s.u8());
        out->tenant = s.str();
        out->app = s.str();
        out->scale = s.pod<double>();
        out->seed = s.u64();
        out->checkpoint_every = s.u64();
        out->step_budget = s.u64();
        out->trace_path = s.str();
        out->job_timeout_ms = s.u64();
        out->fault = loadFaultSpec(s);
        s.expectEnd();
        r.expectEnd();
    });
}

std::vector<uint8_t>
JobReply::encode() const
{
    StateWriter w;
    const size_t mark = w.beginSection("job-reply");
    w.u8(kReplyVersion);
    w.str(job_id);
    w.u8(uint8_t(status));
    w.str(detail);
    w.str(error_class);
    w.u64(cycle);
    w.u64(digest);
    w.u64(checkpoints);
    w.b(completed);
    w.b(cached);
    w.endSection(mark);
    return w.data();
}

bool
JobReply::decode(const std::vector<uint8_t> &payload, JobReply *out,
                 std::string *err)
{
    return tryDecode("job reply", err, [&] {
        StateReader r(payload.data(), payload.size(), "job-reply");
        StateReader s = r.enterSection("job-reply");
        const uint8_t version = s.u8();
        if (version != kReplyVersion)
            fatal("unsupported reply version %u", unsigned(version));
        out->job_id = s.str();
        out->status = JobStatus(s.u8());
        out->detail = s.str();
        out->error_class = s.str();
        out->cycle = s.u64();
        out->digest = s.u64();
        out->checkpoints = s.u64();
        out->completed = s.b();
        out->cached = s.b();
        s.expectEnd();
        r.expectEnd();
    });
}

std::string
JobReply::toString() const
{
    std::string s = "[" + job_id + "] " + vidi::toString(status);
    if (!error_class.empty())
        s += " (" + error_class + ")";
    s += " @ cycle " + std::to_string(cycle);
    if (cached)
        s += " [cached]";
    if (!detail.empty())
        s += ": " + detail;
    return s;
}

} // namespace vidi
