#include "serve/worker.h"

#include <chrono>
#include <csignal>
#include <cstring>
#include <exception>
#include <memory>

#include <sys/resource.h>
#include <unistd.h>

#include "checkpoint/live_session.h"
#include "checkpoint/state_io.h"
#include "fault/fault_injector.h"
#include "serve/session_manager.h"
#include "serve/supervisor.h"
#include "serve/wire.h"
#include "sim/logging.h"

namespace vidi {

namespace {

// v2: the embedded VidiConfig lost its thread-count field.
constexpr uint8_t kWorkerJobVersion = 2;

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

/**
 * Execute one injected worker-process fault — a *real* death. Default
 * signal dispositions are restored first so a sanitizer's handlers
 * cannot soften the death into a report-and-exit: the parent must see
 * the true termination signal in the waitpid status.
 */
void
fireWorkerFault(FaultKind kind)
{
    struct sigaction dfl;
    std::memset(&dfl, 0, sizeof(dfl));
    dfl.sa_handler = SIG_DFL;
    switch (kind) {
      case FaultKind::WorkerSegv:
        ::sigaction(SIGSEGV, &dfl, nullptr);
        ::raise(SIGSEGV);
        break;
      case FaultKind::WorkerKill:
        ::raise(SIGKILL);
        break;
      case FaultKind::WorkerExit:
        ::_exit(0);
      case FaultKind::WorkerHang: {
        // Wedge past the watchdog: with SIGTERM blocked, only the
        // escalation to SIGKILL can end this loop — which is exactly
        // the path the hang fault exists to prove.
        sigset_t block;
        sigemptyset(&block);
        sigaddset(&block, SIGTERM);
        ::sigprocmask(SIG_BLOCK, &block, nullptr);
        for (;;)
            ::pause();
      }
      default:
        break;
    }
    // A raised fatal signal with default disposition never returns;
    // make death unconditional anyway so a blocked signal cannot turn
    // an injected fault into a silent no-op.
    ::_exit(13);
}

void
applyLimits(const WorkerLimits &limits)
{
    if (limits.mem_mb != 0) {
        rlimit rl;
        rl.rlim_cur = rl.rlim_max = rlim_t(limits.mem_mb) << 20;
        ::setrlimit(RLIMIT_AS, &rl);
    }
    if (limits.cpu_secs != 0) {
        // Soft limit delivers SIGXCPU (kills with default disposition);
        // the hard limit two seconds later is the uncatchable backstop.
        rlimit rl;
        rl.rlim_cur = rlim_t(limits.cpu_secs);
        rl.rlim_max = rlim_t(limits.cpu_secs) + 2;
        ::setrlimit(RLIMIT_CPU, &rl);
    }
}

/** Build-or-hydrate, supervise, and shape the reply for one job. */
JobReply
executeWorkerJob(int fd, const WorkerJob &job)
{
    JobReply reply;
    if (job.kind == JobKind::Verify)
        return superviseVerify(job.trace_path);

    std::unique_ptr<LiveSession> live;
    bool rehydrated = false;
    try {
        if (job.fresh) {
            SessionManifest effective = job.manifest;
            spillReplayInput(job.dir, &effective);
            std::unique_ptr<AppBuilder> app =
                makeServeApp(effective.app);
            if (app == nullptr) {
                reply.status = JobStatus::InvalidRequest;
                reply.detail = "unknown app '" + effective.app + "'";
                return reply;
            }
            live = LiveSession::create(std::move(app), job.dir,
                                       effective);
        } else {
            const Session session = Session::open(job.dir);
            std::unique_ptr<AppBuilder> app =
                makeServeApp(session.manifest().app);
            if (app == nullptr) {
                reply.status = JobStatus::Failed;
                reply.error_class = "session-setup";
                reply.detail =
                    "unknown app '" + session.manifest().app + "'";
                return reply;
            }
            live = LiveSession::hydrate(std::move(app), job.dir);
            rehydrated = true;
        }
    } catch (const std::exception &e) {
        reply.status = JobStatus::Failed;
        reply.error_class = "session-setup";
        reply.detail = e.what();
        return reply;
    }

    // Heartbeats and injected worker-process faults both ride the
    // supervisor's slice loop; the ceiling clamps each slice to the
    // next pending fault cycle, so a cycle-addressed fault fires
    // exactly when the session reaches it even when the whole run fits
    // inside one 8 Ki slice. A wedged live.step() is exactly what
    // stops the heartbeats.
    FaultInjector faults{job.fault};
    const uint64_t interval_ms =
        job.heartbeat_ms != 0 ? job.heartbeat_ms : 100;
    auto last_beat = std::chrono::steady_clock::now();
    const SliceHook hook = [&](uint64_t cycle) {
        FaultKind kind;
        if (faults.workerFaultDue(cycle, &kind)) {
            // Name the death cycle in the parent's report: a short run
            // can reach the fault before the first timed heartbeat.
            std::string err;
            wire::sendFrame(fd, encodeHeartbeat(cycle), &err);
            fireWorkerFault(kind);
        }
        const auto now = std::chrono::steady_clock::now();
        if (now - last_beat >=
            std::chrono::milliseconds(interval_ms)) {
            last_beat = now;
            std::string err;
            wire::sendFrame(fd, encodeHeartbeat(cycle), &err);
        }
    };

    SuperviseOutcome out = superviseSession(
        *live, job.step_budget, job.timeout_ms, hook,
        [&] { return faults.pendingWorkerFaultCycle(); });
    if (rehydrated)
        out.reply.detail += " [rehydrated]";

    // Process mode holds no sessions in memory between jobs: a Running
    // reply must leave the directory durable so *any* future worker
    // can pick the tenant up. (Timeout already evicted inside the
    // supervisor; Finished/Poisoned need no commit.)
    if (out.reply.status == JobStatus::Running) {
        try {
            live->evict();
            out.reply.detail =
                "step budget exhausted; session checkpointed";
        } catch (const std::exception &e) {
            out.reply.status = JobStatus::Failed;
            out.reply.error_class = "evict";
            out.reply.detail = e.what();
        }
    }
    return out.reply;
}

} // namespace

std::vector<uint8_t>
WorkerJob::encode() const
{
    StateWriter w;
    const size_t mark = w.beginSection("worker-job");
    w.u8(kWorkerJobVersion);
    w.u8(uint8_t(kind));
    w.str(tenant);
    w.str(dir);
    w.b(fresh);
    w.str(manifest.app);
    w.u8(manifest.mode);
    w.u64(manifest.seed);
    w.pod(manifest.scale);
    w.u64(manifest.checkpoint_every);
    w.u64(manifest.checkpoint_retain);
    w.str(manifest.trace_path);
    saveVidiConfig(w, manifest.cfg);
    w.u64(step_budget);
    w.u64(timeout_ms);
    w.u64(heartbeat_ms);
    w.str(trace_path);
    saveFaultSpec(w, fault);
    w.endSection(mark);
    return w.data();
}

bool
WorkerJob::decode(const std::vector<uint8_t> &payload, WorkerJob *out,
                  std::string *err)
{
    return tryDecode("worker job", err, [&] {
        StateReader r(payload.data(), payload.size(), "worker-job");
        StateReader s = r.enterSection("worker-job");
        const uint8_t version = s.u8();
        if (version != kWorkerJobVersion)
            fatal("unsupported worker-job version %u", unsigned(version));
        out->kind = JobKind(s.u8());
        out->tenant = s.str();
        out->dir = s.str();
        out->fresh = s.b();
        out->manifest.app = s.str();
        out->manifest.mode = s.u8();
        out->manifest.seed = s.u64();
        out->manifest.scale = s.pod<double>();
        out->manifest.checkpoint_every = s.u64();
        out->manifest.checkpoint_retain = s.u64();
        out->manifest.trace_path = s.str();
        out->manifest.cfg = loadVidiConfig(s);
        out->step_budget = s.u64();
        out->timeout_ms = s.u64();
        out->heartbeat_ms = s.u64();
        out->trace_path = s.str();
        out->fault = loadFaultSpec(s);
        s.expectEnd();
        r.expectEnd();
    });
}

std::vector<uint8_t>
encodeHeartbeat(uint64_t cycle)
{
    std::vector<uint8_t> payload(9);
    payload[0] = kWorkerFrameHeartbeat;
    for (int i = 0; i < 8; ++i)
        payload[1 + i] = uint8_t(cycle >> (8 * i));
    return payload;
}

std::vector<uint8_t>
encodeWorkerReply(const JobReply &reply)
{
    std::vector<uint8_t> payload = reply.encode();
    payload.insert(payload.begin(), kWorkerFrameReply);
    return payload;
}

void
fillWorkerDeathReply(JobReply &reply, int wstatus, bool watchdog_killed,
                     uint64_t last_cycle)
{
    reply.status = JobStatus::Crashed;
    reply.completed = false;
    reply.cycle = last_cycle;
    std::string how;
    if (WIFSIGNALED(wstatus)) {
        const int sig = WTERMSIG(wstatus);
        how = "killed by signal " + std::to_string(sig) + " (" +
              std::string(strsignal(sig)) + ")";
        if (watchdog_killed) {
            reply.error_class = "worker-hang";
        } else {
            switch (sig) {
              case SIGSEGV:
              case SIGBUS:
                reply.error_class = "worker-segv";
                break;
              case SIGABRT:
                reply.error_class = "worker-abort";
                break;
              case SIGKILL:
                reply.error_class = "worker-killed";
                break;
              case SIGXCPU:
                reply.error_class = "worker-cpu";
                break;
              case SIGTERM:
                reply.error_class = "worker-term";
                break;
              default:
                reply.error_class = "worker-signal";
                break;
            }
        }
    } else if (WIFEXITED(wstatus)) {
        how = "exited with status " +
              std::to_string(WEXITSTATUS(wstatus)) + " mid-job";
        reply.error_class =
            watchdog_killed ? "worker-hang" : "worker-exit";
    } else {
        how = "died with wait status " + std::to_string(wstatus);
        reply.error_class = "worker-unknown";
    }
    reply.detail = "worker process " + how + " near cycle " +
                   std::to_string(last_cycle) +
                   "; session resumable from its last committed "
                   "checkpoint";
    if (watchdog_killed)
        reply.detail = "hung worker (no heartbeat): " + reply.detail;
}

void
workerMain(int fd, const WorkerLimits &limits)
{
    // Inherited dispositions point at daemon state that does not exist
    // here (the SIGTERM handler writes the parent's wake pipe); reset
    // so the supervisor's SIGTERM -> SIGKILL escalation behaves.
    struct sigaction dfl;
    std::memset(&dfl, 0, sizeof(dfl));
    dfl.sa_handler = SIG_DFL;
    ::sigaction(SIGTERM, &dfl, nullptr);
    ::sigaction(SIGINT, &dfl, nullptr);
    wire::ignoreSigpipe();
    applyLimits(limits);

    std::vector<uint8_t> payload;
    std::string err;
    for (;;) {
        const int rc = wire::recvFrame(fd, &payload, &err);
        if (rc != 1)
            ::_exit(0);  // parent closed the pair: clean retirement
        WorkerJob job;
        if (!WorkerJob::decode(payload, &job, &err))
            ::_exit(2);  // protocol desync: die loudly, parent respawns
        // Heartbeat immediately so the watchdog clock starts at job
        // receipt — session construction may be slow but is not hung.
        wire::sendFrame(fd, encodeHeartbeat(0), &err);
        const JobReply reply = executeWorkerJob(fd, job);
        if (!wire::sendFrame(fd, encodeWorkerReply(reply), &err))
            ::_exit(0);
    }
}

} // namespace vidi
