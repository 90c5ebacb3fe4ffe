/**
 * @file
 * Tests for the vidi_serve daemon stack: wire framing, protocol
 * round-trips, the session manager's lease/evict machinery and the
 * daemon end-to-end over a real Unix socket.
 *
 * The centerpiece is the fault-isolation acceptance test: several
 * tenants record concurrently while one of them is killed mid-flight by
 * an injected crash fault — the victim gets a structured error reply
 * and a resumable session, everyone else completes bit-identically to
 * an uninterrupted local run, and a SIGTERM drain commits every live
 * session's checkpoint before the daemon exits.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "apps/app_registry.h"
#include "checkpoint/atomic_file.h"
#include "checkpoint/session.h"
#include "checkpoint/session_runner.h"
#include "core/job_clock.h"
#include "core/runtime.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/session_manager.h"
#include "serve/wire.h"
#include "serve/worker.h"
#include "serve/worker_pool.h"
#include "trace/trace_file.h"

namespace vidi {
namespace {

constexpr double kScale = 0.1;
constexpr uint64_t kSeed = 1;

/**
 * Slowdown allowance for wall-clock watchdogs. A sanitized worker
 * process runs several times slower, and one that is merely slow must
 * not be killed as hung.
 */
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr uint64_t kSanitizerSlowdown = 10;
#else
constexpr uint64_t kSanitizerSlowdown = 1;
#endif

std::string
scratchDir(const std::string &leaf)
{
    const std::string dir = ::testing::TempDir() + "vidi_serve_" + leaf;
    makeDirs(dir);
    return dir;
}

std::unique_ptr<AppBuilder>
makeApp(const std::string &name)
{
    auto app = makeServeApp(name);
    EXPECT_NE(app, nullptr) << "unknown app " << name;
    return app;
}

/** Uninterrupted local recording of DMA, the tests' yardstick. */
struct Reference
{
    uint64_t cycles = 0;
    uint64_t digest = 0;
    std::vector<uint8_t> trace_bytes;
};

const Reference &
dmaReference()
{
    static Reference ref;
    if (ref.cycles != 0)
        return ref;
    // One directory per process, removed once read: ctest runs every
    // test as its own process, often at the same time, and processes
    // sharing one reference file race on its atomic rename.
    const std::string dir =
        scratchDir("ref_" + std::to_string(::getpid()));
    const std::string out = dir + "/dma.vtrc";
    auto app = makeApp("DMA");
    const RecordResult rec = recordSession(*app, dir + "/session", kScale,
                                           kSeed, /*checkpoint_every=*/0,
                                           out);
    EXPECT_TRUE(rec.completed);
    ref.cycles = rec.cycles;
    ref.digest = rec.digest;
    ref.trace_bytes = readFileBytes(out);
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    return ref;
}

// --- JobClock ---------------------------------------------------------

TEST(JobClock, DisarmedIsFreeRunning)
{
    const JobClock clock(0);
    EXPECT_FALSE(clock.armed());
    EXPECT_FALSE(clock.expired());
    EXPECT_EQ(clock.sliceCycles(), JobClock::kUnbounded);
    EXPECT_EQ(clock.remainingMs(), ~0ull);
    // The disarmed slice must survive the harnesses' `cycle + slice`
    // arithmetic without wrapping — a ~0ull slice would spin forever.
    const uint64_t cycle = 1'000'000;
    EXPECT_GT(cycle + clock.sliceCycles(), cycle);
}

TEST(JobClock, ArmedExpiresAndSlices)
{
    const JobClock clock(1, /*slice_cycles=*/4096);
    EXPECT_TRUE(clock.armed());
    EXPECT_EQ(clock.sliceCycles(), 4096u);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_TRUE(clock.expired());
    EXPECT_EQ(clock.remainingMs(), 0u);
}

// --- Wire framing -----------------------------------------------------

TEST(Wire, FrameRoundTripOverSocketPair)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const wire::Fd a(fds[0]);
    const wire::Fd b(fds[1]);

    const std::vector<uint8_t> payload = {1, 2, 3, 250, 0, 7};
    std::string err;
    ASSERT_TRUE(wire::sendFrame(a.get(), payload, &err)) << err;

    std::vector<uint8_t> received;
    ASSERT_EQ(wire::recvFrame(b.get(), &received, &err), 1) << err;
    EXPECT_EQ(received, payload);
}

TEST(Wire, BadMagicAndCleanEofAreDistinguished)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    wire::Fd a(fds[0]);
    const wire::Fd b(fds[1]);

    const uint8_t junk[8] = {'n', 'o', 'p', 'e', 0, 0, 0, 0};
    ASSERT_EQ(::send(a.get(), junk, sizeof(junk), 0), 8);
    std::vector<uint8_t> payload;
    std::string err;
    EXPECT_EQ(wire::recvFrame(b.get(), &payload, &err), -1);
    EXPECT_NE(err.find("magic"), std::string::npos);

    a.reset();  // close -> clean EOF
    err.clear();
    EXPECT_EQ(wire::recvFrame(b.get(), &payload, &err), 0);
}

// --- Protocol ---------------------------------------------------------

TEST(Protocol, RequestRoundTrip)
{
    JobRequest request;
    request.job_id = "job-42";
    request.kind = JobKind::Record;
    request.tenant = "tenant-a";
    request.app = "DMA";
    request.scale = 0.25;
    request.seed = 99;
    request.checkpoint_every = 12'345;
    request.step_budget = 777;
    request.trace_path = "/tmp/x.vtrc";
    request.job_timeout_ms = 1'500;
    request.fault.crash_at_cycle = 4'096;
    request.fault.line_bit_flips = 3;

    JobRequest decoded;
    std::string err;
    ASSERT_TRUE(JobRequest::decode(request.encode(), &decoded, &err))
        << err;
    EXPECT_EQ(decoded.job_id, request.job_id);
    EXPECT_EQ(decoded.kind, request.kind);
    EXPECT_EQ(decoded.tenant, request.tenant);
    EXPECT_EQ(decoded.app, request.app);
    EXPECT_EQ(decoded.scale, request.scale);
    EXPECT_EQ(decoded.seed, request.seed);
    EXPECT_EQ(decoded.checkpoint_every, request.checkpoint_every);
    EXPECT_EQ(decoded.step_budget, request.step_budget);
    EXPECT_EQ(decoded.trace_path, request.trace_path);
    EXPECT_EQ(decoded.job_timeout_ms, request.job_timeout_ms);
    EXPECT_EQ(decoded.fault.crash_at_cycle, 4'096u);
    EXPECT_EQ(decoded.fault.line_bit_flips, 3u);
}

TEST(Protocol, ReplyRoundTripAndMalformedRejection)
{
    JobReply reply;
    reply.job_id = "job-7";
    reply.status = JobStatus::Crashed;
    reply.detail = "simulated crash";
    reply.error_class = "SimulatedCrash";
    reply.cycle = 123'456;
    reply.digest = 0xdeadbeef;
    reply.checkpoints = 4;

    JobReply decoded;
    std::string err;
    ASSERT_TRUE(JobReply::decode(reply.encode(), &decoded, &err)) << err;
    EXPECT_EQ(decoded.status, JobStatus::Crashed);
    EXPECT_EQ(decoded.error_class, "SimulatedCrash");
    EXPECT_EQ(decoded.cycle, 123'456u);

    // Truncated and garbage payloads must be rejected, not sheared.
    std::vector<uint8_t> bytes = reply.encode();
    bytes.resize(bytes.size() / 2);
    EXPECT_FALSE(JobReply::decode(bytes, &decoded, &err));
    JobRequest garbage;
    EXPECT_FALSE(JobRequest::decode({0x13, 0x37}, &garbage, &err));
}

TEST(Protocol, RetryableStatuses)
{
    EXPECT_TRUE(isRetryable(JobStatus::Overloaded));
    EXPECT_TRUE(isRetryable(JobStatus::InFlight));
    EXPECT_TRUE(isRetryable(JobStatus::ShuttingDown));
    // Quarantine lifts after the window: retrying is the whole point.
    EXPECT_TRUE(isRetryable(JobStatus::Quarantined));
    EXPECT_FALSE(isRetryable(JobStatus::Ok));
    EXPECT_FALSE(isRetryable(JobStatus::Failed));
    EXPECT_FALSE(isRetryable(JobStatus::Crashed));
    EXPECT_FALSE(isRetryable(JobStatus::Timeout));
    // Over quota stays over quota until someone frees disk; a blind
    // retry loop must settle, not spin.
    EXPECT_FALSE(isRetryable(JobStatus::QuotaExceeded));
}

// --- Worker process layer ---------------------------------------------

TEST(Wire, ListenerAndConnectionsAreCloseOnExec)
{
    const std::string path = scratchDir("cloexec") + "/s.sock";
    std::string err;
    const wire::Fd listener = wire::listenUnix(path, 4, &err);
    ASSERT_TRUE(listener.valid()) << err;
    const wire::Fd conn = wire::connectUnix(path, &err);
    ASSERT_TRUE(conn.valid()) << err;
    // An exec'd worker process must not inherit daemon sockets: a leak
    // would pin the listener past daemon death and let a worker hold
    // client connections open.
    EXPECT_NE(::fcntl(listener.get(), F_GETFD) & FD_CLOEXEC, 0);
    EXPECT_NE(::fcntl(conn.get(), F_GETFD) & FD_CLOEXEC, 0);
}

TEST(Wire, ClosedPeerIsAnErrorNotASignal)
{
    wire::ignoreSigpipe();
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const wire::Fd a(fds[0]);
    wire::Fd b(fds[1]);
    b.reset();  // peer gone, as after a worker crash
    std::string err;
    // Large enough to defeat kernel buffering on the first write.
    const std::vector<uint8_t> payload(1 << 20, 0x5a);
    EXPECT_FALSE(wire::sendFrame(a.get(), payload, &err));
}

TEST(WorkerProtocol, JobRoundTrip)
{
    WorkerJob job;
    job.kind = JobKind::Replay;
    job.tenant = "t9";
    job.dir = "/tmp/t9";
    job.fresh = true;
    job.manifest.app = "DMA";
    job.manifest.mode = uint8_t(VidiMode::R3_Replay);
    job.manifest.seed = 11;
    job.manifest.scale = 0.5;
    job.manifest.checkpoint_every = 256;
    job.manifest.trace_path = "/tmp/in.vtrc";
    job.step_budget = 1'000;
    job.timeout_ms = 2'500;
    job.heartbeat_ms = 20;
    job.trace_path = "/tmp/v.vtrc";
    job.fault.worker_segv_at_cycle = 400;
    job.fault.worker_hang_at_cycle = 500;

    WorkerJob decoded;
    std::string err;
    ASSERT_TRUE(WorkerJob::decode(job.encode(), &decoded, &err)) << err;
    EXPECT_EQ(decoded.kind, job.kind);
    EXPECT_EQ(decoded.tenant, job.tenant);
    EXPECT_EQ(decoded.dir, job.dir);
    EXPECT_EQ(decoded.fresh, job.fresh);
    EXPECT_EQ(decoded.manifest.app, job.manifest.app);
    EXPECT_EQ(decoded.manifest.mode, job.manifest.mode);
    EXPECT_EQ(decoded.manifest.seed, job.manifest.seed);
    EXPECT_EQ(decoded.manifest.scale, job.manifest.scale);
    EXPECT_EQ(decoded.manifest.checkpoint_every,
              job.manifest.checkpoint_every);
    EXPECT_EQ(decoded.manifest.trace_path, job.manifest.trace_path);
    EXPECT_EQ(decoded.step_budget, job.step_budget);
    EXPECT_EQ(decoded.timeout_ms, job.timeout_ms);
    EXPECT_EQ(decoded.heartbeat_ms, job.heartbeat_ms);
    EXPECT_EQ(decoded.trace_path, job.trace_path);
    EXPECT_EQ(decoded.fault.worker_segv_at_cycle, 400u);
    EXPECT_EQ(decoded.fault.worker_hang_at_cycle, 500u);

    std::vector<uint8_t> truncated = job.encode();
    truncated.resize(truncated.size() / 2);
    EXPECT_FALSE(WorkerJob::decode(truncated, &decoded, &err));
}

/** Run @p die in a forked child and return its wait status. */
int
waitStatusOf(void (*die)())
{
    const pid_t pid = ::fork();
    if (pid == 0) {
        die();
        ::_exit(99);  // unreachable for fatal deaths
    }
    int wstatus = 0;
    pid_t rc;
    do {
        rc = ::waitpid(pid, &wstatus, 0);
    } while (rc < 0 && errno == EINTR);
    EXPECT_EQ(rc, pid);
    return wstatus;
}

TEST(WorkerDeath, WaitStatusMapsOntoJobStatusTaxonomy)
{
    // A real SIGSEGV (default disposition restored so a sanitizer
    // handler cannot soften it into report-and-exit).
    const int segv = waitStatusOf([] {
        struct sigaction dfl;
        std::memset(&dfl, 0, sizeof(dfl));
        dfl.sa_handler = SIG_DFL;
        ::sigaction(SIGSEGV, &dfl, nullptr);
        ::raise(SIGSEGV);
    });
    JobReply reply;
    fillWorkerDeathReply(reply, segv, /*watchdog_killed=*/false,
                         /*last_cycle=*/42);
    EXPECT_EQ(reply.status, JobStatus::Crashed);
    EXPECT_EQ(reply.error_class, "worker-segv");
    EXPECT_EQ(reply.cycle, 42u);
    EXPECT_FALSE(reply.completed);
    EXPECT_NE(reply.detail.find("resumable"), std::string::npos)
        << reply.detail;

    const int killed = waitStatusOf([] { ::raise(SIGKILL); });
    fillWorkerDeathReply(reply, killed, false, 7);
    EXPECT_EQ(reply.status, JobStatus::Crashed);
    EXPECT_EQ(reply.error_class, "worker-killed");

    const int exited = waitStatusOf([] { ::_exit(3); });
    fillWorkerDeathReply(reply, exited, false, 7);
    EXPECT_EQ(reply.status, JobStatus::Crashed);
    EXPECT_EQ(reply.error_class, "worker-exit");

    // The watchdog's verdict dominates whatever signal finally landed:
    // the job died because it stopped heartbeating.
    fillWorkerDeathReply(reply, killed, /*watchdog_killed=*/true, 7);
    EXPECT_EQ(reply.error_class, "worker-hang");
    EXPECT_NE(reply.detail.find("hung"), std::string::npos)
        << reply.detail;
}

TEST(CrashLoopBreakerTest, SlidingWindowQuarantine)
{
    CrashLoopBreaker breaker(/*max_crashes=*/3, /*window_ms=*/1'000);
    EXPECT_EQ(breaker.quarantinedForMs("t", 0), 0u);
    breaker.recordCrash("t", 0);
    breaker.recordCrash("t", 100);
    EXPECT_EQ(breaker.quarantinedForMs("t", 150), 0u);
    // Third crash inside the window trips the breaker for one window.
    breaker.recordCrash("t", 200);
    EXPECT_EQ(breaker.quarantinedForMs("t", 300), 900u);
    EXPECT_EQ(breaker.quarantinedForMs("other", 300), 0u);
    // Quarantine expires on its own; no reset call required.
    EXPECT_EQ(breaker.quarantinedForMs("t", 1'200), 0u);

    // Crashes spaced wider than the window never accumulate.
    breaker.recordCrash("slow", 0);
    breaker.recordCrash("slow", 2'000);
    breaker.recordCrash("slow", 4'000);
    EXPECT_EQ(breaker.quarantinedForMs("slow", 4'001), 0u);

    // max_crashes == 0 disables the policy outright.
    CrashLoopBreaker off(0, 1'000);
    off.recordCrash("t", 0);
    off.recordCrash("t", 1);
    off.recordCrash("t", 2);
    EXPECT_EQ(off.quarantinedForMs("t", 3), 0u);
}

// --- SessionManager ---------------------------------------------------

TEST(SessionManagerTest, TenantNameValidation)
{
    EXPECT_TRUE(SessionManager::validTenant("tenant-a_1.x"));
    EXPECT_FALSE(SessionManager::validTenant(""));
    EXPECT_FALSE(SessionManager::validTenant("../escape"));
    EXPECT_FALSE(SessionManager::validTenant("a/b"));
    EXPECT_FALSE(SessionManager::validTenant(".hidden"));
    EXPECT_FALSE(SessionManager::validTenant("sp ace"));
}

SessionManifest
dmaManifest(uint64_t checkpoint_every)
{
    SessionManifest m;
    m.app = "DMA";
    m.mode = uint8_t(VidiMode::R2_Record);
    m.seed = kSeed;
    m.scale = kScale;
    m.checkpoint_every = checkpoint_every;
    m.cfg.checkpoint_min_interval_ms = 0;
    return m;
}

TEST(SessionManagerTest, BusyLeaseAndUnknownTenant)
{
    SessionManager mgr(scratchDir("mgr_busy"), 4);

    auto lease = mgr.acquireFresh("t0", dmaManifest(0));
    ASSERT_NE(lease.session, nullptr) << lease.error;

    // Same tenant while leased: retryable, not a data race.
    const auto dup = mgr.acquireExisting("t0");
    EXPECT_EQ(dup.session, nullptr);
    EXPECT_EQ(dup.status, JobStatus::Overloaded);

    const auto unknown = mgr.acquireExisting("never-seen");
    EXPECT_EQ(unknown.session, nullptr);
    EXPECT_EQ(unknown.status, JobStatus::InvalidRequest);

    const auto bad_app = mgr.acquireFresh("t1", [] {
        SessionManifest m = dmaManifest(0);
        m.app = "NoSuchApp";
        return m;
    }());
    EXPECT_EQ(bad_app.session, nullptr);
    EXPECT_EQ(bad_app.status, JobStatus::InvalidRequest);
    EXPECT_NE(bad_app.error.find("EchoServer"), std::string::npos);

    mgr.release("t0", SessionDisposition::Idle);
    EXPECT_EQ(mgr.stats().busy, 0u);
    EXPECT_EQ(mgr.stats().live, 1u);
}

TEST(SessionManagerTest, LruEvictionAndRehydration)
{
    const Reference &ref = dmaReference();
    SessionManager mgr(scratchDir("mgr_lru"), /*max_live=*/1);

    // Two tenants, capacity one: leasing the second must evict the
    // first (checkpointing it), and touching the first again must
    // rehydrate it from disk.
    auto a = mgr.acquireFresh("alpha", dmaManifest(ref.cycles / 4));
    ASSERT_NE(a.session, nullptr) << a.error;
    a.session->step(ref.cycles / 3);
    mgr.release("alpha", SessionDisposition::Idle);

    auto b = mgr.acquireFresh("beta", dmaManifest(ref.cycles / 4));
    ASSERT_NE(b.session, nullptr) << b.error;
    mgr.release("beta", SessionDisposition::Idle);

    EXPECT_EQ(mgr.stats().live, 1u);
    EXPECT_GE(mgr.stats().evictions, 1u);

    auto a2 = mgr.acquireExisting("alpha");
    ASSERT_NE(a2.session, nullptr) << a2.error;
    EXPECT_TRUE(a2.rehydrated);
    // The rehydrated session resumes exactly where the eviction barrier
    // committed it.
    EXPECT_GT(a2.session->cycle(), 0u);
    while (!a2.session->finished())
        a2.session->step();
    const RecordResult result = a2.session->takeRecordResult();
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(result.cycles, ref.cycles);
    EXPECT_EQ(result.digest, ref.digest);
    mgr.release("alpha", SessionDisposition::Finished);
    EXPECT_GE(mgr.stats().rehydrations, 1u);
}

TEST(SessionManagerTest, ReplayInputSpillsToVtc2)
{
    const Reference &ref = dmaReference();
    const std::string dir = scratchDir("mgr_spill");
    const std::string v1path = dir + "/input.vtrc";
    writeFileAtomic(v1path, ref.trace_bytes);

    SessionManager mgr(dir + "/sessions", /*max_live=*/1);
    SessionManifest m;
    m.app = "DMA";
    m.mode = uint8_t(VidiMode::R3_Replay);
    m.seed = 0;
    m.scale = kScale;
    m.checkpoint_every = ref.cycles / 4;
    m.trace_path = v1path;
    m.cfg.checkpoint_min_interval_ms = 0;

    auto lease = mgr.acquireFresh("rt", m);
    ASSERT_NE(lease.session, nullptr) << lease.error;

    // The line-format input was spilled into the session directory as a
    // VTC2 container — what eviction leaves on disk — and the session
    // replays from the spill, which holds the identical packet stream
    // in fewer bytes.
    const std::string spilled = mgr.dirFor("rt") + "/trace.vtc2";
    ASSERT_TRUE(fileExists(spilled));
    EXPECT_EQ(lease.session->manifest().trace_path, spilled);
    EXPECT_TRUE(loadTrace(spilled) == loadTrace(v1path));
    EXPECT_LT(readFileBytes(spilled).size(), ref.trace_bytes.size());

    // Part-way in, capacity pressure from a second tenant evicts the
    // replay; rehydration must resume from the compressed container.
    lease.session->step(ref.cycles / 3);
    mgr.release("rt", SessionDisposition::Idle);
    auto other = mgr.acquireFresh("other", dmaManifest(0));
    ASSERT_NE(other.session, nullptr) << other.error;
    mgr.release("other", SessionDisposition::Finished);
    EXPECT_GE(mgr.stats().evictions, 1u);

    auto back = mgr.acquireExisting("rt");
    ASSERT_NE(back.session, nullptr) << back.error;
    EXPECT_TRUE(back.rehydrated);
    EXPECT_GT(back.session->cycle(), 0u);
    while (!back.session->finished())
        back.session->step();
    const ReplayResult churned = back.session->takeReplayResult();
    mgr.release("rt", SessionDisposition::Finished);

    // Bit-identical to an uninterrupted local replay of the original
    // line-format trace.
    auto app = makeApp("DMA");
    app->setScale(kScale);
    const ReplayResult local = replayFromFile(*app, v1path);
    ASSERT_TRUE(local.completed);
    EXPECT_TRUE(churned.completed);
    EXPECT_EQ(churned.cycles, local.cycles);
    EXPECT_EQ(churned.replayed_transactions, local.replayed_transactions);
    EXPECT_EQ(churned.digest, local.digest);

    // The per-tenant disk accounting sees the evicted directory.
    bool found = false;
    for (const SessionManager::DiskUsage &u : mgr.diskUsage()) {
        if (u.tenant != "rt")
            continue;
        found = true;
        EXPECT_GT(u.bytes, 0u);
        EXPECT_GT(u.trace_bytes, 0u);
        EXPECT_LE(u.trace_bytes, u.bytes);
    }
    EXPECT_TRUE(found);
}

// --- Daemon end-to-end ------------------------------------------------

class ServeEndToEnd : public ::testing::Test
{
  protected:
    void
    startServer(const std::string &leaf, size_t workers,
                size_t queue_capacity, size_t max_live,
                const std::function<void(ServeOptions &)> &tweak = {})
    {
        dir_ = scratchDir(leaf);
        ServeOptions opts;
        opts.socket_path = dir_ + "/serve.sock";
        opts.root_dir = dir_ + "/sessions";
        opts.workers = workers;
        opts.queue_capacity = queue_capacity;
        opts.max_live_sessions = max_live;
        opts.base_cfg.checkpoint_min_interval_ms = 0;
        if (tweak)
            tweak(opts);
        server_ = std::make_unique<VidiServer>(opts);
        std::string err;
        ASSERT_TRUE(server_->start(&err)) << err;
    }

    /** Fast supervision timings for worker-process tests. */
    static void
    processMode(ServeOptions &opts, size_t procs)
    {
        opts.worker_procs = procs;
        opts.heartbeat_interval_ms = 20;
        opts.heartbeat_timeout_ms = 400 * kSanitizerSlowdown;
        opts.kill_grace_ms = 100;
    }

    ClientOptions
    clientOptions() const
    {
        ClientOptions copts;
        copts.socket_path = dir_ + "/serve.sock";
        copts.max_retries = 8;
        copts.retry_backoff_ms = 10;
        return copts;
    }

    JobRequest
    recordRequest(const std::string &tenant, const std::string &job_id,
                  uint64_t checkpoint_every) const
    {
        JobRequest request;
        request.job_id = job_id;
        request.kind = JobKind::Record;
        request.tenant = tenant;
        request.app = "DMA";
        request.seed = kSeed;
        request.scale = kScale;
        request.checkpoint_every = checkpoint_every;
        request.trace_path = dir_ + "/" + tenant + ".vtrc";
        return request;
    }

    std::string dir_;
    std::unique_ptr<VidiServer> server_;
};

TEST_F(ServeEndToEnd, FaultIsolationAcrossTenants)
{
    const Reference &ref = dmaReference();
    startServer("isolation", /*workers=*/3, /*queue=*/16, /*max_live=*/8);

    // Four tenants record concurrently; "victim" carries an injected
    // crash fault and "corrupted" has its storage lines bit-flipped.
    // The blast radius must be exactly those two structured replies.
    struct Tenant
    {
        JobRequest request;
        JobReply reply;
        bool ok = false;
        std::string err;
    };
    std::vector<Tenant> tenants(4);
    const char *names[] = {"healthy-a", "victim", "healthy-b",
                           "corrupted"};
    for (size_t i = 0; i < tenants.size(); ++i) {
        tenants[i].request = recordRequest(
            names[i], std::string("iso-") + names[i], ref.cycles / 4);
        if (i == 1)
            tenants[i].request.fault.crash_at_cycle = ref.cycles / 2;
        if (i == 3)
            tenants[i].request.fault.line_bit_flips = 4;
    }
    std::vector<std::thread> threads;
    for (Tenant &tenant : tenants) {
        threads.emplace_back([this, &tenant] {
            VidiClient client(clientOptions());
            tenant.ok =
                client.submit(tenant.request, &tenant.reply, &tenant.err);
        });
    }
    for (std::thread &t : threads)
        t.join();

    for (Tenant &tenant : tenants)
        ASSERT_TRUE(tenant.ok) << tenant.err;

    // Victim: structured error, not a dead daemon.
    EXPECT_EQ(tenants[1].reply.status, JobStatus::Crashed);
    EXPECT_EQ(tenants[1].reply.error_class, "SimulatedCrash");
    EXPECT_EQ(tenants[1].reply.cycle, ref.cycles / 2);

    // Corrupted: the damage is detected and classified, per-tenant.
    EXPECT_EQ(tenants[3].reply.status, JobStatus::TraceDamage)
        << tenants[3].reply.detail;
    EXPECT_EQ(tenants[3].reply.error_class, "trace-damage");

    // Survivors: complete and bit-identical to the uninterrupted run.
    for (const size_t i : {size_t(0), size_t(2)}) {
        EXPECT_EQ(tenants[i].reply.status, JobStatus::Ok)
            << tenants[i].reply.detail;
        EXPECT_EQ(tenants[i].reply.digest, ref.digest);
        EXPECT_EQ(tenants[i].reply.cycle, ref.cycles);
        EXPECT_EQ(readFileBytes(tenants[i].request.trace_path),
                  ref.trace_bytes);
    }

    // The victim's session directory survives with a committed
    // checkpoint; a Resume job finishes the run bit-identically.
    JobRequest resume;
    resume.job_id = "iso-resume";
    resume.kind = JobKind::Resume;
    resume.tenant = "victim";
    JobReply resumed;
    std::string err;
    VidiClient client(clientOptions());
    ASSERT_TRUE(client.submit(resume, &resumed, &err)) << err;
    EXPECT_EQ(resumed.status, JobStatus::Ok) << resumed.detail;
    EXPECT_EQ(resumed.digest, ref.digest);
    EXPECT_EQ(readFileBytes(tenants[1].request.trace_path),
              ref.trace_bytes);

    server_->requestShutdown();
    server_->wait();
}

TEST_F(ServeEndToEnd, StepBudgetEvictionAndIdempotency)
{
    const Reference &ref = dmaReference();
    // max_live=1 with two tenants: every alternation forces an
    // evict→rehydrate round trip through the session directories.
    startServer("stepping", /*workers=*/2, /*queue=*/16, /*max_live=*/1);
    VidiClient client(clientOptions());
    std::string err;

    const char *names[] = {"ping", "pong"};
    for (const char *name : names) {
        JobRequest request =
            recordRequest(name, std::string("step-create-") + name,
                          ref.cycles / 3);
        request.step_budget = ref.cycles / 4;
        JobReply reply;
        ASSERT_TRUE(client.submit(request, &reply, &err)) << err;
        EXPECT_EQ(reply.status, JobStatus::Running) << reply.detail;
        EXPECT_GT(reply.cycle, 0u);
    }

    // Alternate resumes until both tenants finish.
    std::map<std::string, JobReply> finals;
    for (int round = 0; round < 64 && finals.size() < 2; ++round) {
        const std::string name = names[round % 2];
        if (finals.count(name) != 0)
            continue;
        JobRequest resume;
        resume.job_id = "step-" + name + "-" + std::to_string(round);
        resume.kind = JobKind::Resume;
        resume.tenant = name;
        resume.step_budget = ref.cycles / 4;
        JobReply reply;
        ASSERT_TRUE(client.submit(resume, &reply, &err)) << err;
        if (reply.status == JobStatus::Ok)
            finals[name] = reply;
        else
            ASSERT_EQ(reply.status, JobStatus::Running) << reply.detail;
    }
    ASSERT_EQ(finals.size(), 2u);
    for (const char *name : names) {
        EXPECT_EQ(finals[name].digest, ref.digest);
        EXPECT_EQ(finals[name].cycle, ref.cycles);
        EXPECT_EQ(readFileBytes(dir_ + "/" + name + ".vtrc"),
                  ref.trace_bytes);
    }
    const VidiServer::Stats stats = server_->stats();
    EXPECT_GE(stats.sessions.evictions, 1u);
    EXPECT_GE(stats.sessions.rehydrations, 1u);

    // Idempotency: re-submitting a settled job_id returns the cached
    // outcome instead of re-running the job.
    JobRequest replayed = recordRequest("ping", "step-create-ping",
                                        ref.cycles / 3);
    JobReply cached;
    ASSERT_TRUE(client.submit(replayed, &cached, &err)) << err;
    EXPECT_TRUE(cached.cached);
    EXPECT_EQ(cached.status, JobStatus::Running);

    server_->requestShutdown();
    server_->wait();
}

TEST_F(ServeEndToEnd, OverloadAndInvalidRequestsAreStructured)
{
    // queue_capacity=0: every session job is turned away at admission —
    // deterministic overload.
    startServer("overload", /*workers=*/1, /*queue=*/0, /*max_live=*/2);
    VidiClient client(clientOptions());
    std::string err;

    JobRequest request = recordRequest("t", "ov-1", 0);
    JobReply reply;
    ASSERT_TRUE(client.submitOnce(request, &reply, &err)) << err;
    EXPECT_EQ(reply.status, JobStatus::Overloaded);

    // Status is control-plane: still served while overloaded.
    JobRequest status;
    status.job_id = "ov-status";
    status.kind = JobKind::Status;
    ASSERT_TRUE(client.submitOnce(status, &reply, &err)) << err;
    EXPECT_EQ(reply.status, JobStatus::Ok);
    EXPECT_NE(reply.detail.find("overloaded=1"), std::string::npos)
        << reply.detail;
    EXPECT_NE(reply.detail.find("disk_total="), std::string::npos)
        << reply.detail;

    // And the client's bounded retry gives up with a clear error
    // instead of hanging.
    VidiClient impatient({dir_ + "/serve.sock", /*max_retries=*/1,
                          /*retry_backoff_ms=*/1, /*io_timeout_ms=*/1000});
    EXPECT_FALSE(impatient.submit(request, &reply, &err));
    EXPECT_EQ(impatient.lastAttempts(), 2u);
    EXPECT_NE(err.find("overloaded"), std::string::npos) << err;

    server_->requestShutdown();
    server_->wait();

    // Path-escaping tenant names and unknown apps: structured
    // rejections (checked at the manager layer above; here just the
    // tenant gate end-to-end on a fresh daemon).
    startServer("invalid", 1, 4, 2);
    VidiClient client2(clientOptions());
    JobRequest evil = recordRequest("../../etc", "ev-1", 0);
    ASSERT_TRUE(client2.submit(evil, &reply, &err)) << err;
    EXPECT_EQ(reply.status, JobStatus::InvalidRequest);
    server_->requestShutdown();
    server_->wait();
}

TEST_F(ServeEndToEnd, IdempotencyKeysAreScopedPerTenant)
{
    const Reference &ref = dmaReference();
    startServer("xtenant", /*workers=*/2, /*queue=*/16, /*max_live=*/4);
    VidiClient client(clientOptions());
    std::string err;

    JobRequest a = recordRequest("xa", "shared-id", 0);
    JobReply ra;
    ASSERT_TRUE(client.submit(a, &ra, &err)) << err;
    ASSERT_EQ(ra.status, JobStatus::Ok) << ra.detail;

    // Tenant B reusing A's job_id is a distinct job: it must execute
    // and produce B's own trace — not leak A's cached reply while B's
    // job silently never runs.
    JobRequest b = recordRequest("xb", "shared-id", 0);
    JobReply rb;
    ASSERT_TRUE(client.submit(b, &rb, &err)) << err;
    EXPECT_EQ(rb.status, JobStatus::Ok) << rb.detail;
    EXPECT_FALSE(rb.cached);
    EXPECT_EQ(rb.digest, ref.digest);
    EXPECT_EQ(readFileBytes(dir_ + "/xb.vtrc"), ref.trace_bytes);

    // Each tenant's own retry still hits its own cache entry.
    JobReply ra2;
    ASSERT_TRUE(client.submit(a, &ra2, &err)) << err;
    EXPECT_TRUE(ra2.cached);
    EXPECT_EQ(ra2.digest, ra.digest);

    server_->requestShutdown();
    server_->wait();
}

TEST_F(ServeEndToEnd, RetryableBusyRepliesAreNotCached)
{
    const Reference &ref = dmaReference();
    startServer("busycache", /*workers=*/2, /*queue=*/16, /*max_live=*/4);
    std::string err;

    // A long recording holds the tenant's session lease...
    JobRequest slow = recordRequest("busy", "busy-slow", 0);
    slow.scale = 3 * kScale;
    std::atomic<bool> slow_done{false};
    std::thread slow_thread([this, &slow, &slow_done] {
        VidiClient client(clientOptions());
        JobReply reply;
        std::string terr;
        client.submit(slow, &reply, &terr);
        slow_done.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    // ...so a second job for the same tenant gets a retryable
    // "session busy" Overloaded reply. That transient must not settle
    // the duplicate's idempotency key: once the tenant frees up, a
    // retry of the very same job_id has to actually execute instead of
    // being served Overloaded from the cache forever.
    VidiClient client(clientOptions());
    JobRequest dup = recordRequest("busy", "busy-dup", 0);
    JobReply poll;
    bool saw_busy = false;
    for (int i = 0; i < 2'000 && !saw_busy && !slow_done.load(); ++i) {
        ASSERT_TRUE(client.submitOnce(dup, &poll, &err)) << err;
        if (poll.status == JobStatus::Overloaded)
            saw_busy = true;
        else if (!isRetryable(poll.status))
            break;  // the duplicate won the race and settled first
    }
    slow_thread.join();

    JobReply reply;
    ASSERT_TRUE(client.submit(dup, &reply, &err)) << err;
    EXPECT_EQ(reply.status, JobStatus::Ok) << reply.detail;
    EXPECT_EQ(reply.digest, ref.digest);

    server_->requestShutdown();
    server_->wait();
}

TEST_F(ServeEndToEnd, WedgedClientDoesNotCaptureAcceptor)
{
    startServer("wedged", /*workers=*/1, /*queue=*/8, /*max_live=*/2);
    std::string err;

    // A client that connects and never sends its request frame costs
    // one pooled I/O thread a bounded wait at most — the acceptor keeps
    // accepting and control-plane requests keep being served well
    // inside the daemon's 5 s per-connection I/O timeout.
    wire::Fd wedged = wire::connectUnix(dir_ + "/serve.sock", &err);
    ASSERT_TRUE(wedged.valid()) << err;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    ClientOptions copts = clientOptions();
    copts.io_timeout_ms = 2'000;
    VidiClient client(copts);
    JobRequest status;
    status.job_id = "wedge-status";
    status.kind = JobKind::Status;
    JobReply reply;
    ASSERT_TRUE(client.submitOnce(status, &reply, &err)) << err;
    EXPECT_EQ(reply.status, JobStatus::Ok);

    wedged.reset();  // release the I/O thread before the drain
    server_->requestShutdown();
    server_->wait();
}

TEST_F(ServeEndToEnd, HugeJobTimeoutIsClamped)
{
    const Reference &ref = dmaReference();
    startServer("clamp", /*workers=*/1, /*queue=*/8, /*max_live=*/2);
    VidiClient client(clientOptions());
    std::string err;

    // An all-ones timeout override would overflow the JobClock's signed
    // millisecond deadline into the past and kill the job instantly;
    // the server must clamp it so the run completes normally.
    JobRequest request = recordRequest("clamped", "clamp-1", 0);
    request.job_timeout_ms = ~0ull;
    JobReply reply;
    ASSERT_TRUE(client.submit(request, &reply, &err)) << err;
    EXPECT_EQ(reply.status, JobStatus::Ok) << reply.detail;
    EXPECT_EQ(reply.digest, ref.digest);

    server_->requestShutdown();
    server_->wait();
}

TEST_F(ServeEndToEnd, SigtermDrainsLiveSessionsToResumableCheckpoints)
{
    const Reference &ref = dmaReference();
    startServer("drain", /*workers=*/2, /*queue=*/8, /*max_live=*/8);
    VidiClient client(clientOptions());
    std::string err;

    // Two tenants stopped mid-run: live, idle, undrained.
    for (const char *name : {"d0", "d1"}) {
        JobRequest request = recordRequest(
            name, std::string("drain-") + name, ref.cycles / 3);
        request.step_budget = ref.cycles / 2;
        JobReply reply;
        ASSERT_TRUE(client.submit(request, &reply, &err)) << err;
        ASSERT_EQ(reply.status, JobStatus::Running) << reply.detail;
    }

    // A real SIGTERM, as init would deliver it.
    VidiServer::installSignalHandlers(server_.get());
    ASSERT_EQ(::raise(SIGTERM), 0);
    server_->wait();
    VidiServer::installSignalHandlers(nullptr);

    // Every live session was committed at its current cycle; resuming
    // locally completes each bit-identically.
    for (const char *name : {"d0", "d1"}) {
        const std::string sdir = dir_ + "/sessions/" + name;
        Session session = Session::open(sdir);
        CheckpointImage image;
        ASSERT_TRUE(session.latestCheckpoint(&image));
        EXPECT_GT(image.cycle, 0u);

        auto app = makeApp("DMA");
        const RecordResult resumed = resumeRecordSession(*app, sdir);
        ASSERT_TRUE(resumed.completed);
        EXPECT_TRUE(resumed.checkpoint.resumed);
        EXPECT_EQ(resumed.cycles, ref.cycles);
        EXPECT_EQ(resumed.digest, ref.digest);
        EXPECT_EQ(readFileBytes(dir_ + "/" + name + ".vtrc"),
                  ref.trace_bytes);
    }
}

TEST_F(ServeEndToEnd, VerifyAndTraceDamageReplies)
{
    const Reference &ref = dmaReference();
    startServer("verify", 1, 8, 2);
    VidiClient client(clientOptions());
    std::string err;

    // Record through the daemon, then verify the artifact through it.
    JobRequest record = recordRequest("v0", "vf-rec", 0);
    JobReply reply;
    ASSERT_TRUE(client.submit(record, &reply, &err)) << err;
    ASSERT_EQ(reply.status, JobStatus::Ok) << reply.detail;

    JobRequest verify;
    verify.job_id = "vf-ok";
    verify.kind = JobKind::Verify;
    verify.trace_path = record.trace_path;
    ASSERT_TRUE(client.submit(verify, &reply, &err)) << err;
    EXPECT_EQ(reply.status, JobStatus::Ok) << reply.detail;

    // Flip a byte mid-file: the daemon reports structured damage.
    std::vector<uint8_t> bytes = readFileBytes(record.trace_path);
    ASSERT_GT(bytes.size(), 256u);
    bytes[bytes.size() / 2] ^= 0x40;
    const std::string damaged = dir_ + "/damaged.vtrc";
    writeFileAtomic(damaged, bytes.data(), bytes.size());
    verify.job_id = "vf-damaged";
    verify.trace_path = damaged;
    ASSERT_TRUE(client.submit(verify, &reply, &err)) << err;
    EXPECT_EQ(reply.status, JobStatus::TraceDamage) << reply.detail;
    EXPECT_EQ(reply.error_class, "trace-damage");

    // Unreadable path: Failed, not a crashed worker.
    verify.job_id = "vf-missing";
    verify.trace_path = dir_ + "/nope.vtrc";
    ASSERT_TRUE(client.submit(verify, &reply, &err)) << err;
    EXPECT_EQ(reply.status, JobStatus::Failed) << reply.detail;

    EXPECT_EQ(reply.cycle, 0u);
    ASSERT_GT(ref.cycles, 0u);

    server_->requestShutdown();
    server_->wait();
}

// --- Process-isolated workers -----------------------------------------

TEST_F(ServeEndToEnd, ProcessCrashMatrix)
{
    const Reference &ref = dmaReference();
    startServer("procmatrix", /*workers=*/3, /*queue=*/16,
                /*max_live=*/8,
                [](ServeOptions &o) { processMode(o, 2); });
    std::string err;

    const std::string input = dir_ + "/matrix-input.vtrc";
    writeFileAtomic(input, ref.trace_bytes.data(),
                    ref.trace_bytes.size());

    // Replay cells need their own reference: a replay leg completes
    // when the recorded stimulus drains, legitimately earlier than the
    // record run it came from — so crash recovery is judged against an
    // uninterrupted replay, not against ref.
    JobReply replay_ref;
    {
        VidiClient client(clientOptions());
        JobRequest clean = recordRequest("r-ref", "replay-ref", 0);
        clean.kind = JobKind::Replay;
        clean.trace_path = input;
        ASSERT_TRUE(client.submit(clean, &replay_ref, &err)) << err;
        ASSERT_EQ(replay_ref.status, JobStatus::Ok)
            << replay_ref.detail;
        ASSERT_GT(replay_ref.cycle, 0u);
    }

    // {real death} x {job kind}: every cell must cost exactly one
    // structured Crashed reply for the victim, zero impact on a tenant
    // running concurrently, and leave the victim's session resumable
    // bit-identically.
    struct Death
    {
        const char *knob;
        const char *expect_class;
    };
    const Death deaths[] = {
        {"worker_segv", "worker-segv"},
        {"worker_kill", "worker-killed"},
        {"worker_exit", "worker-exit"},
        {"worker_hang", "worker-hang"},
    };
    const JobKind kinds[] = {JobKind::Record, JobKind::Replay,
                             JobKind::Resume};

    int cell = 0;
    for (const Death &death : deaths) {
        for (const JobKind kind : kinds) {
            SCOPED_TRACE(std::string(death.knob) + " x kind " +
                         std::to_string(int(kind)));
            const std::string id = "cell-" + std::to_string(cell++);
            const std::string victim_name = "v-" + id;
            VidiClient client(clientOptions());

            JobRequest victim;
            if (kind == JobKind::Resume) {
                // Seed a partial recording, then crash during resume.
                JobRequest seed = recordRequest(
                    victim_name, id + "-seed", ref.cycles / 4);
                seed.step_budget = ref.cycles / 4;
                JobReply seeded;
                ASSERT_TRUE(client.submit(seed, &seeded, &err)) << err;
                ASSERT_EQ(seeded.status, JobStatus::Running)
                    << seeded.detail;
                victim.kind = JobKind::Resume;
                victim.tenant = victim_name;
                victim.trace_path = seed.trace_path;
            } else {
                victim = recordRequest(victim_name, "", ref.cycles / 4);
                if (kind == JobKind::Replay) {
                    victim.kind = JobKind::Replay;
                    victim.trace_path = input;
                }
            }
            victim.job_id = id + "-victim";
            ASSERT_TRUE(
                applyFaultKnob(victim.fault, death.knob, ref.cycles / 2));

            // The concurrent healthy tenant shares the worker pool with
            // the dying job.
            JobRequest healthy =
                recordRequest("h-" + id, id + "-healthy", 0);
            JobReply victim_reply;
            JobReply healthy_reply;
            bool victim_ok = false;
            bool healthy_ok = false;
            std::string victim_err;
            std::string healthy_err;
            std::thread victim_thread([&] {
                VidiClient c(clientOptions());
                victim_ok =
                    c.submit(victim, &victim_reply, &victim_err);
            });
            std::thread healthy_thread([&] {
                VidiClient c(clientOptions());
                healthy_ok =
                    c.submit(healthy, &healthy_reply, &healthy_err);
            });
            victim_thread.join();
            healthy_thread.join();

            ASSERT_TRUE(victim_ok) << victim_err;
            ASSERT_TRUE(healthy_ok) << healthy_err;
            EXPECT_EQ(victim_reply.status, JobStatus::Crashed)
                << victim_reply.detail;
            EXPECT_EQ(victim_reply.error_class, death.expect_class)
                << victim_reply.detail;
            EXPECT_NE(victim_reply.detail.find("resumable"),
                      std::string::npos)
                << victim_reply.detail;
            EXPECT_EQ(healthy_reply.status, JobStatus::Ok)
                << healthy_reply.detail;
            EXPECT_EQ(healthy_reply.digest, ref.digest);

            // Post-crash recovery: a fresh worker rehydrates from the
            // newest checkpoint and completes bit-identically.
            JobRequest resume;
            resume.job_id = id + "-recover";
            resume.kind = JobKind::Resume;
            resume.tenant = victim_name;
            JobReply recovered;
            ASSERT_TRUE(client.submit(resume, &recovered, &err)) << err;
            EXPECT_EQ(recovered.status, JobStatus::Ok)
                << recovered.detail;
            const uint64_t want_cycle =
                kind == JobKind::Replay ? replay_ref.cycle : ref.cycles;
            const uint64_t want_digest =
                kind == JobKind::Replay ? replay_ref.digest : ref.digest;
            EXPECT_EQ(recovered.cycle, want_cycle);
            EXPECT_EQ(recovered.digest, want_digest);
            if (kind != JobKind::Replay) {
                EXPECT_EQ(readFileBytes(dir_ + "/" + victim_name +
                                        ".vtrc"),
                          ref.trace_bytes);
            }
        }
    }

    const VidiServer::Stats stats = server_->stats();
    EXPECT_EQ(stats.worker_crashes, 12u);
    EXPECT_EQ(stats.worker_hangs, 3u);
    EXPECT_GE(stats.worker_respawns, 12u);
    // Every crash arc was closed by a successful resume: MTTR samples
    // exist and are sane.
    EXPECT_EQ(stats.mttr_samples, 12u);
    EXPECT_GT(stats.mttr_last_ms + 1, 0u);  // recorded (possibly 0 ms)

    server_->requestShutdown();
    server_->wait();
}

TEST_F(ServeEndToEnd, CrashLoopCircuitBreakerQuarantinesTenant)
{
    const Reference &ref = dmaReference();
    startServer("quarantine", /*workers=*/2, /*queue=*/16,
                /*max_live=*/8, [](ServeOptions &o) {
                    processMode(o, 1);
                    o.crash_loop_max = 2;
                    o.crash_loop_window_ms = 60'000;
                });
    VidiClient client(clientOptions());
    std::string err;
    JobReply reply;

    // Two real crashes inside the window trip the breaker...
    for (int i = 0; i < 2; ++i) {
        JobRequest request = recordRequest(
            "loop", "loop-" + std::to_string(i), ref.cycles / 4);
        ASSERT_TRUE(applyFaultKnob(request.fault, "worker_segv",
                                   ref.cycles / 2));
        ASSERT_TRUE(client.submit(request, &reply, &err)) << err;
        ASSERT_EQ(reply.status, JobStatus::Crashed) << reply.detail;
    }

    // ...so the third job is refused up front with a *retryable*
    // Quarantined reply (submitOnce: the client library would rightly
    // keep retrying it).
    JobRequest third = recordRequest("loop", "loop-2", 0);
    ASSERT_TRUE(client.submitOnce(third, &reply, &err)) << err;
    EXPECT_EQ(reply.status, JobStatus::Quarantined) << reply.detail;
    EXPECT_EQ(reply.error_class, "crash-loop");
    EXPECT_NE(reply.detail.find("retry"), std::string::npos)
        << reply.detail;

    // Quarantine is per tenant: everyone else is served normally.
    JobRequest other = recordRequest("bystander", "loop-by", 0);
    ASSERT_TRUE(client.submit(other, &reply, &err)) << err;
    EXPECT_EQ(reply.status, JobStatus::Ok) << reply.detail;
    EXPECT_EQ(reply.digest, ref.digest);

    EXPECT_GE(server_->stats().quarantined, 1u);
    server_->requestShutdown();
    server_->wait();
}

TEST_F(ServeEndToEnd, DiskQuotaRejectsWithStructuredReply)
{
    const Reference &ref = dmaReference();
    startServer("quota", /*workers=*/1, /*queue=*/8, /*max_live=*/2,
                [](ServeOptions &o) { o.tenant_disk_quota_bytes = 1; });
    VidiClient client(clientOptions());
    std::string err;
    JobReply reply;

    // The scratch root survives across runs, and with a 1-byte quota
    // any leftover session bytes would reject the *first* job — so the
    // hog tenant gets a name no earlier run can have used.
    static int runs = 0;
    const std::string hog = "hog" + std::to_string(::getpid()) + "x" +
                            std::to_string(runs++);

    // First job: the tenant owns no bytes yet, so it runs — and leaves
    // a session directory behind.
    JobRequest first = recordRequest(hog, "quota-1", ref.cycles / 4);
    ASSERT_TRUE(client.submit(first, &reply, &err)) << err;
    ASSERT_EQ(reply.status, JobStatus::Ok) << reply.detail;

    // Second job: the footprint now exceeds the (1-byte) quota, so the
    // reply is a structured terminal QuotaExceeded, not a hang or a
    // silent half-run.
    JobRequest second = recordRequest(hog, "quota-2", 0);
    ASSERT_TRUE(client.submit(second, &reply, &err)) << err;
    EXPECT_EQ(reply.status, JobStatus::QuotaExceeded) << reply.detail;
    EXPECT_EQ(reply.error_class, "disk-quota");
    EXPECT_NE(reply.detail.find("quota"), std::string::npos);

    // Quotas are per tenant.
    JobRequest other = recordRequest("frugal" + hog, "quota-3", 0);
    ASSERT_TRUE(client.submit(other, &reply, &err)) << err;
    EXPECT_EQ(reply.status, JobStatus::Ok) << reply.detail;
    EXPECT_EQ(reply.digest, ref.digest);

    EXPECT_GE(server_->stats().quota_rejected, 1u);
    server_->requestShutdown();
    server_->wait();
}

} // namespace
} // namespace vidi
