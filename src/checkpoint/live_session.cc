#include "checkpoint/live_session.h"

#include <algorithm>
#include <chrono>

#include "checkpoint/state_io.h"
#include "core/boundary.h"
#include "core/vidi_shim.h"
#include "fault/fault_injector.h"
#include "host/host_dram.h"
#include "host/pcie_bus.h"
#include "sim/logging.h"
#include "trace/trace_file.h"

namespace vidi {

namespace {

/** Snapshot the complete session state: shim, host DRAM, simulator. */
CheckpointImage
captureImage(Simulator &sim, VidiShim &shim, HostMemory &host,
             uint8_t mode, uint64_t seed)
{
    StateWriter w;
    size_t mark = w.beginSection("shim");
    shim.saveState(w);
    w.endSection(mark);
    mark = w.beginSection("host");
    host.saveState(w);
    w.endSection(mark);
    mark = w.beginSection("sim");
    sim.saveState(w);
    w.endSection(mark);

    CheckpointImage image;
    image.mode = mode;
    image.seed = seed;
    image.cycle = sim.cycle();
    image.body = w.data();
    return image;
}

/** Overwrite a freshly reconstructed session with checkpointed state. */
void
restoreImage(const CheckpointImage &image, Simulator &sim, VidiShim &shim,
             HostMemory &host, const std::string &context)
{
    StateReader r(image.body.data(), image.body.size(), context);
    {
        StateReader s = r.enterSection("shim");
        shim.loadState(s);
        s.expectEnd();
    }
    {
        StateReader s = r.enterSection("host");
        host.loadState(s);
        s.expectEnd();
    }
    {
        StateReader s = r.enterSection("sim");
        sim.loadState(s);
        s.expectEnd();
    }
    r.expectEnd();
    if (sim.cycle() != image.cycle)
        fatal("%s: restored cycle %llu does not match header cycle %llu",
              context.c_str(),
              static_cast<unsigned long long>(sim.cycle()),
              static_cast<unsigned long long>(image.cycle));
}

/**
 * Wall-clock commit throttle: a cadence boundary that arrives sooner
 * than VidiConfig::checkpoint_min_interval_ms after the previous commit
 * is skipped, bounding checkpoint overhead even when the activity-driven
 * kernel burns through millions of cycles per wall millisecond.
 */
class CommitThrottle
{
  public:
    explicit CommitThrottle(uint64_t min_interval_ms)
        : min_ms_(min_interval_ms),
          last_(std::chrono::steady_clock::now())
    {
    }

    bool
    due() const
    {
        return min_ms_ == 0 ||
               std::chrono::steady_clock::now() - last_ >=
                   std::chrono::milliseconds(min_ms_);
    }

    void committed() { last_ = std::chrono::steady_clock::now(); }

  private:
    uint64_t min_ms_;
    std::chrono::steady_clock::time_point last_;
};

/** Next checkpoint boundary strictly after the current cycle. */
uint64_t
nextCheckpointCycle(uint64_t cycle, uint64_t every)
{
    if (every == 0)
        return ~0ull;
    return (cycle / every + 1) * every;
}

/** Throw SimulatedCrash if a scheduled crash fault is due. */
void
checkCrash(FaultInjector *fault, uint64_t cycle, const TraceStore *store)
{
    if (fault == nullptr)
        return;
    if (fault->crashAtCycle(cycle))
        throw SimulatedCrash(FaultKind::CrashAtCycle, cycle);
    if (store != nullptr &&
        fault->crashAtTraceAppend(store->linesWritten()))
        throw SimulatedCrash(FaultKind::CrashDuringTraceAppend, cycle);
}

} // namespace

/**
 * Everything behind the LiveSession handle. Member order is
 * construction order, which mirrors recordRun()/replayRun() exactly —
 * resume depends on rebuilding an identical design before restoring
 * checkpointed state on top of it.
 */
struct LiveSession::Impl
{
    /**
     * Keep-alive for the owning create()/hydrate() overloads: built
     * designs reference builder-owned state, so when the caller hands
     * the builder over it must be destroyed after the design. First
     * member on purpose — members are destroyed in reverse order.
     */
    std::unique_ptr<AppBuilder> owned_builder;

    Session session;
    VidiConfig cfg;     ///< effective config (crash faults cleared on hydrate)
    bool record;

    Simulator sim;
    HostMemory host;
    PcieBus *pcie = nullptr;
    F1Channels outer;
    F1Channels inner;
    std::unique_ptr<VidiShim> shim;
    std::unique_ptr<AppInstance> instance;

    uint64_t input_signal_bits = 0;
    uint64_t next_ckpt = ~0ull;
    uint64_t drain_deadline = 0;
    bool workload_completed = false;
    /**
     * Time-travel leg: never commit checkpoints or overwrite the
     * recorded trace — the forward replay must leave the session
     * directory exactly as it found it.
     */
    bool read_only = false;
    CheckpointStats stats;
    CommitThrottle throttle;

    RecordResult rec;
    ReplayResult rep;

    Impl(Session &&s, AppBuilder &app, bool resume,
         uint64_t hydrate_at = ~0ull)
        : session(std::move(s)),
          cfg(session.manifest().cfg),
          record(VidiMode(session.manifest().mode) != VidiMode::R3_Replay),
          sim(record ? session.manifest().seed : 0),
          throttle(cfg.checkpoint_min_interval_ms)
    {
        const SessionManifest &m = session.manifest();
        app.setScale(m.scale);
        if (resume) {
            // The resumed run must not re-kill itself at the same point.
            cfg.fault.crash_at_cycle = 0;
            cfg.fault.crash_during_checkpoint = false;
            cfg.fault.crash_during_trace_append = false;
            // Same for worker-process faults: a rehydrating vidi_serve
            // worker replays past the fault cycle, and re-firing there
            // would crash-loop the tenant forever.
            cfg.fault.worker_segv_at_cycle = 0;
            cfg.fault.worker_kill_at_cycle = 0;
            cfg.fault.worker_exit_at_cycle = 0;
            cfg.fault.worker_hang_at_cycle = 0;
        }

        sim.setKernelMode(resolveKernelMode(cfg.kernel));
        pcie = &sim.add<PcieBus>("pcie", cfg.pcie_bytes_per_sec,
                                 cfg.clock_hz);
        outer = makeF1Channels(sim, "outer");
        inner = makeF1Channels(sim, "inner");
        Boundary boundary = Boundary::fromF1(outer, inner);
        app.extendBoundary(sim, boundary, /*replaying=*/!record);
        input_signal_bits = boundary.inputSignalBits();

        shim = std::make_unique<VidiShim>(
            sim, std::move(boundary),
            record ? VidiMode::R2_Record : VidiMode::R3_Replay, host,
            *pcie, cfg);
        if (record) {
            instance = app.build(sim, inner, &outer, &host, pcie, m.seed);
            shim->beginRecord();
        } else {
            instance =
                app.build(sim, inner, nullptr, nullptr, nullptr, 0);
            shim->beginReplay(loadTrace(m.trace_path));
        }

        if (resume) {
            CheckpointImage image;
            std::string path;
            const bool found =
                hydrate_at == ~0ull
                    ? session.latestCheckpoint(&image, &path)
                    : session.nearestCheckpoint(hydrate_at, &image,
                                                &path);
            if (found) {
                restoreImage(image, sim, *shim, host, path);
                stats.resumed = true;
                stats.resumed_at_cycle = image.cycle;
            }
        }
        next_ckpt =
            nextCheckpointCycle(sim.cycle(), m.checkpoint_every);

        if (record) {
            rec.app = app.name();
            rec.mode = VidiMode::R2_Record;
            rec.seed = m.seed;
            rec.input_signal_bits = input_signal_bits;
        } else {
            rep.app = app.name();
        }
    }

    void
    commit()
    {
        const auto t0 = std::chrono::steady_clock::now();
        const CheckpointImage image =
            captureImage(sim, *shim, host, session.manifest().mode,
                         session.manifest().seed);
        const uint64_t bytes =
            session.commitCheckpoint(image.cycle, image, shim->fault());
        const auto ns = uint64_t(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
        ++stats.checkpoints;
        stats.bytes_last = bytes;
        stats.bytes_total += bytes;
        stats.commit_ns_total += ns;
        stats.commit_ns_max = std::max(stats.commit_ns_max, ns);
    }
};

LiveSession::LiveSession(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl))
{
    // A rehydrated session may come back mid-drain or fully drained;
    // re-derive the phase from the restored state instead of trusting
    // the constructor's default.
    if (impl_->record && impl_->instance->done()) {
        impl_->workload_completed = true;
        impl_->rec.cycles = impl_->sim.cycle();
        impl_->rec.digest = impl_->instance->outputDigest();
        impl_->drain_deadline = impl_->sim.cycle() + impl_->cfg.max_cycles;
        phase_ = Phase::Draining;
    }
}

LiveSession::~LiveSession() = default;

std::unique_ptr<LiveSession>
LiveSession::create(AppBuilder &app, const std::string &dir,
                    const SessionManifest &manifest)
{
    if (app.name() != manifest.app)
        fatal("LiveSession::create(%s): manifest names app '%s' but '%s' "
              "was supplied", dir.c_str(), manifest.app.c_str(),
              app.name().c_str());
    Session session = Session::create(dir, manifest);
    return std::unique_ptr<LiveSession>(new LiveSession(
        std::make_unique<Impl>(std::move(session), app, false)));
}

std::unique_ptr<LiveSession>
LiveSession::create(std::unique_ptr<AppBuilder> app,
                    const std::string &dir,
                    const SessionManifest &manifest)
{
    std::unique_ptr<LiveSession> live = create(*app, dir, manifest);
    live->impl_->owned_builder = std::move(app);
    return live;
}

std::unique_ptr<LiveSession>
LiveSession::hydrate(AppBuilder &app, const std::string &dir)
{
    Session session = Session::open(dir);
    if (app.name() != session.manifest().app)
        fatal("LiveSession::hydrate(%s): manifest names app '%s' but "
              "'%s' was supplied", dir.c_str(),
              session.manifest().app.c_str(), app.name().c_str());
    return std::unique_ptr<LiveSession>(new LiveSession(
        std::make_unique<Impl>(std::move(session), app, true)));
}

std::unique_ptr<LiveSession>
LiveSession::hydrate(std::unique_ptr<AppBuilder> app,
                     const std::string &dir)
{
    std::unique_ptr<LiveSession> live = hydrate(*app, dir);
    live->impl_->owned_builder = std::move(app);
    return live;
}

std::unique_ptr<LiveSession>
LiveSession::hydrateAt(AppBuilder &app, const std::string &dir,
                       uint64_t cycle)
{
    Session session = Session::open(dir);
    if (app.name() != session.manifest().app)
        fatal("LiveSession::hydrateAt(%s): manifest names app '%s' but "
              "'%s' was supplied", dir.c_str(),
              session.manifest().app.c_str(), app.name().c_str());
    auto impl =
        std::make_unique<Impl>(std::move(session), app, true, cycle);
    impl->read_only = true;
    return std::unique_ptr<LiveSession>(new LiveSession(std::move(impl)));
}

std::unique_ptr<LiveSession>
LiveSession::hydrateAt(std::unique_ptr<AppBuilder> app,
                       const std::string &dir, uint64_t cycle)
{
    std::unique_ptr<LiveSession> live = hydrateAt(*app, dir, cycle);
    live->impl_->owned_builder = std::move(app);
    return live;
}

uint64_t
LiveSession::cycle() const
{
    return impl_->sim.cycle();
}

bool
LiveSession::isRecord() const
{
    return impl_->record;
}

const SessionManifest &
LiveSession::manifest() const
{
    return impl_->session.manifest();
}

const std::string &
LiveSession::dir() const
{
    return impl_->session.dir();
}

uint64_t
LiveSession::checkpointsCommitted() const
{
    return impl_->stats.checkpoints;
}

bool
LiveSession::resumedFromCheckpoint() const
{
    return impl_->stats.resumed;
}

uint64_t
LiveSession::resumedAtCycle() const
{
    return impl_->stats.resumed_at_cycle;
}

uint64_t
LiveSession::packetsDecoded() const
{
    return impl_->shim->packetsDecoded();
}

CheckpointImage
LiveSession::stateImage()
{
    Impl &i = *impl_;
    return captureImage(i.sim, *i.shim, i.host,
                        i.session.manifest().mode,
                        i.session.manifest().seed);
}

void
LiveSession::maybeCommit()
{
    Impl &i = *impl_;
    if (i.sim.cycle() < i.next_ckpt)
        return;
    // Read-only legs never commit, but the rung must still advance or
    // the stepping deadline pins at the current cycle and the replay
    // loop cannot make progress.
    if (!i.read_only && i.throttle.due()) {
        i.commit();
        i.throttle.committed();
    }
    i.next_ckpt = nextCheckpointCycle(
        i.sim.cycle(), i.session.manifest().checkpoint_every);
}

LiveSession::Phase
LiveSession::step(uint64_t cycle_budget)
{
    if (phase_ == Phase::Finished)
        return phase_;
    const uint64_t now = impl_->sim.cycle();
    const uint64_t slice_end =
        cycle_budget > ~0ull - now ? ~0ull : now + cycle_budget;
    if (impl_->record)
        stepRecord(slice_end);
    else
        stepReplay(slice_end);
    return phase_;
}

void
LiveSession::stepRecord(uint64_t slice_end)
{
    Impl &i = *impl_;
    Simulator &sim = i.sim;
    FaultInjector *fault = i.shim->fault();

    if (phase_ == Phase::Running) {
        while (!i.instance->done() && sim.cycle() < i.cfg.max_cycles &&
               sim.cycle() < slice_end) {
            checkCrash(fault, sim.cycle(), i.shim->store());
            uint64_t deadline = std::min(
                {i.cfg.max_cycles, i.next_ckpt, slice_end});
            if (fault != nullptr)
                deadline = std::min(deadline, fault->pendingCrashCycle());
            sim.stepUntil(deadline);
            checkCrash(fault, sim.cycle(), i.shim->store());
            maybeCommit();
        }
        if (!i.instance->done() && sim.cycle() < i.cfg.max_cycles)
            return;  // slice budget exhausted; still Running
        i.workload_completed = i.instance->done();
        // End-to-end execution time and digest are pinned at workload
        // end — the post-workload drain is bookkeeping, not Table 1
        // cycles.
        i.rec.cycles = sim.cycle();
        i.rec.digest = i.instance->outputDigest();
        // Let the trace store finish draining to host DRAM, still
        // checkpointing — a crash during the post-workload drain must
        // be resumable too.
        i.drain_deadline = sim.cycle() + i.cfg.max_cycles;
        phase_ = Phase::Draining;
    }

    while (!i.shim->recordDrained() && sim.cycle() < i.drain_deadline &&
           sim.cycle() < slice_end) {
        checkCrash(fault, sim.cycle(), i.shim->store());
        uint64_t deadline =
            std::min({i.drain_deadline, i.next_ckpt, slice_end});
        if (fault != nullptr)
            deadline = std::min(deadline, fault->pendingCrashCycle());
        sim.stepUntil(deadline);
        checkCrash(fault, sim.cycle(), i.shim->store());
        maybeCommit();
    }
    if (i.shim->recordDrained()) {
        finalizeRecord();
        return;
    }
    if (sim.cycle() >= i.drain_deadline)
        fatal("LiveSession(%s): trace store failed to drain within "
              "%llu cycles", i.rec.app.c_str(),
              static_cast<unsigned long long>(i.cfg.max_cycles));
}

void
LiveSession::stepReplay(uint64_t slice_end)
{
    Impl &i = *impl_;
    Simulator &sim = i.sim;
    FaultInjector *fault = i.shim->fault();

    while (!i.shim->replayFinished() && !i.shim->replayStalled() &&
           sim.cycle() < i.cfg.max_cycles && sim.cycle() < slice_end) {
        checkCrash(fault, sim.cycle(), nullptr);
        uint64_t deadline =
            std::min({i.cfg.max_cycles, i.next_ckpt, slice_end});
        if (fault != nullptr)
            deadline = std::min(deadline, fault->pendingCrashCycle());
        sim.stepUntil(deadline);
        checkCrash(fault, sim.cycle(), nullptr);
        maybeCommit();
    }
    if (!i.shim->replayFinished() && !i.shim->replayStalled() &&
        sim.cycle() < i.cfg.max_cycles)
        return;  // slice budget exhausted
    finalizeReplay();
}

void
LiveSession::finalizeRecord()
{
    Impl &i = *impl_;
    RecordResult &r = i.rec;
    r.completed = i.workload_completed;
    r.trace = i.shim->collectTrace(&r.damage);
    r.trace_bytes = i.shim->traceBytes();
    r.trace_lines = i.shim->store()->linesWritten();
    r.transactions = i.shim->monitoredTransactions();
    r.monitor_stall_cycles = i.shim->monitorStallCycles();
    r.store_fifo_high_water = i.shim->store()->fifoHighWater();
    r.drain_retries = i.shim->store()->drainRetries();
    r.link_stall_cycles = i.shim->store()->stallCycles();
    r.overflow_drops = i.shim->store()->overflowDrops();
    r.dropped_payload_bytes = i.shim->store()->droppedPayloadBytes();
    r.encoder_pool_hits = i.shim->encoder()->poolHits();
    r.encoder_pool_misses = i.shim->encoder()->poolMisses();
    r.kernel = i.sim.kernelStats();
    r.checkpoint = i.stats;
    if (r.completed && !i.read_only &&
        !i.session.manifest().trace_path.empty())
        saveTrace(i.session.manifest().trace_path, r.trace);
    phase_ = Phase::Finished;
}

void
LiveSession::finalizeReplay()
{
    Impl &i = *impl_;
    ReplayResult &r = i.rep;
    r.completed = i.shim->replayFinished();
    r.cycles = i.sim.cycle();
    r.replayed_transactions = i.shim->replayedTransactions();
    r.digest = i.instance->outputDigest();
    r.validation = i.shim->validationTrace();
    r.watchdog_tripped = i.shim->replayStalled();
    r.diagnostic = i.shim->replayDiagnostic();
    r.damage = i.shim->replayDamage();
    r.kernel = i.sim.kernelStats();
    r.checkpoint = i.stats;
    phase_ = Phase::Finished;
}

void
LiveSession::evict()
{
    if (phase_ == Phase::Finished || impl_->read_only)
        return;
    impl_->commit();
    impl_->throttle.committed();
}

RecordResult
LiveSession::takeRecordResult()
{
    if (phase_ != Phase::Finished || !impl_->record)
        panic("LiveSession::takeRecordResult: not a finished recording");
    return std::move(impl_->rec);
}

ReplayResult
LiveSession::takeReplayResult()
{
    if (phase_ != Phase::Finished || impl_->record)
        panic("LiveSession::takeReplayResult: not a finished replay");
    return std::move(impl_->rep);
}

RecordResult
LiveSession::partialRecordResult() const
{
    RecordResult r;
    r.app = impl_->rec.app;
    r.mode = VidiMode::R2_Record;
    r.seed = impl_->session.manifest().seed;
    r.timed_out = true;
    r.cycles = impl_->sim.cycle();
    r.input_signal_bits = impl_->input_signal_bits;
    r.checkpoint = impl_->stats;
    return r;
}

ReplayResult
LiveSession::partialReplayResult() const
{
    ReplayResult r;
    r.app = impl_->rep.app;
    r.timed_out = true;
    r.cycles = impl_->sim.cycle();
    r.checkpoint = impl_->stats;
    return r;
}

} // namespace vidi
